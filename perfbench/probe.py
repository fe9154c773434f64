"""Machine-speed probe, run by `run.py` beside every benchmark pass.

    probe.py

Lowers its own priority by NICE, prints "ready", then repeats a fixed piece
of pure-Python big-integer work until it receives SIGTERM, and prints the
number of pieces done and the CPU seconds they took.  `run.py` pins the
probe and the pass to the same CPU, so the probe gets a small share of that
CPU at the same moments as the pass, and its rate (pieces per CPU second)
follows the speed the host gave the pass while it ran.
"""

import os
import signal
import sys
import time

NICE = 10
MOD = (1 << 127) - 1
PIECE = 256


def piece(acc):
    for i in range(PIECE):
        acc = (acc * 0x9E3779B97F4A7C15 + i) % MOD
    return acc


def main():
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.nice(NICE)
    print("ready", flush=True)
    done, acc = 0, 1
    t0 = time.process_time()
    while not stop:
        acc = piece(acc)
        done += 1
    print(done, time.process_time() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
