"""One benchmark pass, run in a fresh interpreter by `run.py`.

    child.py [--trace FILE] cli ARG...     morava.cli.main(ARG...)
    child.py [--trace FILE] axioms SHAPES  the law-axiom battery on SHAPES,
                                           a JSON list of
                                           [p, n, vdeg, cap, precision]

With `--trace`, every `morava.*` module is wrapped by `tracer.Tracer` for
the pass and the counters and spans are written to FILE.  The battery
writes one result per shape to `axioms.json` in the working directory.
The exit code is that of the CLI, or 0 for the battery.
"""

import argparse
import json
import sys

from morava import cli, fgl, padic


def axiom_shape(p, n, D, cap, N):
    """build_fgl at adaptive precision, then the four law checks at cap."""
    cur = N
    while True:
        try:
            law = fgl.build_fgl(p, n, N=cur, D=D, M=cap)
            break
        except padic.PrecisionError as e:
            cur += max(e.needed_extra, 1) + 7
    u_ok, _ = fgl.check_unitality(law, cap=cap)
    c_ok, _ = fgl.check_commutativity(law, cap=cap)
    a_ok, aw = fgl.check_associativity(law, cap=cap)
    i_ok = fgl.check_integrality(law.two_var(cap, cap, tcap=cap))
    return {"shape": [p, n, D, cap], "N": law.ctx.N,
            "verdict": "PASS" if u_ok and c_ok and a_ok and i_ok else "FAIL",
            "terms": aw.get("terms")}


def run_axioms(shapes):
    results = [axiom_shape(*shape) for shape in shapes]
    with open("axioms.json", "w") as fh:
        json.dump(results, fh)
    return 0


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace")
    ap.add_argument("kind", choices=("cli", "axioms"))
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        # Imported here so that untraced passes do not pay for it.
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if args.kind == "cli":
            code = cli.main(args.rest)
        else:
            code = run_axioms(json.loads(args.rest[0]))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
