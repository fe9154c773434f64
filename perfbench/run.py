"""Benchmark of `morava`: the paper suite, warm and cold, and the law-axiom
battery, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Workloads (BENCHMARK.json lists the
first and the last; README.md says why):

    paper-suite       `morava verify paper-suite`, default flags, with a law
                      cache filled by the set-up pass
    paper-suite-cold  the same command with an empty cache on every pass
    fgl-axioms        build_fgl at adaptive precision plus the four law
                      checks, on three shapes at heights 1-3

Every pass is a fresh interpreter, started one after another from this
process (one worker; the CLI runs with its default `--jobs 1`), with
`MORAVA_CACHE_DIR` removed from its environment and its own empty working
directory under `.perfbench-work/`, so the CLI's default `.cache` and
report paths land there and never in the checkout.  A run first sets up
(SETUP_PASSES passes of the workload, each in a fresh directory with an
empty law cache; the first one fills the cache that `paper-suite` reads),
then makes untraced passes, at least MIN_PASSES and no more than fit in
`--seconds` judging by the last pass, and reports the medians over those
passes.  With `--trace 1` it makes one untraced pass and then one pass
with every `morava.*` module wrapped by `tracer.Tracer`, and reports the
per-layer metrics from the traced pass.

The host this was written on changes speed by a third within minutes, so
every pass runs beside `probe.py`, pinned to the same CPU at a lower
priority, and its CPU time is rescaled by the probe's rate over the pass
(see `normalized`).

Every pass, set-up passes included, is checked against `reference.json`:
an operation (one suite record, or one axiom shape) fails on a nonzero
exit or on a verdict (for a shape, also the associativity term count)
that differs from the reference.  The last line of standard output is
the JSON result; the lines before it name every metric with its unit.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper-suite", "paper-suite-cold", "fgl-axioms")
SUITE_ARGV = ("verify", "paper-suite")
# (p, n, v-degree cap, y-degree cap, starting precision).  The starting
# precisions are the fixed points of the adaptive loop.  The caps are
# lowered from the acceptance battery's 32 so that a pass takes seconds,
# not minutes, and a run's passes fit the benchmark's time budget.
AXIOM_SHAPES = (
    (2, 1, 1, 16, 59),
    (2, 2, 6, 16, 33),
    (2, 3, 4, 12, 24),
)
REPORT = "morava-report.json"
MIN_PASSES = 2
SETUP_PASSES = 2
# Probe pieces per CPU second on the machine the benchmark was written on
# (see README.md): the speed that normalized times are rescaled to.
REF_RATE = 16000.0
# A run must end within 180 s; no pass may start a child past this.
RUN_LIMIT_S = 170.0
NOTE = ("passes run back to back; the OS page cache is not dropped "
        "between passes, since that needs privileged kernel settings the "
        "benchmark does not touch")


# ---------------------------------------------------------------------------
# child processes

def child_env():
    env = dict(os.environ)
    env.pop("MORAVA_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    return env


class Probe:
    """`probe.py` on one CPU, from before a pass starts until it ends."""

    def __init__(self, cpu):
        self.proc = subprocess.Popen([sys.executable, PROBE],
                                     stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            if self.proc.stdout.readline().strip() != "ready":
                raise SystemExit("probe.py did not start")
        except BaseException:
            self.close()
            raise

    def rate(self):
        """Stop the probe; its pieces per CPU second since it started."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=30)
        done, cpu = out.split()
        if float(cpu) <= 0 or int(done) == 0:
            raise SystemExit("probe.py measured nothing")
        return int(done) / float(cpu)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def normalized(cpu_s, rate):
    """CPU seconds on a CPU that runs the probe at REF_RATE."""
    return cpu_s * rate / REF_RATE


def run_child(argv, cwd, timeout):
    """Run argv to completion in cwd, beside the probe on the same CPU;
    wall time from launch to exit, CPU time and peak RSS from the kernel's
    accounting of the child, and that CPU time normalized by the probe's
    rate over the run."""
    cpu = min(os.sched_getaffinity(0))
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        probe = Probe(cpu)
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                    stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                os.sched_setaffinity(proc.pid, {cpu})
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            rate = probe.rate()
        finally:
            probe.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = ru.ru_utime + ru.ru_stime
    return {"wall_s": wall, "cpu_s": cpu_s,
            "norm_cpu_s": normalized(cpu_s, rate), "probe_rate": rate,
            "peak_rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode}


# ---------------------------------------------------------------------------
# correctness against the reference

def record_key(rec):
    return "%s|%s|%s" % (rec["check_id"], rec["anchor"],
                         json.dumps(rec["params"], sort_keys=True))


def record_digest(rec):
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()
                          ).hexdigest()


def check_suite(ref, code, report_path):
    """Compare one suite pass with its reference.  Returns attempted,
    failed, records whose JSON changed, report bytes and whether the
    report matches the reference byte for byte."""
    want = {r["key"]: r for r in ref["records"]}
    out = {"attempted": len(want), "failed": len(want), "changed": len(want),
           "bytes": 0, "sha256_match": False}
    try:
        with open(report_path, "rb") as fh:
            raw = fh.read()
        got = {record_key(c): c for c in json.loads(raw)["checks"]}
    except (OSError, ValueError, KeyError, TypeError):
        return out
    extra = len(set(got) - set(want))
    failed = changed = extra
    for key, r in want.items():
        c = got.get(key)
        if c is None or c.get("verdict") != r["verdict"]:
            failed += 1
        if c is None or record_digest(c) != r["sha256"]:
            changed += 1
    out.update(attempted=len(want) + extra, changed=changed, bytes=len(raw),
               sha256_match=hashlib.sha256(raw).hexdigest()
               == ref["report_sha256"])
    out["failed"] = out["attempted"] if code != 0 else failed
    return out


def check_axioms(ref, code, result_path):
    want = {tuple(r["shape"]): r for r in ref["shapes"]}
    out = {"attempted": len(want), "failed": len(want), "changed": 0,
           "bytes": 0, "sha256_match": None}
    if code != 0:
        return out
    try:
        with open(result_path) as fh:
            got = {tuple(r["shape"]): r for r in json.load(fh)}
    except (OSError, ValueError, KeyError, TypeError):
        return out
    out["failed"] = sum(
        1 for shape, r in want.items()
        if shape not in got or got[shape].get("verdict") != r["verdict"]
        or got[shape].get("terms") != r["terms"])
    return out


# ---------------------------------------------------------------------------
# workloads

class Run:
    """One invocation: a work directory, a deadline and the passes made."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.ref = reference[workload]
        self.t0 = time.perf_counter()
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK)
        # The seed only orders the axiom shapes; the work stays the same.
        self.shapes = list(AXIOM_SHAPES)
        random.Random(seed).shuffle(self.shapes)
        self.count = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def left(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def _dir(self, name):
        path = os.path.join(self.dir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def one_pass(self, trace_path=None, fresh=False):
        """One pass of the workload; returns the child's measurements with
        its correctness check.  A `paper-suite` pass runs in the directory
        that holds the law cache, unless it is `fresh`."""
        self.count += 1
        py = [sys.executable]
        traced = ["--trace", trace_path] if trace_path else []
        if self.workload == "fgl-axioms":
            cwd = self._dir("pass-%d" % self.count)
            shapes = json.dumps(self.shapes)
            res = run_child(py + [CHILD] + traced + ["axioms", shapes], cwd,
                            self.left())
            res.update(check_axioms(self.ref, res["code"],
                                    os.path.join(cwd, "axioms.json")))
        else:
            warm = self.workload == "paper-suite" and not fresh
            cwd = self._dir("warm" if warm else "pass-%d" % self.count)
            if trace_path:
                argv = py + [CHILD] + traced + ["cli"]
            else:
                argv = py + ["-m", "morava.cli"]
            res = run_child(argv + list(SUITE_ARGV), cwd, self.left())
            res.update(check_suite(self.ref, res["code"],
                                   os.path.join(cwd, REPORT)))
        if os.path.basename(cwd) != "warm":
            shutil.rmtree(cwd, ignore_errors=True)
        return res

    def setup(self):
        """Set-up passes: the workload's first pass in a fresh directory
        with an empty law cache, SETUP_PASSES times.  The first one leaves
        the law cache that the `paper-suite` passes then read."""
        return [self.one_pass(fresh=i > 0) for i in range(SETUP_PASSES)]


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 100))
    return ordered[int(k) - 1]


def layer_metrics(trace, traced, untraced_wall):
    """Per-layer metrics of one traced pass, from its trace file and its
    checked result.  A name the program no longer has reads as zero calls
    and zero seconds."""
    calls, incl = trace["calls"], trace["incl_s"]
    selfs, nested = trace["self_s"], trace["nested"]
    records, spans = trace["records"], trace["spans"]

    def n(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def s(key):
        return incl.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    attempts = sum(r["attempts"] for r in records)
    law_builds = sum(
        1 for sp in spans
        if sp[0] in ("fgl.build_fgl", "fgl.build_fgl_cached")
        and sp[3] is not None and spans[sp[3]][0] == "cli.Builder.fgl")
    record_s = [r["s"] for r in records]
    # The law cache is the only reader of golden vectors in these passes.
    hits = sum(1 for sp in spans
               if sp[0] == "series.golden_load" and not sp[5])
    misses = n("fgl.fgl_cache_save")
    prepares = n("series.weierstrass_prepare")
    cmul = n("coeff.CoeffContext.mul")
    return {
        "cli.records": len(records),
        "cli.attempts": attempts,
        "cli.retries": attempts - len(records),
        "cli.law_builds": law_builds,
        "cli.record_s.p50": percentile(record_s, 50),
        "cli.record_s.p90": percentile(record_s, 90),
        "cli.self_s": selfs.get("cli", 0.0),
        "report.render_json_s": s("report.render_json"),
        "report.bytes": traced["bytes"],
        "report.records_changed": traced["changed"],
        "fgl.build_fgl.calls": n("fgl.build_fgl"),
        "fgl.build_fgl.s": s("fgl.build_fgl"),
        "fgl.solve_log.calls": n("fgl.solve_log"),
        "fgl.solve_log.s": s("fgl.solve_log"),
        "fgl.two_var.builds": n("fgl._build_two_var"),
        "fgl.two_var.s": s("fgl._build_two_var"),
        "fgl.formal_sum.s": s("fgl.formal_sum"),
        "fgl.check_associativity.s": s("fgl.check_associativity"),
        "fgl.cache.hits": hits,
        "fgl.cache.misses": misses,
        "fgl.cache.bytes_written": trace["cache_bytes_written"],
        "fgl.self_s": selfs.get("fgl", 0.0),
        "series.ser_mul.calls": n("series.ser_mul"),
        "series.ms_mul.calls": n("series.ms_mul"),
        "series.ms_eval.calls": n("series.ms_eval"),
        "series.ms_eval.s": s("series.ms_eval"),
        "series.weierstrass_prepare.calls": prepares,
        "series.weierstrass_prepare.s": s("series.weierstrass_prepare"),
        "series.weierstrass_prepare.distinct_share":
            ratio(trace["distinct_prepared"], prepares),
        "series.ser_mul_per_prepare": ratio(
            nested.get("series.weierstrass_prepare>series.ser_mul", 0),
            prepares),
        "series.golden_load.s": s("series.golden_load"),
        "series.golden_dump.s": s("series.golden_dump"),
        "series.self_s": selfs.get("series", 0.0),
        "coeff.mul.calls": cmul,
        "coeff.add.calls": n("coeff.CoeffContext.add",
                             "coeff.CoeffContext.add_raw",
                             "coeff.CoeffContext.sub",
                             "coeff.CoeffContext.sub_raw"),
        "coeff.mul.s": s("coeff.CoeffContext.mul"),
        "coeff.scalar_mults_per_mul": ratio(
            nested.get("coeff.CoeffContext.mul>padic.PadicContext.mul", 0),
            cmul),
        "coeff.self_s": selfs.get("coeff", 0.0),
        "padic.mul.calls": n("padic.PadicContext.mul"),
        "padic.add.calls": n("padic.PadicContext.add",
                             "padic.PadicContext.add_raw",
                             "padic.PadicContext.sub"),
        "padic.self_s": selfs.get("padic", 0.0),
        "groupcoh.build_cohring.calls": n("groupcoh.build_cohring"),
        "groupcoh.build_cohring.s": s("groupcoh.build_cohring"),
        "groupcoh.normal_form.calls": n("groupcoh.normal_form"),
        "groupcoh.elem_mul.calls": n("groupcoh.elem_mul"),
        "groupcoh.point_class_ms.calls": n("groupcoh.point_class_ms"),
        "groupcoh.point_class_ms.s": s("groupcoh.point_class_ms"),
        "groupcoh.self_s": selfs.get("groupcoh", 0.0),
        "euler.euler_of_char.calls": n("euler.euler_of_char"),
        "euler.euler_of_char.s": s("euler.euler_of_char"),
        "euler.self_s": selfs.get("euler", 0.0),
        "localize.mq_mul.calls": n("localize.mq_mul"),
        "localize.matrix_det.s": s("localize.matrix_det"),
        "localize.self_s": selfs.get("localize", 0.0),
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    }


def machine(seed, seconds, trace):
    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": None, "caches": {},
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": seed, "seconds": seconds, "trace": trace,
            "min_passes": MIN_PASSES, "setup_passes": SETUP_PASSES,
            "workers": 1, "probe_ref_rate": REF_RATE,
            "pinned_cpu": min(os.sched_getaffinity(0)), "note": NOTE}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            vals = []
            for f in ("level", "type", "size"):
                with open(os.path.join(base, idx, f)) as fh:
                    vals.append(fh.read().strip())
            info["caches"]["L%s-%s" % (vals[0], vals[1])] = vals[2]
    except OSError:
        pass
    return info


def run_workload(workload, seed, seconds, trace, reference, spec):
    """Set up, measure and check one workload; returns the result object
    and prints the human-readable lines before it."""
    run = Run(workload, seed, reference)
    try:
        setups = run.setup()
        passes = []
        # A traced run makes one untraced pass, the baseline of the tracing
        # overhead, and reports no end-to-end metric.
        least, budget = (1, 0) if trace else (MIN_PASSES, seconds)
        start = time.perf_counter()
        while run.left() > 0 and (
                len(passes) < least
                or time.perf_counter() - start + passes[-1]["wall_s"]
                <= budget):
            passes.append(run.one_pass())
        traced = None
        if trace:
            trace_path = os.path.join(run.dir, "trace.json")
            traced = run.one_pass(trace_path)
            if traced["code"] != 0:
                raise SystemExit("traced pass exited %d" % traced["code"])
            with open(trace_path) as fh:
                trace_doc = json.load(fh)
            shutil.copyfile(trace_path, os.path.join(
                WORK, "trace-%s.json" % workload))
    finally:
        run.close()
    checked = setups + passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    wall = statistics.median(p["wall_s"] for p in passes)
    values = {
        "norm_cpu_s": statistics.median(p["norm_cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["norm_cpu_s"] for p in setups),
    }
    tier = "end_to_end"
    if trace:
        tier = "per_layer"
        values = layer_metrics(trace_doc, traced, wall)
    metrics = {}
    for m in spec[tier]:
        if m["name"] not in values:
            raise SystemExit("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print("workload %s: %d setup pass(es), %d measured pass(es)%s"
          % (workload, len(setups), len(passes),
             ", 1 traced pass" if trace else ""))
    print("machine " + json.dumps(machine(seed, seconds, trace),
                                sort_keys=True))
    for key in ("wall_s", "cpu_s", "norm_cpu_s", "probe_rate"):
        print("  pass %s: setup %s, measured %s%s" % (
            key, " ".join("%.4g" % p[key] for p in setups),
            " ".join("%.4g" % p[key] for p in passes),
            ", traced %.4g" % traced[key] if traced else ""))
    for name, m in metrics.items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-44s %14.6g s (median, not bounded)" % ("wall_s", wall))
    print("  %-44s %14.6g s (median, not bounded)"
          % ("cpu_s", statistics.median(p["cpu_s"] for p in passes)))
    print("  %-44s %14.6g share (%d of %d operations)"
          % ("failed_share", failed / attempted if attempted else 1.0,
             failed, attempted))
    shas = [p["sha256_match"] for p in checked
            if p.get("sha256_match") is not None]
    if shas:
        print("  report sha256 matches the reference: %d of %d passes"
              % (sum(shas), len(shas)))
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "morava")):
        print("error: %s/morava not found; run from the root of a morava "
              "checkout" % SRC, file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace,
                               reference, spec) for w in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
