"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The smoke tests shrink each workload (one shard of the suite, the smallest
axiom shape, one measured pass) so the whole file runs in under a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer

sys.path.insert(0, run.SRC)

with open(run.REFERENCE) as fh:
    REFERENCE = json.load(fh)
with open(run.SPEC) as fh:
    SPEC = json.load(fh)


def fake_report(path, records):
    checks = [{"check_id": r["check_id"], "anchor": r["anchor"],
               "params": r["params"], "verdict": r["verdict"],
               "witness": {}, "precision_loss": {}} for r in records]
    with open(path, "w") as fh:
        json.dump({"checks": checks}, fh)


def test_mutated_verdict_is_counted_as_failed(tmp_path):
    ref = REFERENCE["paper-suite"]
    records = copy.deepcopy(ref["records"])
    path = str(tmp_path / "report.json")
    fake_report(path, records)
    ok = run.check_suite(ref, 0, path)
    assert ok["attempted"] == len(records) and ok["failed"] == 0
    records[5]["verdict"] = "FAIL" if records[5]["verdict"] != "FAIL" \
        else "PASS"
    fake_report(path, records)
    assert run.check_suite(ref, 0, path)["failed"] == 1
    # a nonzero exit fails every record, however the report reads
    assert run.check_suite(ref, 1, path)["failed"] == len(records)


def test_mutated_axiom_result_is_counted_as_failed(tmp_path):
    ref = REFERENCE["fgl-axioms"]
    shapes = copy.deepcopy(ref["shapes"])
    path = str(tmp_path / "axioms.json")
    with open(path, "w") as fh:
        json.dump(shapes, fh)
    assert run.check_axioms(ref, 0, path)["failed"] == 0
    shapes[0]["terms"] += 1
    with open(path, "w") as fh:
        json.dump(shapes, fh)
    assert run.check_axioms(ref, 0, path)["failed"] == 1


def namespace_snapshot():
    import morava
    out = {}
    for ns in [morava] + [getattr(morava, m) for m in tracer.MODULES]:
        for name, obj in vars(ns).items():
            out[(ns.__name__, name)] = obj
    for short, classes in tracer.METHODS.items():
        mod = getattr(morava, short)
        for cls_name in classes:
            for name, obj in vars(getattr(mod, cls_name)).items():
                out[(mod.__name__, cls_name, name)] = obj
    return out


def test_tracer_restores_every_wrapped_name(tmp_path, monkeypatch):
    from morava import cli
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    before = namespace_snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.build_fgl_cached is not before[("morava.cli",
                                                   "build_fgl_cached")]
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "prop-3.2-n1", "--p", "2"]) == 0
    finally:
        tr.uninstall()
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tr.calls["cli.Builder.run"] == 1
    assert tr.calls["fgl.solve_log"] > 0
    assert tr.calls["padic.PadicContext.mul"] > 0
    assert len(tr.records) == 1 and tr.records[0]["attempts"] >= 1


def test_probe_rate_and_normalization():
    probe = run.Probe(min(os.sched_getaffinity(0)))
    try:
        time.sleep(0.3)
        rate = probe.rate()
    finally:
        probe.close()
    assert rate > 0 and probe.proc.returncode is not None
    assert run.normalized(2.0, run.REF_RATE) == 2.0
    assert run.normalized(2.0, run.REF_RATE / 2) == 1.0


def shrunk(monkeypatch):
    """Shrink every workload: the (p=2, n=1) shard of the suite, the
    height-3 axiom shape, one set-up pass and one measured pass."""
    monkeypatch.setattr(run, "SUITE_ARGV",
                        ("verify", "paper-suite", "--p", "2", "--n", "1"))
    monkeypatch.setattr(run, "AXIOM_SHAPES", ((2, 3, 4, 12, 24),))
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_PASSES", 1)
    ref = copy.deepcopy(REFERENCE)
    for name in ("paper-suite", "paper-suite-cold"):
        ref[name]["records"] = [r for r in ref[name]["records"]
                                if (r["params"].get("p"),
                                    r["params"].get("n")) == (2, 1)]
    ref["fgl-axioms"]["shapes"] = [s for s in ref["fgl-axioms"]["shapes"]
                                   if s["shape"] == [2, 3, 4, 12]]
    return ref


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric(workload, monkeypatch, capsys):
    ref = shrunk(monkeypatch)
    for trace, tier in ((0, "end_to_end"), (1, "per_layer")):
        res = run.run_workload(workload, 3, 0, trace, ref, SPEC)
        assert res["correct"], res
        assert res["attempted"] > 0 and res["failed"] == 0
        assert sorted(res["metrics"]) == sorted(m["name"]
                                                for m in SPEC[tier])
        for m in SPEC[tier]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    got = {k: v["value"] for k, v in res["metrics"].items()}
    out = capsys.readouterr().out
    assert "failed_share" in out and '"nproc"' in out
    if workload == "fgl-axioms":
        bypassed = [k for k in got if k.startswith(
            ("cli.", "report.", "groupcoh.", "euler.", "localize.",
             "series.weierstrass", "series.golden", "fgl.cache.",
             "fgl.formal_sum"))]
        assert bypassed and all(got[k] == 0 for k in bypassed), got
        assert got["series.ms_eval.calls"] > 0
        assert got["fgl.check_associativity.s"] > 0
    else:
        assert got["cli.records"] == len(ref[workload]["records"])
        assert got["series.weierstrass_prepare.calls"] > 0
        assert got["groupcoh.build_cohring.calls"] > 0
        assert got["report.records_changed"] == 0
    if workload == "paper-suite-cold":
        assert got["fgl.cache.hits"] == 0 and got["fgl.cache.misses"] > 0
    if workload == "paper-suite":
        assert got["fgl.cache.hits"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits nonzero and
    prints no result."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not os.path.exists(tmp_path / ".perfbench-work")
