"""Acceptance battery: one test per published criterion, one verdict line
each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the tests are self-contained and order-independent.  The heavy
variants (rank-81 basis walks, the height-3 localized model, the order-16
p^2-series congruence) carry the `large` marker but run in a plain
`pytest` call as well.

Degree caps and starting precisions come from the junk-budget model: a
depth-t probe against a degree-d relation needs caps of
d + t * p^{n(k-1)} (p^n - 1), and past height 1 also d + (D+1)(d-1) + 1 so
valuation-0 relation tails clear the window.  Starting precisions are the
measured fixed points of the adaptive retry (any higher value gives the
same verdicts; lower ones only cost extra retries).
"""

import hashlib
import json
import time
from types import SimpleNamespace

import pytest

from morava import cli
from morava.cli import Builder, caps_for
from morava.euler import verify_restriction_vanishing
from morava.fgl import (check_associativity, check_commutativity,
                        check_integrality, check_pk_congruence,
                        check_unitality)
from morava.groupcoh import AbelianPGroup, build_cohring


# sha256 of the `verify paper-suite` report
REPORT_SHA256 = \
    "d1125b271627d7bac716623f8cf06e80ac3144349b833f9978ffeb6f48eff825"


def criterion(num, desc, ok):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def fresh_builder(N=16):
    return Builder(SimpleNamespace(cache_dir=None, N_req=N))


# Shapes for the axiom battery: y-cap, v-cap, and the measured precision
# fixed point for checks at full cap.
AXIOM_SHAPES = (
    (2, 1, 1, 32, 59),
    (3, 1, 1, 32, 33),
    (5, 1, 1, 32, 25),
    (2, 2, 6, 16, 33),
    (3, 2, 6, 12, 24),
    (2, 3, 4, 12, 24),
)


@pytest.fixture(scope="module")
def axiom_laws():
    laws = {}
    for p, n, D, M, N in AXIOM_SHAPES:
        t0 = time.monotonic()
        fgl = fresh_builder(N).fgl(p, n, D, M)
        laws[(p, n)] = (fgl, time.monotonic() - t0)
    return laws


def test_criterion_1_fgl_axioms(axiom_laws):
    ok = True
    for p, n, D, M, N in AXIOM_SHAPES:
        fgl, build_secs = axiom_laws[(p, n)]
        cap = min(M, 32)
        u_ok, _ = check_unitality(fgl, cap=cap)
        c_ok, _ = check_commutativity(fgl, cap=cap)
        a_ok, _ = check_associativity(fgl, cap=cap)
        i_ok = check_integrality(fgl.two_var(cap, cap, tcap=cap))
        good = u_ok and c_ok and a_ok and i_ok and build_secs < 60.0
        if not good:
            print("  shape (%d,%d): unit=%s comm=%s assoc=%s integral=%s "
                  "build=%.1fs" % (p, n, u_ok, c_ok, a_ok, i_ok, build_secs))
        ok = ok and good
    criterion(1, "group-law axioms and integrality to degree min(M, 32) "
                 "at six (p, n) shapes, builds under 60 s", ok)


def test_criterion_2_pk_congruence(axiom_laws):
    cases = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1), (5, 1, 1),
             (3, 2, 1)]
    ok = True
    for p, n, k in cases:
        fgl, _ = axiom_laws[(p, n)]
        got, wit = check_pk_congruence(fgl, fgl.m_series(p ** k), k)
        if not got:
            print("  (%d,%d,%d): %s" % (p, n, k, wit))
        ok = ok and got
    criterion(2, "p^k-series leading-term congruence, zero tolerance, "
                 "six instances", ok)


@pytest.mark.large
def test_criterion_2_pk_congruence_large():
    fgl = fresh_builder(33).fgl(2, 2, 6, 17)
    got, wit = check_pk_congruence(fgl, fgl.m_series(4), 2)
    criterion(2, "p^k-series congruence at (2, 2, 2) [large]", got)


def test_criterion_3_ranks_and_freeness(tmp_path):
    report = tmp_path / "l24.json"
    code = cli.main(["verify", "lemma-2.4", "--report", str(report)])
    doc = json.loads(report.read_text())
    checks = doc["checks"]
    ranks = [c for c in checks if c["check_id"] == "module-rank"]
    frees = [c for c in checks if c["check_id"] == "free-over-subring"]
    ok = (code == 0 and len(ranks) == 16 and len(frees) == 8
          and all(c["verdict"] == "PASS" for c in checks))
    criterion(3, "module ranks |A|^n and |Ker q|^n with invertible "
                 "change of basis, full (p, n, A) grid", ok)


RESTRICTION_GRID = [(p, n, exps)
                    for p in (2, 3) for n in (1, 2)
                    for exps in ((1,), (2,), (1, 1), (2, 1))]


def _restriction_ok(p, n, exps):
    probe = 2 if n == 1 else 1
    caps = caps_for(p, n, exps, 1, probe)
    bld = fresh_builder()

    def mk(f):
        ring = build_cohring(AbelianPGroup(p, exps), f, caps=caps)

        def factory(sub, f=f):
            sc = caps_for(p, n, sub.exps, 1, probe)
            return build_cohring(sub, f, caps=sc if sc else None)

        return verify_restriction_vanishing(ring, ring_factory=factory,
                                            probe_depth=probe)

    rec = bld.run(p, n, 1, max(caps), mk)
    subs = rec["witness"].get("subgroups", [])
    exact = all(s["total_restriction_exact_zero"]
                and s["reduced_restriction_exact_zero"] for s in subs)
    return rec["verdict"] == "PASS" and exact and subs


def test_criterion_4_restriction_vanishing():
    heavy = (3, 2, (2, 1))
    ok = True
    for p, n, exps in RESTRICTION_GRID:
        if (p, n, exps) == heavy:
            continue
        good = _restriction_ok(p, n, exps)
        if not good:
            print("  restriction failed at p=%d n=%d exps=%s"
                  % (p, n, exps))
        ok = ok and good
    criterion(4, "Euler classes restrict to exact zero on every index-p "
                 "subgroup, 15 of 16 grid points", ok)


@pytest.mark.large
def test_criterion_4_restriction_vanishing_heavy():
    criterion(4, "restriction vanishing for the order-27 group at height "
                 "2 [large]", _restriction_ok(3, 2, (2, 1)))


def test_criterion_5_unit_divisibility():
    from morava.euler import verify_unit_divisibility
    ok = True
    for p in (3, 5):
        for n in (1, 2):
            depth = 4 if n == 1 else 2
            caps = caps_for(p, n, (1,), 1, depth)
            bld = fresh_builder()
            for m in range(1, p):

                def mk(f, m=m):
                    ring = build_cohring(AbelianPGroup(p, (1,)), f,
                                         caps=caps)
                    return verify_unit_divisibility(ring, m, depth=depth)

                rec = bld.run(p, n, 1, max(caps), mk)
                wit = rec["witness"]
                good = (rec["verdict"] == "PASS"
                        and wit["series_identity"]
                        and wit["ring_undo"] and wit["ring_divisibility"]
                        and wit["s"] * m % p == 1)
                if not good:
                    print("  unit divisibility failed at p=%d n=%d m=%d: %s"
                          % (p, n, m, wit))
                ok = ok and good
    criterion(5, "[s]([m](y)) = y with explicit divisibility witnesses, "
                 "all m, p in {3, 5}, n in {1, 2}", ok)


def _digits_ok(checks):
    return all(c["precision_loss"].get("digits_lost", 0) <= 8
               for c in checks)


def test_criterion_6_height_drop(tmp_path):
    r1 = tmp_path / "p32.json"
    c1 = cli.main(["verify", "prop-3.2", "--report", str(r1)])
    d1 = json.loads(r1.read_text())
    r2 = tmp_path / "p32n1.json"
    c2 = cli.main(["verify", "prop-3.2-n1", "--report", str(r2)])
    d2 = json.loads(r2.read_text())
    ok = (c1 == 0 and c2 == 0
          and [c["params"]["p"] for c in d1["checks"]] == [2, 3]
          and [c["params"]["p"] for c in d2["checks"]] == [2, 3, 5]
          and all(c["verdict"] == "PASS"
                  for c in d1["checks"] + d2["checks"])
          and all(c["witness"]["unit_series_constant_term_one"]
                  for c in d1["checks"])
          and _digits_ok(d1["checks"]) and _digits_ok(d2["checks"]))
    criterion(6, "two-term p-series identity mod I and explicit localized "
                 "inverses at heights 2 and 1, precision loss within 8 "
                 "digits", ok)


@pytest.mark.large
def test_criterion_6_height_drop_large(tmp_path):
    report = tmp_path / "p32L.json"
    code = cli.main(["verify", "prop-3.2", "--large", "--p", "2", "--n",
                     "3", "--report", str(report)])
    doc = json.loads(report.read_text())
    ok = (code == 0 and len(doc["checks"]) == 1
          and doc["checks"][0]["verdict"] == "PASS"
          and _digits_ok(doc["checks"]))
    criterion(6, "height-drop unit at (2, 3) [large]", ok)


def test_criterion_7_localized_nonvanishing(tmp_path):
    report = tmp_path / "p33.json"
    t0 = time.monotonic()
    code = cli.main(["verify", "prop-3.3", "--report", str(report)])
    elapsed = time.monotonic() - t0
    doc = json.loads(report.read_text())
    by_key = {(c["params"]["p"], c["params"]["n"], c["params"]["r"]): c
              for c in doc["checks"]}
    evid = [(2, 1, 1), (3, 1, 1), (2, 2, 2)]
    ok = code == 0 and elapsed < 300.0
    for key in evid:
        c = by_key.get(key)
        good = (c is not None and c["verdict"] == "EVIDENCE"
                and len(c["witness"]["powers"]) == 8
                and all(e["zero_to_depth"] is False
                        for e in c["witness"]["powers"]))
        ok = ok and good
    neg = by_key.get((2, 1, 2))
    ok = ok and neg is not None and neg["verdict"] == "PASS" \
        and neg["witness"]["least_zero_power"] >= 1
    criterion(7, "Euler-power nonvanishing to t = 8 within the height, "
                 "finite vanishing above it, under 5 minutes", ok)


def test_criterion_8_quotient_transfer(tmp_path):
    report = tmp_path / "c34.json"
    code = cli.main(["verify", "cor-3.4", "--report", str(report)])
    doc = json.loads(report.read_text())
    groups = [c["params"]["group"] for c in doc["checks"]]
    ok = (code == 0 and groups == ["4", "4,2", "9"]
          and all(c["verdict"] == "PASS" for c in doc["checks"])
          and all(c["witness"]["factorwise_total_match"]
                  and c["witness"]["pullback_total_match"]
                  for c in doc["checks"]))
    criterion(8, "quotient Euler classes pull back to the full Euler "
                 "class for C_4, C_4xC_2, C_9", ok)


def test_criterion_9_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ca = cli.main(["verify", "paper-suite", "--cache",
                   str(tmp_path / "cache"), "--report", str(a)])
    cb = cli.main(["verify", "paper-suite", "--cache",
                   str(tmp_path / "cache"), "--report", str(b)])
    same = a.read_bytes() == b.read_bytes()
    # the pinned digest catches a change that moves every run's bytes alike
    pinned = hashlib.sha256(a.read_bytes()).hexdigest() == REPORT_SHA256
    doc = json.loads(a.read_text())
    ok = (ca == 0 and cb == 0 and same and pinned
          and doc["summary"]["counts"]["FAIL"] == 0
          and doc["summary"]["counts"]["PASS"] >= 12)
    criterion(9, "two paper-suite runs produce byte-identical reports", ok)
