"""End-to-end runs of the command-line front end, in process via main().

Everything here uses a per-test working directory so default report and
cache paths never leak between tests.
"""

import hashlib
import json
import os
from types import SimpleNamespace

import pytest

from morava import cli
from morava.euler import total_euler
from morava.fgl import FormalGroupLaw, build_fgl
from morava.groupcoh import AbelianPGroup, build_cohring
from morava.padic import PrecisionError
from morava.report import make_check
from morava.series import golden_load


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def run_cli(argv):
    return cli.main(argv)


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "lemma-9.9"])
    assert exc.value.code == 2


def test_composite_p_rejected(capsys):
    assert run_cli(["pseries", "--p", "4", "--k", "1"]) == 2
    assert "prime" in capsys.readouterr().err


def test_bad_group_descriptor_rejected(capsys):
    assert run_cli(["euler", "--group", "4,x"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_group_orders_must_match_p(capsys):
    assert run_cli(["euler", "--group", "9", "--p", "2"]) == 2
    err = capsys.readouterr().err
    assert "power" in err


def test_pseries_k0_prints_y(capsys):
    assert run_cli(["pseries", "--k", "0"]) == 0
    assert capsys.readouterr().out.strip() == "y"


def test_pseries_22_leading_term_line(capsys):
    assert run_cli(["pseries", "--p", "2", "--n", "2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "leading reduced term u^3y^4 mod (2, v_1, y^5)" in out
    # the two-term congruence shape: 2y + v_1 y^2 + ...
    lines = out.strip().splitlines()
    assert lines[0] == "2*y"
    assert lines[1] == "v_1*y^2"


def test_pseries_congruence_flag(capsys):
    code = run_cli(["pseries", "--p", "3", "--n", "1", "--k", "1",
                    "--check-congruence"])
    assert code == 0
    assert "congruence PASS at (p, n, k) = (3, 1, 1)" in \
        capsys.readouterr().out


def test_pseries_low_ydeg_raised_with_warning(capsys):
    assert run_cli(["pseries", "--p", "2", "--k", "1", "--ydeg", "1"]) == 0
    captured = capsys.readouterr()
    assert "raised to 3" in captured.err
    assert "y^2" in captured.out


def test_pseries_gives_up_when_precision_never_stabilizes(monkeypatch,
                                                         capsys):
    def starved(self, m):
        raise PrecisionError("starved")

    monkeypatch.setattr(FormalGroupLaw, "m_series", starved)
    assert run_cli(["pseries", "--p", "2", "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: precision did not stabilize" in captured.err
    assert captured.out == ""


def test_pseries_golden_roundtrip(tmp_path, capsys):
    path = tmp_path / "p2.golden"
    assert run_cli(["pseries", "--p", "2", "--n", "1", "--k", "1",
                    "--ydeg", "6", "--golden-out", str(path)]) == 0
    loaded = golden_load(path.read_text())
    assert loaded.ctx.p == 2 and loaded.ctx.n == 1
    assert loaded.M == 6
    # [2](y) = 2y + ... with leading u y^2 mod 2
    assert loaded.c[1].t and loaded.c[2].t


def test_euler_prints_both_classes(capsys):
    assert run_cli(["euler", "--group", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "total Euler class (group 2,2, p=2, n=1):" in out
    assert "reduced Euler class (group 2,2, p=2, n=1):" in out
    assert "y1" in out or "y2" in out


def test_euler_total_only(capsys):
    assert run_cli(["euler", "--group", "3", "--total"]) == 0
    out = capsys.readouterr().out
    assert "total Euler class" in out
    assert "reduced Euler class" not in out


def test_euler_needs_group(capsys):
    assert run_cli(["euler"]) == 2
    assert "--group" in capsys.readouterr().err


def test_euler_prints_reporting_precision_only():
    # `euler --group 4,2 --ydeg 3` retries onto a law at N=37 or N=45
    # depending on the retry schedule; both must print the same digits.
    group = AbelianPGroup(2, (2, 1))
    every, shown = {}, {}
    for N in (37, 45):
        ring = build_cohring(group, build_fgl(2, 1, N=N, D=1, M=5),
                             caps=(5, 3))
        total = total_euler(ring)
        every[N] = cli.elem_lines(total, N)
        shown[N] = cli.elem_lines(total, 16)
    assert every[37] != every[45]
    assert shown[37] == shown[45]
    assert "  y1*y2: 395376*u^-1" in shown[37]


def test_verify_height_drop_unit_rejects_height_one(capsys):
    assert run_cli(["verify", "prop-3.2", "--p", "2", "--n", "1"]) == 2
    assert "prop-3.2-n1" in capsys.readouterr().err


def test_verify_restriction_group_example(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    report = tmp_path / "r.json"
    code = run_cli(["verify", "lemma-2.6", "--group", "2,2",
                    "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    sub_lines = [ln for ln in out.splitlines()
                 if ln.strip().startswith("subgroup")]
    assert len(sub_lines) == 3
    assert all(ln.endswith("PASS") for ln in sub_lines)
    doc = json.loads(report.read_text())
    assert doc["schema"] == "report_v1"
    assert doc["summary"]["overall"] == "PASS"
    assert _checks_digest(report) == \
        "888641b372c6cc2e103654dbdadb8504cc3dcf844a49a18d5af068787aa7c457"


def test_verify_writes_default_report(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    assert run_cli(["verify", "cor-3.4", "--p", "3"]) == 0
    assert os.path.exists("morava-report.json")
    doc = json.loads(open("morava-report.json").read())
    assert doc["meta"]["config"]["suite"] == "cor-3.4"
    assert [c["check_id"] for c in doc["checks"]] == \
        ["elementary-quotient-transfer"]
    assert _checks_digest(tmp_path / "morava-report.json") == \
        "ff17b80941374172de7323b027ed13a0831b6b8d734176295a656ac5df019306"


@pytest.mark.parametrize("suite,group", [("prop-3.3", "2"),
                                         ("cor-3.4", "4,2")])
def test_verify_group_selects_one_instance(suite, group, capsys):
    # --group infers its prime, so rows of other primes are skipped
    assert run_cli(["verify", suite, "--group", group]) == 0
    doc = json.loads(open("morava-report.json").read())
    assert [c["params"]["p"] for c in doc["checks"]] == [2]


def test_verify_no_matching_instance_exits_2(capsys):
    assert run_cli(["verify", "cor-3.4", "--p", "7"]) == 2
    assert "no cor-3.4 instance" in capsys.readouterr().err


def test_verify_height_one_suite_rejects_other_heights(capsys):
    assert run_cli(["verify", "prop-3.2-n1", "--n", "2"]) == 2
    assert "no prop-3.2-n1 instance matches" in capsys.readouterr().err


def test_run_returns_starved_record_at_guard_limit():
    # the guard pad doubles until N would pass GUARD_LIMIT over the request
    bld = cli.Builder(SimpleNamespace(cache_dir=None, N_req=16))
    built = []

    def starved(f):
        built.append(f.ctx.N)
        return make_check("x", "sec-2.1", {}, "INDETERMINATE",
                          {"needed_extra": 1})

    rec = bld.run(2, 1, 1, 3, starved)
    assert rec["verdict"] == "INDETERMINATE"
    assert built == [16, 24, 40, 72, 136, 264, 520]


def test_verify_gives_up_when_precision_never_stabilizes(monkeypatch,
                                                        capsys):
    def starved(*args, **kwargs):
        raise PrecisionError("starved")

    monkeypatch.setattr(cli, "verify_elementary_quotient_transfer", starved)
    assert run_cli(["verify", "cor-3.4", "--p", "3"]) == 1
    captured = capsys.readouterr()
    assert "error: precision did not stabilize" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_report_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", "prop-3.3", "--p", "2", "--n", "1",
                    "--report", str(a)]) == 0
    assert run_cli(["verify", "prop-3.3", "--p", "2", "--n", "1",
                    "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cache_file_created_and_reused(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["pseries", "--p", "2", "--k", "1", "--ydeg", "6",
            "--cache", str(cache)]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    files = list(cache.glob("fgl-p2-n1-*.txt"))
    assert files
    stamp = files[0].stat().st_mtime_ns
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first
    assert files[0].stat().st_mtime_ns == stamp


def test_corrupt_cache_file_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["pseries", "--p", "2", "--k", "1", "--ydeg", "6",
            "--cache", str(cache)]
    assert run_cli(args) == 0
    good = capsys.readouterr().out
    files = list(cache.glob("fgl-p2-n1-*.txt"))
    assert files
    files[0].write_text("")
    assert run_cli(args) == 0
    assert capsys.readouterr().out == good
    assert files[0].read_text() != ""


def test_exit_code_one_on_failing_record(monkeypatch, capsys):
    bad = make_check("elementary-quotient-transfer", "cor-3.4",
                     {"p": 2, "n": 1}, "FAIL", {"why": "forced"})

    def fake(cfg, bld, p, n):
        return [bad]

    monkeypatch.setitem(cli.SUITE_MAKERS, "cor-3.4", fake)
    assert run_cli(["verify", "cor-3.4"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "1 FAIL" in out


def test_indeterminate_flagged_but_passes(monkeypatch, capsys):
    rec = make_check("elementary-quotient-transfer", "cor-3.4",
                     {"p": 2, "n": 1}, "INDETERMINATE", {"reason": "capped"})
    monkeypatch.setitem(cli.SUITE_MAKERS, "cor-3.4",
                        lambda cfg, bld, p, n: [rec])
    assert run_cli(["verify", "cor-3.4"]) == 0
    out = capsys.readouterr().out
    assert "flagged: 1 INDETERMINATE" in out


def test_paper_suite_p2_shape(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    report = tmp_path / "ps.json"
    code = run_cli(["verify", "paper-suite", "--p", "2",
                    "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    counts = doc["summary"]["counts"]
    assert counts["FAIL"] == 0
    assert counts["PASS"] >= 12
    evidence = [c for c in doc["checks"] if c["verdict"] == "EVIDENCE"]
    assert evidence and all(c["check_id"] == "localized-nonvanishing"
                            for c in evidence)
    anchors = {c["anchor"] for c in doc["checks"]}
    assert {"sec-2.1", "lemma-2.4", "lemma-2.6",
            "prop-3.2", "prop-3.3", "cor-3.4"} <= anchors
    # config echo carries no filesystem paths, so reports stay comparable
    assert "report" not in doc["meta"]["config"]
    assert "cache" not in doc["meta"]["config"]
    assert _checks_digest(report) == \
        "e58210dde5cec7fc93ad4cd700b07a7dc4722ebad27644bbb8d980908ace284f"


def _checks_digest(path):
    checks = json.loads(path.read_text())["checks"]
    return hashlib.sha256(
        json.dumps(checks, sort_keys=True).encode()).hexdigest()


def test_inverted_prime_records_frozen(tmp_path, monkeypatch):
    # checks of `verify prop-3.2-n1` on a fresh law cache, pinned to the
    # digest they had when the height-1 model was its own ring type
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    assert run_cli(["verify", "prop-3.2-n1"]) == 0
    assert _checks_digest(tmp_path / "morava-report.json") == \
        "856a3648f4afea4e18de535b256c12f444128b1e5c89f4c3bbd1ac902e1467c2"


def test_lemma_2_6_large_p3_records_frozen(tmp_path, monkeypatch):
    # checks of `verify lemma-2.6 --p 3 --n 1 --group 9,3 --large` on a
    # fresh law cache.  Ring products sum raw products before reducing, so
    # the divisibility record meets a partial sum below the precision
    # floor at N=33 and settles at N=41 (33 when each pair was reduced on
    # its own); both verdicts and witnesses are unchanged.
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    assert run_cli(["verify", "lemma-2.6", "--p", "3", "--n", "1",
                    "--group", "9,3", "--large"]) == 0
    report = tmp_path / "morava-report.json"
    checks = json.loads(report.read_text())["checks"]
    assert [(c["check_id"], c["verdict"], c["precision_loss"]["N"])
            for c in checks] == [("restriction-vanishing", "PASS", 24),
                                 ("mutual-euler-divisibility", "PASS", 41)]
    assert _checks_digest(report) == \
        "28dd4390bb3a72d7723ca1ac1c52b15bef44ecd7adf8c068d47a6cb6a7db6700"


def test_law_cache_changes_no_verdict_or_witness(tmp_path, monkeypatch):
    # the cache may move the reported working precision N, nothing else
    docs = []
    for cache in (str(tmp_path / "cache"), ""):
        monkeypatch.setenv("MORAVA_CACHE_DIR", cache)
        report = tmp_path / ("cached.json" if cache else "uncached.json")
        assert run_cli(["verify", "lemma-2.4", "--p", "3", "--n", "1",
                        "--report", str(report)]) == 0
        docs.append(json.loads(report.read_text()))
    cached, uncached = docs
    assert list((tmp_path / "cache").glob("fgl-p3-n1-*.txt"))
    assert cached["summary"] == uncached["summary"]
    assert len(cached["checks"]) == len(uncached["checks"]) == 6
    for a, b in zip(cached["checks"], uncached["checks"]):
        a.pop("precision_loss")
        b.pop("precision_loss")
        assert a == b


def _lemma_2_4_checks(cache, report):
    assert run_cli(["verify", "lemma-2.4", "--p", "3", "--n", "1",
                    "--cache", str(cache), "--report", str(report)]) == 0
    return json.loads(report.read_text())["checks"]


@pytest.mark.parametrize("edit", ["header", "scalar"])
def test_damaged_cache_file_is_rebuilt(tmp_path, edit):
    # a cache file naming other parameters, or holding a scalar outside the
    # PadicScaled invariants (here prec = N + 40), is a miss: the run
    # rebuilds and rewrites it and gives the checks of a fresh cache
    cache = tmp_path / "cache"
    fresh = _lemma_2_4_checks(cache, tmp_path / "fresh.json")
    path = cache / "fgl-p3-n1-N16-D1-M5.txt"
    good = path.read_text()
    lines = good.split("\n")
    if edit == "header":
        lines[0] = lines[0].replace("N=16", "N=17")
    else:
        fields = lines[1].split("|")
        assert fields[-1] == "16"
        fields[-1] = "56"
        lines[1] = "|".join(fields)
    path.write_text("\n".join(lines))
    assert _lemma_2_4_checks(cache, tmp_path / "again.json") == fresh
    assert path.read_text() == good
