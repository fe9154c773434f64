"""End-to-end runs of the command-line front end, in process via main().

Everything here uses a per-test working directory so default report and
cache paths never leak between tests.
"""

import collections
import hashlib
import json
import os
from types import SimpleNamespace

import pytest

from morava import cli, euler, fgl, groupcoh
from morava.euler import total_euler
from morava.fgl import FormalGroupLaw, build_fgl, build_fgl_cached
from morava.groupcoh import AbelianPGroup, build_cohring
from morava.padic import PrecisionError
from morava.report import make_check
from morava.series import golden_dump, golden_load


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


@pytest.mark.parametrize("argv", [
    ["pseries", "--p", "2", "--k", "1", "--report", "x"],
    ["pseries", "--group", "2"],
    ["euler", "--group", "2", "--t", "3"],
    ["euler", "--group", "2", "--large"],
    ["verify", "prop-3.3", "--p", "2", "--n", "1", "--ydeg", "3"],
])
def test_flags_a_verb_never_reads_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    # rank 2 exceeds height 1: both classes vanish to every sound digit
    assert run_cli(["euler", "--group", "2,2"]) == 0
    assert capsys.readouterr().out == (
        "total Euler class (group 2,2, p=2, n=1) modulo 2^4:\n  0\n"
        "reduced Euler class (group 2,2, p=2, n=1) modulo 2^4:\n  0\n")


def test_euler_total_only(capsys):
    assert run_cli(["euler", "--group", "3", "--total"]) == 0
    out = capsys.readouterr().out
    assert "total Euler class" in out
    assert "reduced Euler class" not in out


def test_euler_needs_group(capsys):
    assert run_cli(["euler"]) == 2
    assert "--group" in capsys.readouterr().err


def test_euler_prints_reporting_precision_only():
    # a retry can end a class on a law at N=37 or at N=45.  At the default
    # caps of `euler --group 4,2` and `--group 4`, junk-sound to 4 digits,
    # the two print the same text, though their trusted digits differ.
    for exps, text in (((2, 1), ["  0"]),
                       ((2,), ["  y1: 2", "  y1^2: u", "  y1^3: 6*u^2"])):
        group = AbelianPGroup(2, exps)
        caps = cli.caps_for(2, 1, exps, 1, 4)
        depth = cli.sound_depth(2, 1, exps, 1, caps)
        assert depth == 4
        every, shown = {}, {}
        for N in (37, 45):
            law = build_fgl(2, 1, N=N, D=1, M=max(caps))
            total = total_euler(build_cohring(group, law, caps=caps))
            every[N] = cli.elem_lines(total, N, 2 ** len(exps) - 1)
            shown[N] = cli.elem_lines(total, depth, 2 ** len(exps) - 1)
        assert every[37] != every[45]
        assert shown[37] == shown[45] == text


def test_coeff_text_reads_modulo_depth():
    ctx = build_fgl(2, 1, N=16, D=1, M=3).ctx
    assert cli.coeff_text(ctx, ctx.from_int(6), 16, -2) == "6*u^-2"
    assert cli.coeff_text(ctx, ctx.from_int(6), None, -2, 2) == "2*u^-2"
    assert cli.coeff_text(ctx, ctx.from_int(8), None, 0, 3) == "0"
    assert cli.coeff_text(ctx, ctx.from_int(8), None, 0, 4) == "8"


@pytest.mark.parametrize("argv", [["euler", "--group", "4,2"],
                                  ["euler", "--group", "2,2", "--n", "2"]])
def test_euler_text_same_with_cache_on_and_off(argv, tmp_path, monkeypatch,
                                               capsys):
    _same_text_cache_cold_warm_off(argv, tmp_path, monkeypatch, capsys)


# With the cache off these laws are built at N=16, where some printed
# scalars trust fewer than 16 digits; printing raises for the shortfall
# and the retry supplies it.
@pytest.mark.parametrize("argv", [["pseries", "--p", "5", "--n", "1",
                                   "--k", "2"],
                                  ["pseries", "--p", "2", "--n", "1",
                                   "--k", "3"]])
def test_pseries_text_same_with_cache_on_and_off(argv, tmp_path,
                                                 monkeypatch, capsys):
    _same_text_cache_cold_warm_off(argv, tmp_path, monkeypatch, capsys)


def _same_text_cache_cold_warm_off(argv, tmp_path, monkeypatch, capsys):
    outs = []
    for cache in (str(tmp_path / "cache"), str(tmp_path / "cache"), ""):
        monkeypatch.setenv("MORAVA_CACHE_DIR", cache)
        assert run_cli(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


# Full stdout of the README p-series, of the [9]- and [25]-series at p = 3
# and 5 (T^9 and T^25 from the base-p power chains of fgl.solve_log) and of
# three Euler classes, each coordinate read modulo p^depth for the
# junk-sound depth of the caps.  At
# height 1 the rank-2 classes vanish to every such digit; at height 2 the
# coordinates carry v_1 and powers of u, with the total class's weights
# |exps| - (p^r - 1) and the reduced one's |exps| - (p^r - 1)/(p - 1).
PRINTED = [
    (["pseries", "--p", "2", "--n", "2", "--k", "1"], """\
2*y
v_1*y^2
2*v_1^2*y^3
(u^3 + 4*v_1^3)*y^4
(56178*u^3*v_1 + 37458*v_1^4)*y^5
leading reduced term u^3y^4 mod (2, v_1, y^5)
"""),
    (["pseries", "--p", "3", "--n", "2", "--k", "2"], """\
9*y
30*v_1*y^3
-2615087997*v_1^2*y^5
-1634426100*v_1^3*y^7
(19686*u^8 + 8301610*v_1^4)*y^9
(3971259333*u^8*v_1 - 1361296773*v_1^5)*y^11
(322161705*u^8*v_1^2 - 159283881*v_1^6)*y^13
32014737*u^8*v_1^3*y^15
(-5084119077147*u^16 - 14837732118*u^8*v_1^4)*y^17
(-1178271117*u^16*v_1 - 531802395*u^8*v_1^5)*y^19
(439654284*u^16*v_1^2 + 104301576*u^8*v_1^6)*y^21
-17918692425*u^16*v_1^3*y^23
(-10167979873968*u^24 + 4249967211*u^16*v_1^4)*y^25
(-16120376*u^24*v_1 - 182905461*u^16*v_1^5)*y^27
(-615881880*u^24*v_1^2 + 3064250169*u^16*v_1^6)*y^29
504318987*u^24*v_1^3*y^31
(-10544437798020*u^32 + 15245325*u^24*v_1^4)*y^33
(-64013903515773*u^32*v_1 - 13930097958*u^24*v_1^5)*y^35
(-420931701*u^32*v_1^2 + 98847117*u^24*v_1^6)*y^37
-36757737*u^32*v_1^3*y^39
(-6590223402588*u^40 + 14539197141*u^32*v_1^4)*y^41
(23522416742457*u^40*v_1 + 4161179142*u^32*v_1^5)*y^43
(6192765*u^40*v_1^2 + 13514223*u^32*v_1^6)*y^45
-1857720177*u^40*v_1^3*y^47
(-2636075968722*u^48 + 49087701*u^40*v_1^4)*y^49
(21752882427726*u^48*v_1 - 476160849*u^40*v_1^5)*y^51
(22068660418398*u^48*v_1^2 - 66810643317*u^40*v_1^6)*y^53
-87378759*u^48*v_1^3*y^55
(-683424622944*u^56 - 22567710*u^48*v_1^4)*y^57
(8868843651654*u^56*v_1 + 826793406*u^48*v_1^5)*y^59
(925035593391*u^56*v_1^2 + 1034325693*u^48*v_1^6)*y^61
-47456634*u^56*v_1^3*y^63
(-111579226596*u^64 + 4382105265*u^56*v_1^4)*y^65
(983950965504*u^64*v_1 + 664945848*u^56*v_1^5)*y^67
(132081452739*u^64*v_1^2 - 422471025*u^56*v_1^6)*y^69
-2941461630639*u^64*v_1^3*y^71
(-10460530350*u^72 + 807503904*u^64*v_1^4)*y^73
(-629928236610*u^72*v_1 + 569635767*u^64*v_1^5)*y^75
(-8557421351418*u^72*v_1^2 - 37831672971*u^64*v_1^6)*y^77
-365645579760*u^72*v_1^3*y^79
(u^80 - 1428866892*u^72*v_1^4)*y^81
leading reduced term u^80y^81 mod (3, v_1, y^82)
"""),
    (["pseries", "--p", "5", "--n", "1", "--k", "2"], """\
25*y
3130*u^4*y^5
-955202638671875*u^8*y^9
667112792187500*u^12*y^13
1984130468593750*u^16*y^17
-915106250015625*u^20*y^21
-3664062499*u^24*y^25
leading reduced term u^24y^25 mod (5, y^26)
"""),
    (["euler", "--group", "4,2"], """\
total Euler class (group 4,2, p=2, n=1) modulo 2^4:
  0
reduced Euler class (group 4,2, p=2, n=1) modulo 2^4:
  0
"""),
    (["euler", "--group", "3,3"], """\
total Euler class (group 3,3, p=3, n=1) modulo 3^4:
  0
reduced Euler class (group 3,3, p=3, n=1) modulo 3^4:
  0
"""),
    (["euler", "--group", "3,3", "--n", "2"], """\
total Euler class (group 3,3, p=3, n=2) modulo 3^2:
  y1^2*y2^6: -2
  y1^2*y2^8: 3*v_1
  y1^4*y2^4: -2
  y1^4*y2^6: -4*v_1
  y1^6*y2^2: -2
  y1^6*y2^4: -4*v_1
  y1^8*y2^2: 3*v_1
  y1^8*y2^8: -2*u^8
reduced Euler class (group 3,3, p=3, n=2) modulo 3^2:
  y1*y2^3: -1
  y1^3*y2: 1
  y1^5*y2^7: 4*u^8
  y1^7*y2^5: -4*u^8
"""),
]


@pytest.mark.parametrize("argv,out", PRINTED,
                         ids=[" ".join(argv) for argv, _ in PRINTED])
def test_printed_classes_frozen(argv, out, capsys, monkeypatch):
    # the default law cache, fresh in the test's directory; the p = 5
    # text is checked with the cache off above
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == out


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


def test_run_raises_past_guard_limit():
    # the guard pad doubles until N would pass GUARD_LIMIT over the request
    bld = cli.Builder(SimpleNamespace(cache_dir=None, N_req=16))
    built = []

    def starved(f):
        built.append(f.ctx.N)
        raise PrecisionError("starved", needed_extra=1)

    with pytest.raises(PrecisionError):
        bld.run(2, 1, 1, 3, starved)
    assert built == [16, 24, 40, 72, 136, 264, 520]


def _raise_once(fn, exc):
    """fn, except that its first call raises exc."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise exc
        return fn(*args, **kwargs)

    return wrapped


def _only_record(check_id):
    doc = json.loads(open("morava-report.json").read())
    recs = [c for c in doc["checks"] if c["check_id"] == check_id]
    assert len(recs) == 1
    return recs[0]


# One message per site whose text names neither digits nor precision.
@pytest.mark.parametrize("exc", [
    PrecisionError("zero verdict at depth 4 exceeds tracked cancellation "
                   "depth", needed_extra=2),
    PrecisionError("zero known only modulo p^2, verdict needs p^4",
                   needed_extra=2),
    PrecisionError("cannot invert a value known only to be divisible by "
                   "p^3"),
    PrecisionError("Weierstrass division did not settle within the "
                   "iteration budget"),
], ids=["cancellation-depth", "padic-zero", "invert", "weierstrass"])
def test_retry_reads_needed_extra_not_message(exc, monkeypatch, capsys):
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    monkeypatch.setattr(euler, "pullback", _raise_once(euler.pullback, exc))
    assert run_cli(["verify", "lemma-2.6", "--p", "2", "--n", "1",
                    "--group", "2"]) == 0
    rec = _only_record("restriction-vanishing")
    assert rec["verdict"] == "PASS"
    assert rec["precision_loss"]["N"] > 16


def test_nested_freeness_shortfall_retries_transfer(monkeypatch, capsys):
    # a starved freeness witness inside cor-3.4 reruns the whole record
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    argv = ["verify", "cor-3.4", "--p", "2", "--group", "4,2"]
    assert run_cli(argv + ["--cache", "plain"]) == 0
    plain = _only_record("elementary-quotient-transfer")
    monkeypatch.setattr(groupcoh, "_factor_block_unit",
                        _raise_once(groupcoh._factor_block_unit,
                                    PrecisionError("starved")))
    assert run_cli(argv + ["--cache", "patched"]) == 0
    rec = _only_record("elementary-quotient-transfer")
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["freeness"]["verdict"] == "PASS"
    assert rec["precision_loss"]["N"] > plain["precision_loss"]["N"]


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
    files = list(cache.glob("fgl-p2-n1-*.law"))
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
    files = list(cache.glob("fgl-p2-n1-*.law"))
    assert files
    files[0].write_text("")
    assert run_cli(args) == 0
    assert capsys.readouterr().out == good
    assert files[0].read_text() != ""


def test_empty_cache_flag_turns_the_cache_off(tmp_path, monkeypatch,
                                              capsys):
    # `--cache ""` turns the cache off, as an empty $MORAVA_CACHE_DIR does,
    # rather than falling through to $MORAVA_CACHE_DIR or .cache
    env = tmp_path / "env-cache"
    monkeypatch.setenv("MORAVA_CACHE_DIR", str(env))
    assert _verify_cfg("cor-3.4", "--cache", "").cache_dir == ""
    args = ["pseries", "--p", "2", "--k", "1", "--ydeg", "6"]
    assert run_cli(args + ["--cache", ""]) == 0
    off = capsys.readouterr().out
    assert not env.exists() and not (tmp_path / ".cache").exists()
    assert run_cli(args) == 0
    assert capsys.readouterr().out == off
    assert list(env.glob("fgl-p2-n1-*.law"))


def test_cache_file_off_the_grading_is_rebuilt(tmp_path, capsys):
    # a law file whose term carries a u-exponent the grading does not give
    # is refused, rebuilt in place, and the report is the clean one
    cache = tmp_path / "cache"
    clean, again = tmp_path / "clean.json", tmp_path / "again.json"
    args = ["verify", "prop-3.3", "--p", "2", "--n", "1", "--cache",
            str(cache)]
    assert run_cli(args + ["--report", str(clean)]) == 0
    files = [f for f in sorted(cache.glob("fgl-*.law"))
             if "\nFGLV1 " in f.read_text()]
    assert files
    good = [f.read_text() for f in files]
    for f, text in zip(files, good):
        key, head, first, rest = text.split("\n", 3)
        y, ue, tail = first.split("|", 2)
        assert (y, ue) == ("0,1", "0")
        f.write_text("\n".join([key, head, "|".join([y, "1", tail]), rest]))
    assert run_cli(args + ["--report", str(again)]) == 0
    assert again.read_bytes() == clean.read_bytes()
    assert [f.read_text() for f in files] == good


def _one_row_suite(monkeypatch, rec):
    """cor-3.4 as one row on a small law whose check returns rec."""
    row = cli.Row(2, 1, (2,), 1, 3, lambda f: rec, False)
    monkeypatch.setitem(cli.SUITE_ROWS, "cor-3.4", lambda cfg, p, n: [row])


def test_exit_code_one_on_failing_record(monkeypatch, capsys):
    _one_row_suite(monkeypatch, make_check(
        "elementary-quotient-transfer", "cor-3.4", {"p": 2, "n": 1}, "FAIL",
        {"why": "forced"}))
    assert run_cli(["verify", "cor-3.4"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "1 FAIL" in out


def test_indeterminate_flagged_but_passes(monkeypatch, capsys):
    _one_row_suite(monkeypatch, make_check(
        "elementary-quotient-transfer", "cor-3.4", {"p": 2, "n": 1},
        "INDETERMINATE", {"reason": "capped"}))
    assert run_cli(["verify", "cor-3.4"]) == 0
    out = capsys.readouterr().out
    assert "flagged: 1 INDETERMINATE" in out


def _verify_cfg(suite, *flags):
    return cli.RunConfig(cli.build_parser().parse_args(["verify", suite,
                                                        *flags]))


def _row_text(row):
    """p/n, the group's orders (- for a check of the law alone), D, M and
    whether the row is large."""
    group = ",".join(str(row.p ** k) for k in row.exps) if row.exps else "-"
    return "%d/%d %s D%d M%d%s" % (row.p, row.n, group, row.D, row.M,
                                   " large" if row.large else "")


class _ListingBuilder:
    """A Builder that builds no law and runs no check: a row's record is
    the (p, n, D, M) of its law and its check."""

    def __init__(self, cfg):
        pass

    def run(self, p, n, D, M, make):
        return (p, n, D, M, make)


# Every row of each suite at the default flags, in run order.
ROWS = {
    "lemma-2.4": [
        "2/1 2 D1 M3", "2/1 4 D1 M6", "2/1 4 D1 M6", "2/1 2,2 D1 M3",
        "2/1 4,2 D1 M6", "2/1 4,2 D1 M6",
        "2/2 2 D1 M11", "2/2 4 D1 M47", "2/2 4 D1 M47", "2/2 2,2 D1 M11",
        "2/2 4,2 D1 M47", "2/2 4,2 D1 M47",
        "3/1 3 D1 M5", "3/1 9 D1 M15", "3/1 9 D1 M15", "3/1 3,3 D1 M5",
        "3/1 9,3 D1 M15", "3/1 9,3 D1 M15",
        "3/2 3 D1 M26", "3/2 9 D1 M242", "3/2 9 D1 M242", "3/2 3,3 D1 M26",
        "3/2 9,3 D1 M242", "3/2 9,3 D1 M242"],
    "lemma-2.6": [
        "2/1 2 D1 M4", "2/1 2 D1 M6", "2/1 2 D1 M6", "2/1 4 D1 M8",
        "2/1 4 D1 M12", "2/1 2,2 D1 M4", "2/1 2,2 D1 M6", "2/1 4,2 D1 M8",
        "2/1 4,2 D1 M12",
        "2/2 2 D1 M11", "2/2 2 D1 M11", "2/2 2 D1 M11",
        "2/2 4 D1 M47 large", "2/2 4 D1 M47 large",
        "2/2 2,2 D1 M11 large", "2/2 2,2 D1 M11 large",
        "2/2 4,2 D1 M47 large", "2/2 4,2 D1 M47 large",
        "3/1 3 D1 M7", "3/1 3 D1 M11", "3/1 3 D1 M11", "3/1 3 D1 M11",
        "3/1 9 D1 M21", "3/1 9 D1 M33", "3/1 3,3 D1 M7", "3/1 3,3 D1 M11",
        "3/1 9,3 D1 M21 large", "3/1 9,3 D1 M33 large",
        "3/2 3 D1 M26", "3/2 3 D1 M26", "3/2 3 D1 M26", "3/2 3 D1 M26",
        "3/2 9 D1 M242 large", "3/2 3,3 D1 M26 large",
        "3/2 3,3 D1 M26 large", "3/2 9,3 D1 M242 large"],
    "prop-3.2-n1": ["2/1 2 D1 M24", "3/1 3 D1 M24", "5/1 5 D1 M24"],
    "prop-3.2": ["2/2 2 D6 M26", "3/2 3 D6 M66", "2/3 2 D4 M44 large"],
    "prop-3.3": ["2/1 2 D1 M10", "3/1 3 D1 M19", "2/2 2,2 D12 M28",
                 "2/1 2,2 D1 M9"],
    "cor-3.4": ["2/1 4 D1 M9", "2/1 4,2 D1 M9", "3/1 9 D1 M23"],
}

# The law checks of each paper-suite shard: [p^k]-series congruences, then
# the axiom battery.
LAW_ROWS = {
    (2, 1): ["2/1 - D1 M3", "2/1 - D1 M5", "2/1 - D1 M17"],
    (2, 2): ["2/2 - D6 M5", "2/2 - D6 M17 large", "2/2 - D6 M9"],
    (3, 1): ["3/1 - D1 M4", "3/1 - D1 M17"],
    (3, 2): ["3/2 - D6 M10", "3/2 - D6 M9"],
    (2, 3): ["2/3 - D4 M9", "2/3 - D4 M9"],
}


def test_suite_rows_listed_without_a_law():
    cfg = _verify_cfg("paper-suite")
    assert {suite: [_row_text(r) for r in rows_of(cfg, None, None)]
            for suite, rows_of in cli.SUITE_ROWS.items()} == ROWS
    assert {pn: [_row_text(r) for r in cli.law_rows(*pn)]
            for pn in LAW_ROWS} == LAW_ROWS


@pytest.mark.parametrize("large", [False, True])
def test_large_rows_run_only_under_large(large):
    cfg = _verify_cfg("paper-suite", *(["--large"] if large else []))
    for rows_of in cli.SUITE_ROWS.values():
        rows = rows_of(cfg, None, None)
        got = cli.run_rows(cfg, _ListingBuilder(cfg), rows, None, None)
        assert got == [(r.p, r.n, r.D, r.M, r.make) for r in rows
                       if large or not r.large]


@pytest.mark.parametrize("flags,count", [
    ((), 68), (("--large",), 96), (("--r", "2"), 30), (("--group", "4"), 16),
])
def test_filters_keep_the_law_checks(flags, count, monkeypatch):
    # counts of the paper-suite reports; the law checks have no group, so
    # --r and --group keep them, and only --large adds the height-3 shard
    monkeypatch.setattr(cli, "Builder", _ListingBuilder)
    got = cli.suite_records(_verify_cfg("paper-suite", *flags),
                            "paper-suite")
    assert len(got) == count
    law = [rec[:4] for rec in got
           if rec[4].func in (cli.congruence_check, cli.integrity_check)]
    want = [(2, 1, 1, 3), (2, 1, 1, 5), (2, 1, 1, 17), (2, 2, 6, 5),
            (2, 2, 6, 9), (3, 1, 1, 4), (3, 1, 1, 17), (3, 2, 6, 10),
            (3, 2, 6, 9)]
    if "--large" in flags:
        want[4:4] = [(2, 2, 6, 17)]
        want += [(2, 3, 4, 9), (2, 3, 4, 9)]
    assert law == want


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
    # fresh law cache: both pass, the divisibility record at N=33
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    assert run_cli(["verify", "lemma-2.6", "--p", "3", "--n", "1",
                    "--group", "9,3", "--large"]) == 0
    report = tmp_path / "morava-report.json"
    checks = json.loads(report.read_text())["checks"]
    assert [(c["check_id"], c["verdict"], c["precision_loss"]["N"])
            for c in checks] == [("restriction-vanishing", "PASS", 24),
                                 ("mutual-euler-divisibility", "PASS", 33)]
    assert _checks_digest(report) == \
        "dce1acb473beeb0a839223347c5981860ad548184151f49d622e0b2e4d6eba05"


def test_height_drop_p3_settles_at_n25(tmp_path, monkeypatch):
    # `verify prop-3.2 --p 3` on a fresh law cache: the two-term group sum
    # is solved through the logarithm and needs no two-variable law at the
    # full cap, so the record settles at N=25
    monkeypatch.delenv("MORAVA_CACHE_DIR", raising=False)
    assert run_cli(["verify", "prop-3.2", "--p", "3"]) == 0
    checks = json.loads((tmp_path / "morava-report.json").read_text())["checks"]
    assert [(c["check_id"], c["params"], c["verdict"],
             c["precision_loss"]["N"]) for c in checks] == \
        [("height-drop-unit", {"n": 2, "p": 3}, "PASS", 25)]


def test_nonvanishing_p2_n2_settles_at_n34_cache_off(tmp_path, monkeypatch):
    # `verify prop-3.3 --p 2 --n 2` with the cache off: the class needs the
    # law at caps (28, 28, 28), whose coefficients past the total cap are
    # not formed, so a shortfall among them no longer retries the law (the
    # full build raised and settled at N=50)
    monkeypatch.setenv("MORAVA_CACHE_DIR", "")
    assert run_cli(["verify", "prop-3.3", "--p", "2", "--n", "2"]) == 0
    checks = json.loads((tmp_path / "morava-report.json").read_text())["checks"]
    assert [(c["check_id"], c["verdict"], c["precision_loss"]["N"],
             c["precision_loss"]["caps"]) for c in checks] == \
        [("localized-nonvanishing", "EVIDENCE", 34, [28, 28])]
    assert not (tmp_path / ".cache").exists()


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
    assert list((tmp_path / "cache").glob("fgl-p3-n1-*.law"))
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


# A key whose computation raised PrecisionError records the error in its
# entry, which the next attempt at that key replays without building or
# preparing; a stored law lets the exponential wait for its first read.

P33 = ["verify", "prop-3.3", "--p", "2", "--n", "1"]


def _count_law_work(monkeypatch):
    """Wrap the law builders: counts of build_fgl and fgl_cache_save
    calls, the PrecisionErrors that _build_log raises, and those that
    build_fgl_cached raises."""
    seen = {"build_fgl": 0, "fgl_cache_save": 0, "_build_log raised": 0,
            "cached raised": 0}

    def wrap(name, count, raised):
        orig = getattr(fgl, name)

        def wrapper(*args, **kwargs):
            if count:
                seen[count] += 1
            try:
                return orig(*args, **kwargs)
            except PrecisionError:
                if raised:
                    seen[raised] += 1
                raise
        monkeypatch.setattr(fgl, name, wrapper)
        return wrapper

    wrap("build_fgl", "build_fgl", None)
    wrap("fgl_cache_save", "fgl_cache_save", None)
    wrap("_build_log", None, "_build_log raised")
    monkeypatch.setattr(cli, "build_fgl_cached",
                        wrap("build_fgl_cached", None, "cached raised"))
    return seen


# the law of y-degree cap 66, past the law-file cap: its build at N=16
# raises and its build at N=25 succeeds, recorded by an empty body
P32 = ["verify", "prop-3.2", "--p", "3", "--n", "2"]

# its cold run records two failed preparations, of the relations at N=16,
# M=3 and M=6
L24 = ["verify", "lemma-2.4", "--p", "2", "--n", "1"]


def _entry_kinds(cache):
    """The entries in cache counted by suffix, those that record an error
    apart."""
    return collections.Counter(
        f.suffix + (" raised" if "\nPrecisionError " in f.read_text()
                    else "") for f in cache.iterdir())


# each command with the entries its cold run leaves (_entry_kinds): one
# per law build, and one per relation prepared
WARM_CASES = [(P33, {".law raised": 2, ".law": 2, ".rel": 2}),
              (P32, {".law raised": 1, ".law": 1, ".rel": 1}),
              (L24, {".law": 4, ".rel": 4, ".rel raised": 2})]


def _count_prepares(monkeypatch):
    """Wrap groupcoh's weierstrass_prepare; the list of its calls."""
    calls = []
    orig = groupcoh.weierstrass_prepare

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)
    monkeypatch.setattr(groupcoh, "weierstrass_prepare", wrapper)
    return calls


def test_warm_rerun_builds_no_law(tmp_path, monkeypatch):
    # the warm pass replays each recorded PrecisionError and reads each
    # stored law and relation: no law is built, no law build raises, no
    # relation is prepared, nothing is written
    seen = _count_law_work(monkeypatch)
    prepared = _count_prepares(monkeypatch)
    for i, (args, files) in enumerate(WARM_CASES):
        cache = tmp_path / ("cache%d" % i)
        cold = tmp_path / ("cold%d.json" % i)
        warm = tmp_path / ("warm%d.json" % i)
        args = args + ["--cache", str(cache)]
        files = collections.Counter(files)
        seen.update(dict.fromkeys(seen, 0))
        prepared.clear()
        assert run_cli(args + ["--report", str(cold)]) == 0
        assert _entry_kinds(cache) == files
        assert seen["build_fgl"] == files[".law"] + files[".law raised"]
        assert len(prepared) == files[".rel"] + files[".rel raised"]
        seen.update(dict.fromkeys(seen, 0))
        prepared.clear()
        assert run_cli(args + ["--report", str(warm)]) == 0
        assert seen == {"build_fgl": 0, "fgl_cache_save": 0,
                        "_build_log raised": 0,
                        "cached raised": files[".law raised"]}
        assert prepared == []
        assert warm.read_bytes() == cold.read_bytes()


def test_warm_rerun_rewrites_no_cache_file(tmp_path):
    for i, (args, _) in enumerate(WARM_CASES):
        cache = tmp_path / ("cache%d" % i)
        args = args + ["--cache", str(cache)]
        assert run_cli(args) == 0
        files = sorted(cache.iterdir())
        assert any(k.endswith(" raised") for k in _entry_kinds(cache))
        # each write lands a new inode, and mtimes can be too coarse to move
        stamps = [(f.stat().st_ino, f.stat().st_mtime_ns) for f in files]
        assert run_cli(args) == 0
        assert sorted(cache.iterdir()) == files
        assert [(f.stat().st_ino, f.stat().st_mtime_ns)
                for f in files] == stamps


REL = "fgl-p3-n1-N24-D1-M15-k1-c7.rel"

# a small law past the law-file cap, whose build at N=16 succeeds
BUILT = (3, 1, 16, 1, fgl.LAW_FILE_CAP + 1)

# The entries that the damaged-entry tests edit, each with its first
# lines: a stored law, a law whose build raised and a prepared
# relation (d = 3) of `verify lemma-2.4 --p 3 --n 1`, and BUILT.
ENTRIES = {
    "law": ("fgl-p3-n1-N16-D1-M5.law",
            ["law p=3 n=1 N=16 D=1 M=5", "FGLV1 p=3 n=1 N=16 D=1 M=5"]),
    "raised": ("fgl-p3-n1-N16-D1-M15.law",
               ["law p=3 n=1 N=16 D=1 M=15",
                "PrecisionError needed_extra=1"]),
    "relation": (REL, ["relation p=3 n=1 N=24 D=1 M=15 k=1 cap=7",
                       "FGLV1 p=3 n=1 N=24 D=1 M=7",
                       "1|0|-|1|246761531137|24", "3|2|-|0|1|24"]),
    "past-cap": ("fgl-p%d-n%d-N%d-D%d-M%d.law" % BUILT,
                 ["law p=%d n=%d N=%d D=%d M=%d" % BUILT, ""]),
}


def _damage(text, edit):
    """An entry's text with one edit: garbage, empty, its last newline
    cut, a key line naming another N, a golden-vector header naming
    another N, a scalar outside the scalar invariants (prec = N + 40),
    a repeated line (one whose scalar cancels the first, 1 + 59048 =
    3^10), the golden header alone, a one-variable term, an empty body, a
    needed_extra that is no int, a unit at y^1, 2 at y^3 (not monic),
    relation terms in two variables, or a body past the law-file cap."""
    lines = text.split("\n")
    if edit == "garbage":
        return "not\nan entry"
    if edit == "empty":
        return ""
    if edit == "cut":
        return text[:-1]
    if edit == "key":
        lines[0] = lines[0].replace(" N=", " N=1")
    elif edit == "golden-header":
        assert lines[1].startswith("FGLV1 ")
        lines[1] = lines[1].replace(" N=", " N=1")
    elif edit == "scalar":
        fields = lines[2].split("|")
        assert fields[-1] == "16"
        fields[-1] = "56"
        lines[2] = "|".join(fields)
    elif edit == "repeat":
        assert "0,1|0|-|0|1|16" in lines
        lines[-1:] = ["0,1|0|-|0|59048|16", ""]
    elif edit == "head-only":
        lines[2:] = [""]
    elif edit == "one-variable":
        lines[2:] = ["1|0|-|0|1|16", ""]
    elif edit == "empty-body":
        lines[1:] = [""]
    elif edit == "extra":
        lines[1] = "PrecisionError needed_extra=one"
    elif edit == "unit":
        lines[2] = "1|0|-|0|246761531137|24"
    elif edit == "non-monic":
        lines[3] = "3|2|-|0|2|24"
    elif edit == "two-variable":
        lines[2:4] = ["1,0|0|-|1|246761531137|24", "3,0|2|-|0|1|24"]
    else:
        assert edit == "body"
        lines[1:] = ["1|0|-|0|1|16", ""]
    return "\n".join(lines)


def _fill_entry(kind, cache, report):
    """Write the entry of kind: run the lemma-2.4 checks at p=3, n=1 and
    return them, or build BUILT alone."""
    if kind != "past-cap":
        return _lemma_2_4_checks(cache, report)
    p, n, N, D, M = BUILT
    build_fgl_cached(p, n, str(cache), N=N, D=D, M=M)
    return None


def _check_damaged_entry(tmp_path, monkeypatch, kind, edit):
    # an entry that cannot be parsed, names another key, context or cap,
    # or holds no value of its kind is a miss: its law is built again or
    # its relation prepared again (a recorded error raised again), the
    # entry is rewritten, and the checks are those of a fresh cache
    cache = tmp_path / "cache"
    name, first = ENTRIES[kind]
    fresh = _fill_entry(kind, cache, tmp_path / "fresh.json")
    path = cache / name
    good = path.read_text()
    assert good.split("\n")[:len(first)] == first
    names = sorted(f.name for f in cache.iterdir())
    path.write_text(_damage(good, edit))
    seen = _count_law_work(monkeypatch)
    prepared = _count_prepares(monkeypatch)
    assert _fill_entry(kind, cache, tmp_path / "again.json") == fresh
    assert path.read_text() == good
    assert sorted(f.name for f in cache.iterdir()) == names
    # a law built again goes through fgl_cache_save, which forces the
    # two-variable law (the build of the "raised" entry raises there)
    assert (seen["build_fgl"], seen["fgl_cache_save"], len(prepared)) == (
        (0, 0, 1) if kind == "relation" else (1, 1, 0))


# The edits keep the case ids of the per-suffix entries these tests once
# edited: "header" was the first line of a law file, its golden-vector
# header, and the key line of a .raises, .rel or .built file.

@pytest.mark.parametrize("edit", [
    "key", pytest.param("golden-header", id="header"), "scalar", "repeat",
    "head-only", "one-variable", "garbage", "empty", "empty-body"])
def test_damaged_cache_file_is_rebuilt(tmp_path, monkeypatch, edit):
    _check_damaged_entry(tmp_path, monkeypatch, "law", edit)


@pytest.mark.parametrize("edit", [
    pytest.param("key", id="header"), "garbage", "empty", "extra", "cut"])
def test_damaged_raises_file_is_rebuilt(tmp_path, monkeypatch, edit):
    _check_damaged_entry(tmp_path, monkeypatch, "raised", edit)


@pytest.mark.parametrize("edit", [
    pytest.param("key", id="header"), "golden-header", "garbage", "empty",
    "unit", "non-monic", "two-variable"])
def test_damaged_relation_file_is_prepared_again(tmp_path, monkeypatch,
                                                 edit):
    _check_damaged_entry(tmp_path, monkeypatch, "relation", edit)


@pytest.mark.parametrize("edit", [
    pytest.param("key", id="header"), "garbage", "empty", "body"])
def test_damaged_built_file_is_rebuilt(tmp_path, monkeypatch, edit):
    _check_damaged_entry(tmp_path, monkeypatch, "past-cap", edit)


@pytest.mark.parametrize("kind", ["law", "relation"])
def test_body_of_another_cap_is_refused_unparsed(tmp_path, monkeypatch,
                                                 kind):
    # a body whose golden-vector header names another cap is refused on
    # that line, before golden_load would build its context and series
    # (M=200000 here), and the entry is rewritten
    cache = tmp_path / "cache"
    name, first = ENTRIES[kind]
    fresh = _lemma_2_4_checks(cache, tmp_path / "fresh.json")
    path = cache / name
    good = path.read_text()
    huge = first[1].rsplit(" M=", 1)[0] + " M=200000"
    path.write_text(good.replace(first[1], huge, 1))
    load = fgl.golden_load

    def guarded(text):
        assert not text.startswith(huge), "golden_load read a refused body"
        return load(text)
    monkeypatch.setattr(fgl, "golden_load", guarded)
    assert _lemma_2_4_checks(cache, tmp_path / "again.json") == fresh
    assert path.read_text() == good


def test_cache_off_writes_no_relation_file(tmp_path):
    assert run_cli(["verify", "lemma-2.4", "--p", "3", "--n", "1",
                    "--cache", "", "--report", str(tmp_path / "r.json")]) == 0
    assert [f.name for f in tmp_path.rglob("*")] == ["r.json"]
    law = build_fgl(3, 1, N=24, D=1, M=15)
    assert law.stem is None
    assert fgl.cached_relation(law, 1, 7, lambda: "prepared") == "prepared"
    groupcoh._relation(law, 1, 7)
    assert [f.name for f in tmp_path.rglob("*")] == ["r.json"]


def _relation_pair(tmp_path, prepared, p, n, D, k):
    """The relation table of C_{p^k} at cap 2d + 1 as prepared on a cold
    cache, and as read back from its entry by a fresh law at that key, at
    the first N of 16, 24, ... where the law and the relation build; the
    read prepares nothing (prepared lists the preparations)."""
    cap = 2 * p ** (n * k) + 1
    for N in range(16, 65, 8):
        cache = str(tmp_path / ("N%d" % N))
        try:
            law = build_fgl_cached(p, n, cache, N=N, D=D, M=cap)
            computed = groupcoh._relation(law, k, cap)
        except PrecisionError:
            continue
        again = build_fgl_cached(p, n, cache, N=N, D=D, M=cap)
        # a hit never prepares: None would raise TypeError if called
        g = fgl.cached_relation(again, k, cap, None)
        assert g.ctx is again.ctx
        before = len(prepared)
        read = groupcoh._relation(again, k, cap)
        assert len(prepared) == before
        return computed, read
    raise AssertionError("no N up to 64 builds the relation")


@pytest.mark.parametrize("p,n,D,k", [
    (p, n, D, k) for p in (2, 3) for n in (1, 2) for D in (1, 6)
    for k in (1, 2)])
def test_relation_read_back_equals_computed(tmp_path, monkeypatch, p, n, D,
                                            k):
    # a warm read rebuilds the table from the stored g: the same keys in
    # the same order, each coefficient the same scalars in the same order
    prepared = _count_prepares(monkeypatch)
    computed, read = _relation_pair(tmp_path, prepared, p, n, D, k)
    assert list(read) == list(computed)
    for a in computed:
        assert list(read[a].t.items()) == list(computed[a].t.items())


def test_unwritable_law_cache_is_a_configuration_error(tmp_path, capsys):
    # exit 1 means a check failed; a cache that cannot be written is a
    # configuration error, exit 2, with one line naming the path
    bad = tmp_path / "notadir"
    bad.write_text("")
    assert run_cli(P33 + ["--cache", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(bad) in err[0]


def test_unwritable_relation_entry_is_a_configuration_error(tmp_path,
                                                            capsys):
    # a warm cache whose relation entry is a directory: the read is a miss,
    # and the write that follows exits 2 naming the entry, leaving no
    # temporary file
    cache = tmp_path / "cache"
    _lemma_2_4_checks(cache, tmp_path / "fresh.json")
    path = cache / REL
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert run_cli(["verify", "lemma-2.4", "--p", "3", "--n", "1",
                    "--cache", str(cache)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ") and str(path) in err[-1]
    assert not [f for f in cache.iterdir() if ".tmp." in f.name]


def test_built_hit_solves_exp_on_demand(tmp_path):
    # a hit past the law-file cap builds only the logarithm; the exponential, solved on
    # its first read, is that of a fresh build
    p, n, N, D, M = BUILT
    fresh = build_fgl(p, n, N=N, D=D, M=M)
    build_fgl_cached(p, n, str(tmp_path), N=N, D=D, M=M)
    hit = build_fgl_cached(p, n, str(tmp_path), N=N, D=D, M=M)
    assert hit._exp is None
    assert golden_dump(hit.exp) == golden_dump(fresh.exp)


@pytest.mark.parametrize("N", [3, 16])
def test_recorded_precision_error_is_replayed(tmp_path, monkeypatch, N):
    # at N=3 the build refuses the logarithm, at N=16 the forced
    # two-variable law falls short of the floor; either error comes back
    # from the file with its message and needed_extra
    with pytest.raises(PrecisionError) as built:
        build_fgl(2, 1, N=N, D=1, M=8).F
    seen = None
    for _ in range(2):
        with pytest.raises(PrecisionError) as got:
            build_fgl_cached(2, 1, str(tmp_path), N=N, D=1, M=8)
        assert str(got.value) == str(built.value)
        assert got.value.needed_extra == built.value.needed_extra > 0
        seen = seen or _count_law_work(monkeypatch)
    assert seen["build_fgl"] == seen["fgl_cache_save"] == 0
    assert seen["_build_log raised"] == 0
    assert [f.name for f in tmp_path.iterdir()] == [
        "fgl-p2-n1-N%d-D1-M8.law" % N]


def test_cache_hit_solves_exp_on_demand(tmp_path):
    # a hit builds only the logarithm; the exponential and the
    # two-variable laws at other caps, solved from it later, are those of
    # a fresh build
    fresh = build_fgl(2, 2, N=24, D=4, M=9)
    build_fgl_cached(2, 2, str(tmp_path), N=24, D=4, M=9)
    hit = build_fgl_cached(2, 2, str(tmp_path), N=24, D=4, M=9)
    assert hit._exp is None
    assert golden_dump(hit.F) == golden_dump(fresh.F)
    assert hit._exp is None
    for caps in [(5, 4, None), (2, 7, None), (9, 9, 6), (3, 3, 5)]:
        assert golden_dump(hit.two_var(*caps)) == \
            golden_dump(fresh.two_var(*caps)), caps
    assert golden_dump(hit.exp) == golden_dump(fresh.exp)
