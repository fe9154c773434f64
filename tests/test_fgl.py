"""Formal group law construction, m-series, and the p-series shape.

Fixed-value cases pin down hand-derived coefficients; the series-level
cross-checks compare against the exact-rational reference in oracles.py.
"""

import pytest

import oracles
from helpers import oc_series_to_yseries, oc_to_elem
from morava.coeff import CoeffContext
from morava.fgl import (araki_formal_sum, build_fgl, check_associativity,
                        check_integrality, check_pk_congruence, eval_pair,
                        formal_sum, log_depth)
from morava.padic import PrecisionError
from morava.series import (ms_eval, ms_new, ms_set, ser_compose, ser_monomial,
                           ser_new)


@pytest.fixture(scope="module")
def f21():
    # N well above the verdict depths: solving through the logarithm burns
    # relative precision on cancellation, and the floor contract makes that
    # loud rather than silent
    return build_fgl(2, 1, N=40, D=1, M=12)


@pytest.fixture(scope="module")
def f31():
    return build_fgl(3, 1, N=36, D=1, M=9)


@pytest.fixture(scope="module")
def f22():
    return build_fgl(2, 2, N=40, D=4, M=9)


def first_mismatch(ctx, f, g, depth):
    """Lowest degree where two series disagree at the given depth, else None."""
    for d in range(min(f.M, g.M) + 1):
        if not ctx.eq_to(f.c[d], g.c[d], depth):
            return d
    return None


def test_log_depth():
    assert log_depth(2, 33) == 5
    assert log_depth(2, 1) == 0
    assert log_depth(3, 9) == 2


def test_build_rejects_shallow_precision():
    # l_5 appears at M=33 and carries valuation -5
    with pytest.raises(PrecisionError) as e:
        build_fgl(2, 1, N=4, M=33)
    assert "N=6" in str(e.value)
    assert e.value.needed_extra == 2


def test_log_coefficient_valuations(f21):
    for k in (1, 2, 3):
        vals = [c.val for c in f21.log.c[2 ** k].t.values() if c.unit != 0]
        assert min(vals) == -k


def test_log_exp_match_reference(f21):
    ctx = f21.ctx
    L = oc_series_to_yseries(ctx, oracles.log_series(2, 1, 12))
    E = oc_series_to_yseries(ctx, oracles.exp_series(2, 1, 12))
    assert first_mismatch(ctx, f21.log, L, 12) is None
    assert first_mismatch(ctx, f21.exp, E, 12) is None


def test_exp_log_roundtrip(f21):
    ctx = f21.ctx
    y = ser_monomial(ctx, 12, 1)
    assert first_mismatch(ctx, ser_compose(f21.exp, f21.log), y, 12) is None
    assert first_mismatch(ctx, ser_compose(f21.log, f21.exp), y, 12) is None


def test_f_frozen_coefficients(f21, f31):
    ctx = f21.ctx
    F = f21.F
    assert ctx.eq_to(F.coeff((1, 0)), ctx.one(), 16)
    assert ctx.eq_to(F.coeff((0, 1)), ctx.one(), 16)
    assert ctx.eq_to(F.coeff((1, 1)), ctx.u_mono(1), 16)
    # F(x, 0) = x: nothing else on the axis
    for d in range(2, 13):
        assert ctx.is_zero_to(F.coeff((d, 0)), 12)
        assert ctx.is_zero_to(F.coeff((0, d)), 12)
    c3 = f31.ctx
    assert c3.eq_to(f31.F.coeff((1, 1)), c3.zero(), 14)
    assert c3.eq_to(f31.F.coeff((1, 0)), c3.one(), 14)


def test_f_commutative(f21, f22):
    for fgl, depth in ((f21, 12), (f22, 10)):
        ctx = fgl.ctx
        F = fgl.F
        for i in range(fgl.M + 1):
            for j in range(i + 1, fgl.M + 1 - i):
                assert ctx.eq_to(F.coeff((i, j)), F.coeff((j, i)), depth)


def _assoc_check(fgl, cap, depth):
    ctx = fgl.ctx
    F = fgl.two_var(cap, cap, tcap=cap)
    caps = (cap, cap, cap)
    gens = []
    for i in range(3):
        g = ms_new(ctx, 3, caps, tcap=cap)
        e = [0, 0, 0]
        e[i] = 1
        ms_set(g, tuple(e), ctx.one())
        gens.append(g)
    x, y, z = gens
    left = ms_eval(F, [ms_eval(F, [x, y]), z])
    right = ms_eval(F, [x, ms_eval(F, [y, z])])
    for key in set(left.t) | set(right.t):
        assert ctx.eq_to(left.coeff(key), right.coeff(key), depth), key


def test_f_associative_height_one(f21, f31):
    _assoc_check(f21, 6, 10)
    _assoc_check(f31, 6, 10)


def test_f_associative_height_two(f22):
    _assoc_check(f22, 5, 8)


def test_associativity_coefficient_work_pinned(monkeypatch):
    # ms_mul skips only the pairs of terms that fall off the caps, which
    # never reach the coefficient ring: the number of coefficient products
    # is that of a loop over every pair (18422, with 285 terms compared).
    law = build_fgl(2, 2, N=33, D=6, M=10)
    mul = CoeffContext.mul
    calls = []

    def counted(self, A, B):
        calls.append(None)
        return mul(self, A, B)

    monkeypatch.setattr(CoeffContext, "mul", counted)
    ok, wit = check_associativity(law, cap=10)
    assert ok and wit["terms"] == 285
    assert len(calls) == 18422


def test_integrality(f21, f22):
    for fgl in (f21, f22):
        assert check_integrality(fgl.F)
        for m in (2, 3, -1):
            assert check_integrality(fgl.m_series(m))
        # the logarithm and exponential genuinely live outside the ring
        assert not check_integrality(fgl.log)
        assert not check_integrality(fgl.exp)


def test_f_matches_reference(f21):
    ctx = f21.ctx
    ref = oracles.fgl_2var(2, 1, 5, 5)
    F = f21.two_var(5, 5)
    for i in range(6):
        for j in range(6):
            assert ctx.eq_to(F.coeff((i, j)), oc_to_elem(ctx, ref[i][j]), 12)


def test_f_matches_reference_height_two(f22):
    ctx = f22.ctx
    ref = oracles.fgl_2var(2, 2, 4, 4)
    F = f22.two_var(4, 4)
    for i in range(5):
        for j in range(5):
            assert ctx.eq_to(F.coeff((i, j)), oc_to_elem(ctx, ref[i][j]), 10)


def test_one_and_zero_series(f21):
    ctx = f21.ctx
    y = ser_monomial(ctx, 12, 1)
    assert first_mismatch(ctx, f21.m_series(1), y, 16) is None
    zero = f21.m_series(0)
    assert all(c.is_zero() for c in zero.c)
    for m in range(-3, 6):
        if m == 0:
            continue
        assert ctx.eq_to(f21.m_series(m).c[1], ctx.from_int(m), 16)


def test_two_series_frozen(f21):
    ctx = f21.ctx
    s = f21.m_series(2)
    assert ctx.eq_to(s.c[1], ctx.from_int(2), 16)
    assert ctx.eq_to(s.c[2], ctx.u_mono(1), 16)
    assert ctx.eq_to(s.c[3], ctx.u_mono(2, 2), 16)


def test_minus_one_series_frozen(f21):
    ctx = f21.ctx
    s = f21.m_series(-1)
    assert ctx.eq_to(s.c[1], ctx.from_int(-1), 16)
    assert ctx.eq_to(s.c[2], ctx.u_mono(1), 16)


def test_inverse_axiom(f21):
    ctx = f21.ctx
    for m in (1, 2, 3):
        s = eval_pair(f21.F, f21.m_series(m), f21.m_series(-m))
        assert all(ctx.is_zero_to(c, 12) for c in s.c)


def test_doubling_recursion(f21):
    ctx = f21.ctx
    y = ser_monomial(ctx, 12, 1)
    for m in (2, 3, 4, 5):
        via_f = eval_pair(f21.F, y, f21.m_series(m - 1))
        assert first_mismatch(ctx, f21.m_series(m), via_f, 12) is None


def test_compose_multiplicativity(f21, f31):
    ctx = f21.ctx
    rng = [a for a in range(-5, 6) if a != 0]
    for a in rng:
        for b in rng:
            comp = ser_compose(f21.m_series(a), f21.m_series(b))
            assert first_mismatch(ctx, comp, f21.m_series(a * b), 12) is None, (a, b)
    c3 = f31.ctx
    for a, b in ((-2, 2), (3, -1), (2, 3), (-1, -1)):
        comp = ser_compose(f31.m_series(a), f31.m_series(b))
        assert first_mismatch(c3, comp, f31.m_series(a * b), 10) is None


def test_p_series_equals_araki_sum(f21, f31, f22):
    for fgl, depth in ((f21, 12), (f31, 10), (f22, 10)):
        ps = fgl.m_series(fgl.p)
        assert first_mismatch(fgl.ctx, ps, araki_formal_sum(fgl), depth) is None


def test_pk_congruence(f21):
    ctx = f21.ctx
    y = ser_monomial(ctx, 12, 1)
    assert first_mismatch(ctx, f21.pk_series(0), y, 16) is None
    s2 = f21.pk_series(1)
    assert ctx.reduce_mod_pv(s2.c[1]) == {}
    assert ctx.reduce_mod_pv(s2.c[2]) == {1: 1}
    s4 = f21.pk_series(2)
    for d in (1, 2, 3):
        assert ctx.reduce_mod_pv(s4.c[d]) == {}
    assert ctx.reduce_mod_pv(s4.c[4]) == {3: 1}
    ok, witness = check_pk_congruence(f21, f21.pk_series(3), 3)
    assert ok and witness["leading_degree"] == 8
    # a wrong series is caught with a located witness
    ok, witness = check_pk_congruence(f21, f21.m_series(3), 1)
    assert not ok and witness["degree"] == 1


def test_pk_rejects_small_truncation(f21, f22):
    with pytest.raises(ValueError):
        f21.pk_series(4)
    with pytest.raises(ValueError):
        f22.pk_series(2)


def test_two_var_cap_guard(f21):
    with pytest.raises(ValueError):
        f21.two_var(12, 12)
    with pytest.raises(ValueError):
        f21.two_var(9, 9, tcap=18)


def test_formal_sum_trivial(f21):
    ctx = f21.ctx
    x = ser_monomial(ctx, 12, 1)
    assert formal_sum(f21, [x]) == x
    assert formal_sum(f21, [x, ser_new(ctx, 12)]) == x
    assert formal_sum(f21, []).is_zero()
    shifted = ser_monomial(ctx, 12, 0)
    with pytest.raises(ValueError):
        formal_sum(f21, [shifted])


def test_formal_sum_two_series(f21):
    ctx = f21.ctx
    doubled = ser_monomial(ctx, 12, 1, ctx.from_int(2))
    vterm = ser_monomial(ctx, 12, 2, ctx.u_mono(1))
    s = formal_sum(f21, [doubled, vterm])
    assert first_mismatch(ctx, s, f21.m_series(2), 12) is None


def test_m_series_reference(f31, f22):
    for fgl, ms in ((f31, (2, 3, -1)), (f22, (2, 3, -1))):
        ctx = fgl.ctx
        for m in ms:
            ref = oc_series_to_yseries(ctx, oracles.m_series(fgl.p, fgl.n, m, fgl.M))
            assert first_mismatch(ctx, fgl.m_series(m), ref, 10) is None, m
