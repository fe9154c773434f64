"""Formal group law construction, m-series, and the p-series shape.

Fixed-value cases pin down hand-derived coefficients; the series-level
cross-checks compare against the exact-rational reference in oracles.py.
"""

import hashlib
from fractions import Fraction

import pytest

import oracles
from helpers import (count_coeff_products, ms_content, ms_eval_by_products,
                     ms_from_yseries, oc_series_to_yseries, oc_to_elem,
                     two_var_reference)
from morava.coeff import CoeffContext
from morava.fgl import (_build_two_var, _chain_power, _row, build_fgl,
                        check_associativity, check_integrality,
                        check_pk_congruence, formal_sum, log_depth, solve_log)
from morava.padic import PadicContext, PrecisionError
from morava.series import (YSeries, ms_eval, ms_eval_powers, ms_new,
                           ms_permuted, ms_powers, ms_set, ser_compose,
                           ser_from_terms, ser_monomial, ser_new, ser_scale)


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
        vals = [v for v, u, _ in f21.log.c[2 ** k].t.values() if u != 0]
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
    assert ctx.eq_to(F.coeff((1, 1)), ctx.one(), 16)
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


def _gens(ctx, cap):
    """x, y, z at caps (cap, cap, cap) and total cap cap."""
    gens = []
    for i in range(3):
        g = ms_new(ctx, 3, (cap, cap, cap), tcap=cap)
        e = [0, 0, 0]
        e[i] = 1
        ms_set(g, tuple(e), ctx.one())
        gens.append(g)
    return gens


def _assoc_check(fgl, cap, depth):
    ctx = fgl.ctx
    F = fgl.two_var(cap, cap, tcap=cap)
    x, y, z = _gens(ctx, cap)
    left = ms_eval(F, [ms_eval(F, [x, y]), z])
    right = ms_eval(F, [x, ms_eval(F, [y, z])])
    keys = {v for v, _ in left.items()} | {v for v, _ in right.items()}
    for exps in keys:
        assert ctx.eq_to(left.coeff(exps), right.coeff(exps), depth), exps


def test_f_associative_height_one(f21, f31):
    _assoc_check(f21, 6, 10)
    _assoc_check(f31, 6, 10)


def test_f_associative_height_two(f22):
    _assoc_check(f22, 5, 8)


@pytest.mark.parametrize("bad", [(2, 1), (1, 3), (4, 0)])
def test_associativity_witness_is_the_first_failure_in_tuple_order(bad):
    # a law with one coefficient changed fails at several exponent
    # vectors; the witness is the least of them as a tuple
    law = build_fgl(2, 1, N=24, D=1, M=8)
    ctx, cap = law.ctx, 6
    F = law.two_var(cap, cap, tcap=cap)
    ms_set(F, bad, ctx.add(F.coeff(bad), ctx.from_int(4)))
    x, y, z = _gens(ctx, cap)
    left = ms_eval(F, [ms_eval(F, [x, y]), z])
    right = ms_eval(F, [x, ms_eval(F, [y, z])])
    keys = {v for v, _ in left.items()} | {v for v, _ in right.items()}
    failing = sorted(e for e in keys
                     if not ctx.eq_to(left.coeff(e), right.coeff(e), 8))
    assert len(failing) > 1
    ok, witness = check_associativity(law, cap=cap)
    assert not ok and witness == {"exponents": failing[0]}


@pytest.mark.parametrize("p,n,D,cap,N", [
    (2, 1, 1, 16, 59), (2, 2, 6, 16, 33), (2, 3, 4, 12, 24), (3, 1, 1, 12, 24)])
def test_inner_law_renamed_equals_direct(p, n, D, cap, N):
    # check_associativity takes F(y, z) and its powers from F(x, y) by
    # renaming x->y->z: exact, stored order and scalars included, because
    # the three variables share one cap
    law = build_fgl(p, n, N=N, D=D, M=cap)
    F = law.two_var(cap, cap, tcap=cap)
    x, y, z = _gens(law.ctx, cap)
    gpow = ms_powers(ms_eval(F, [x, y]))
    hpow = ms_powers(ms_eval(F, [y, z]))
    for e in range(1, cap + 1):
        assert ms_content(ms_permuted(gpow(e), (2, 0, 1))) == \
            ms_content(hpow(e)), e
    assert hpow(1).t and hpow(cap).t


@pytest.mark.parametrize("p,n,D,cap,N", [
    (2, 1, 1, 16, 59), (2, 2, 6, 16, 33), (2, 3, 4, 12, 24), (3, 2, 1, 12, 24)])
def test_eval_powers_matches_product_route(monkeypatch, p, n, D, cap, N):
    # the three fgl-axioms shapes, and p=3, n=2, D=1, where more products
    # vanish under the v-degree cap: key shifts and the fused sum leave
    # every key, key order and scalar of ms_mul + ms_scale + ms_add_into.  Every shape meets products with no terms (under D or
    # past the prune horizon) and keys shifted past the total cap.
    law = build_fgl(p, n, N=N, D=D, M=cap)
    F = law.two_var(cap, cap, tcap=cap)
    x, y, z = _gens(law.ctx, cap)
    inner = ms_eval(F, [x, y])
    assert ms_content(inner) == ms_content(
        ms_eval_by_products(F, [ms_powers(x), ms_powers(y)]))
    gpow = ms_powers(inner)

    def hpow(e):
        return ms_permuted(gpow(e), (2, 0, 1))
    vanished = []
    mul = CoeffContext.mul

    def watched(self, A, B):
        P = mul(self, A, B)
        if A.t and B.t and not P.t:
            vanished.append(None)
        return P
    monkeypatch.setattr(CoeffContext, "mul", watched)
    for powers in ([gpow, ms_powers(z)], [ms_powers(x), hpow]):
        got = ms_eval_powers(F, powers)
        assert got.t
        assert ms_content(got) == ms_content(ms_eval_by_products(F, powers))
    assert vanished


def test_associativity_coefficient_work_pinned(monkeypatch):
    # ms_mul skips only the pairs of terms that fall off the caps, which
    # never reach the coefficient ring, so every product counted here is one
    # a loop over every pair makes too.  F(y, z) and its powers are renamed,
    # not recomputed, an odd power reuses its even square, and a factor
    # x^i or z^j with coefficient one moves keys instead of multiplying,
    # and the law F(x, y) is formed only under its caps, with each power
    # of log y, which is log x at equal caps, formed once: 7188 products,
    # where forming those powers for x and y apart took 7283, forming the
    # whole law 8111 (828 more inside _build_two_var: 389 with an empty
    # factor, 439 past the total cap), multiplying by those factors 10136
    # and forming both inner laws and all their powers 18278, with the
    # same 285 terms compared.  Every collision of stored
    # scalars, zero markers included, stays in the coefficient kernel: no
    # PadicContext.add_raw.
    law = build_fgl(2, 2, N=33, D=6, M=10)
    calls = count_coeff_products(monkeypatch)
    raw = []
    add_raw = PadicContext.add_raw

    def counted_add_raw(self, a, b):
        raw.append(None)
        return add_raw(self, a, b)
    monkeypatch.setattr(PadicContext, "add_raw", counted_add_raw)
    ok, wit = check_associativity(law, cap=10)
    assert ok and wit["terms"] == 285
    assert len(calls) == 7188
    assert not raw


@pytest.mark.parametrize("p,n,D,cap,N,digest", [
    (2, 1, 1, 16, 59,
     "88cc275792a1e8bcf3df045c21f98dcdef153cfd1ffe1e62be52fef90dc00f7e"),
    (2, 2, 6, 16, 33,
     "293c38a3a6399f6969f1e4c14a1c80733536776cadfc75e5d0aee247ceb77c69"),
    (2, 3, 4, 12, 24,
     "236d67f60214b21f44e36709925bd151d5a259952367c4ecaa5470e99d165b02")])
def test_associativity_internals_pinned(monkeypatch, p, n, D, cap, N, digest):
    # the three fgl-axioms shapes: a sha256 over the stored order and the
    # scalars of G^1..G^cap, G = F(x, y), and of both sums of the check.
    # The verdict and the term count alone would not see a kernel change
    # that moves one scalar of the check
    law = build_fgl(p, n, N=N, D=D, M=cap)
    sums = []
    eval_powers = ms_eval_powers

    def watched(F, powers):
        S = eval_powers(F, powers)
        sums.append((powers, S))
        return S
    monkeypatch.setattr("morava.fgl.ms_eval_powers", watched)
    ok, _ = check_associativity(law, cap=cap)
    assert ok and len(sums) == 2
    gpow = sums[0][0][0]
    h = hashlib.sha256()
    for S in [gpow(e) for e in range(1, cap + 1)] + [S for _, S in sums]:
        h.update(repr(ms_content(S)).encode())
    assert h.hexdigest() == digest


def test_solve_log_coefficient_work_pinned(monkeypatch):
    # the exponential and the 9-series of a law at p=3 and cap 242, where
    # the base-p chains make 8 power chains: each chain entry is mul of its
    # first pair and addmul_into of each later one, and each degree of T
    # is ctx.sub of a ctx.mul per p-power, 23553 products in all
    calls = count_coeff_products(monkeypatch)
    law = build_fgl(3, 2, N=24, D=1, M=242)
    law.m_series(9)
    assert len(calls) == 23553


TWO_VAR_LAWS = [(2, 1, 24, 1, 10), (2, 2, 33, 6, 16), (3, 1, 24, 1, 15),
                (2, 3, 24, 4, 9), (3, 2, 16, 1, 26)]


def _two_var_caps(M):
    # the full law; two caps summing to M with no total cap, and two
    # smaller ones; a total cap under both caps, and under it a y-cap of 1
    return [(M, M, M), (M // 2, M - M // 2, None), (M // 2, M // 3, None),
            (M, M, M // 2), (M, 1, M // 2)]


def _outcome(build, law, caps):
    try:
        return ms_content(build(law, *caps))
    except PrecisionError as e:
        return str(e), e.needed_extra


@pytest.mark.parametrize("p,n,N,D,M", TWO_VAR_LAWS)
def test_two_var_matches_full_build(p, n, N, D, M):
    # the law formed under its caps is the law formed in full with the
    # excess dropped: keys in order and scalars
    law = build_fgl(p, n, N=N, D=D, M=M)
    for caps in _two_var_caps(M):
        F = _build_two_var(law, *caps)
        assert ms_content(F) == ms_content(two_var_reference(law, *caps))
        assert F.t, caps


@pytest.mark.parametrize("p,n,N,D,M,caps", [
    (2, 1, 13, 1, 10, list(zip([(10, 10, 10), (5, 5, None), (5, 3, None),
                                (10, 1, 5)], ["raises"] * 3 + ["deeper"]))),
    (2, 3, 14, 4, 9, list(zip(_two_var_caps(9), ["raises"] * 4 + ["same"])))])
def test_two_var_shortfall_matches_full_build(p, n, N, D, M, caps):
    # where the build under the caps falls short of the floor, it raises
    # the full build's text and needed_extra, so the retry that follows is
    # the same.  At (10, 10, 10) the (2, 1) law raises only if each power
    # of log x is formed when its term comes up, as the full build forms
    # it.  Where it succeeds, it is the full build under the caps: at this
    # N when that build succeeds too ("same"), else at N + 4 ("deeper"),
    # the same keys in the same order and every scalar agreeing to the
    # lesser of the two tops (val + prec).  Under (10, 1, 5) the (2, 1)
    # full build falls short past the total cap only, where the build
    # under the caps forms nothing.
    law = build_fgl(p, n, N=N, D=D, M=M)
    got = []
    for c, _ in caps:
        want = _outcome(two_var_reference, law, c)
        try:
            F = _build_two_var(law, *c)
        except PrecisionError as e:
            assert (str(e), e.needed_extra) == want, c
            got.append("raises")
            continue
        if not isinstance(want[0], str):
            assert ms_content(F) == want, c
            got.append("same")
            continue
        ref = two_var_reference(build_fgl(p, n, N=N + 4, D=D, M=M), *c)
        assert list(F.t) == list(ref.t), c
        for k, e in F.t.items():
            assert list(e.t) == list(ref.t[k].t), (c, k)
            for vc, a in e.t.items():
                b = ref.t[k].t[vc]
                assert _agree_below(p, a, b, min(a[0] + a[2], b[0] + b[2])), \
                    (c, k, vc)
        got.append("deeper")
    assert got == [kind for _, kind in caps]


def test_two_var_forms_rows_from_x_degree_0_under_the_caps(monkeypatch):
    # row G_j is formed once, from x-degree 0 to min(Mx, teff - j), and
    # never past the caps: under (10, 10, 5) rows 0..5 reach x-degrees
    # 5..0; under (10, 1, 5) rows 0 and 1 reach 5 and 4, and row 0 is not
    # formed again past the total cap
    law = build_fgl(2, 1, N=24, D=1, M=10)
    rows = []

    def watched(ctx, terms, power, hi):
        row = _row(ctx, terms, power, hi)
        rows.append(len(row) - 1)
        return row
    monkeypatch.setattr("morava.fgl._row", watched)
    assert law.two_var(10, 10, 5).t
    assert rows == [5, 4, 3, 2, 1, 0]
    del rows[:]
    assert law.two_var(10, 1, 5).t
    assert rows == [5, 4]


def test_two_var_past_cap_shortfall_not_raised():
    # at N=16 the full (2, 3) law at cap 9 falls short of the floor only
    # past the total cap: the full build raises on it, the build under the
    # caps never forms it
    law = build_fgl(2, 3, N=16, D=4, M=9)
    with pytest.raises(PrecisionError) as e:
        two_var_reference(law, 9, 9, 9)
    assert e.value.needed_extra == 1
    assert "7 trusted digits (floor 8)" in str(e.value)
    F = law.F
    assert F.t
    for caps in _two_var_caps(9)[1:]:
        assert _outcome(_build_two_var, law, caps) == \
            _outcome(two_var_reference, law, caps), caps


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
            want = oc_to_elem(ctx, ref[i][j], i + j - 1)
            assert ctx.eq_to(F.coeff((i, j)), want, 12)


def test_f_matches_reference_height_two(f22):
    ctx = f22.ctx
    ref = oracles.fgl_2var(2, 2, 4, 4)
    F = f22.two_var(4, 4)
    for i in range(5):
        for j in range(5):
            want = oc_to_elem(ctx, ref[i][j], i + j - 1)
            assert ctx.eq_to(F.coeff((i, j)), want, 10)


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
    assert ctx.eq_to(s.c[2], ctx.one(), 16)
    assert ctx.eq_to(s.c[3], ctx.from_int(2), 16)


def test_minus_one_series_frozen(f21):
    ctx = f21.ctx
    s = f21.m_series(-1)
    assert ctx.eq_to(s.c[1], ctx.from_int(-1), 16)
    assert ctx.eq_to(s.c[2], ctx.one(), 16)


def eval_law(fgl, f, g):
    """F(f, g) for one-variable series at the law's cap, substituted into
    the two-variable law itself (not through the logarithm)."""
    def one_var(s):
        return ms_from_yseries(s, 1, (fgl.M,), 0)
    out = ms_eval(fgl.F, [one_var(f), one_var(g)])
    return YSeries(fgl.ctx, [out.coeff((d,)) for d in range(fgl.M + 1)])


def test_inverse_axiom(f21):
    ctx = f21.ctx
    for m in (1, 2, 3):
        s = eval_law(f21, f21.m_series(m), f21.m_series(-m))
        assert all(ctx.is_zero_to(c, 12) for c in s.c)


def test_doubling_recursion(f21):
    ctx = f21.ctx
    y = ser_monomial(ctx, 12, 1)
    for m in (2, 3, 4, 5):
        via_f = eval_law(f21, y, f21.m_series(m - 1))
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
    # the iterated group sum of v_i y^{p^i}, i = 0..n: the defining shape of
    # the p-series
    for fgl, depth in ((f21, 12), (f31, 10), (f22, 10)):
        ctx, p, n = fgl.ctx, fgl.p, fgl.n
        # v_n = u^(p^n-1) is 1 in the coefficients
        vs = ([ctx.from_int(p)] + [ctx.v_gen(i) for i in range(1, n)]
              + [ctx.one()])
        parts = [ser_from_terms(ctx, fgl.M, {p ** i: v})
                 for i, v in enumerate(vs) if p ** i <= fgl.M]
        ps = fgl.m_series(fgl.p)
        assert first_mismatch(ctx, ps, formal_sum(fgl, parts), depth) is None


def test_pk_congruence(f21):
    ctx = f21.ctx
    y = ser_monomial(ctx, 12, 1)
    assert first_mismatch(ctx, f21.pk_series(0), y, 16) is None
    s2 = f21.pk_series(1)
    assert ctx.reduce_mod_pv(s2.c[1]) == 0
    assert ctx.reduce_mod_pv(s2.c[2]) == 1
    s4 = f21.pk_series(2)
    for d in (1, 2, 3):
        assert ctx.reduce_mod_pv(s4.c[d]) == 0
    assert ctx.reduce_mod_pv(s4.c[4]) == 1
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
    vterm = ser_monomial(ctx, 12, 2, ctx.one())
    s = formal_sum(f21, [doubled, vterm])
    assert first_mismatch(ctx, s, f21.m_series(2), 12) is None


@pytest.mark.parametrize("p, n, M", [(2, 1, 12), (3, 1, 10), (2, 2, 8)])
def test_formal_sum_reference(p, n, M):
    # F(f, g) substituted into the exact-rational two-variable law, against
    # the logarithm route; f and g are graded (y^d has weight d - 1), and c
    # mixes u^(p-1) with v_1 where the height allows
    fgl = build_fgl(p, n, N=40, D=4, M=M)
    ctx = fgl.ctx
    v0 = (0,) * (n - 1)
    c = {(p - 1, v0): Fraction(1)}
    if n > 1:
        c = oracles.qc_add(c, oracles.v_generator(p, n, 1))
    f = oracles.ser_zero(M)
    f[1], f[3] = {(0, v0): Fraction(2)}, {(2, v0): Fraction(1)}
    g = oracles.ser_zero(M)
    g[p] = c
    ref = oc_series_to_yseries(ctx, oracles.formal_sum(p, n, f, g, M))
    s = formal_sum(fgl, [oc_series_to_yseries(ctx, f),
                         oc_series_to_yseries(ctx, g)])
    assert first_mismatch(ctx, s, ref, 10) is None


def p_split(p, e):
    """fgl._chain_power's split of e: h = floor(e / (2q)) * q, q the
    largest power of p that divides e and is below e."""
    q = 1
    while e % (q * p) == 0 and q * p < e:
        q *= p
    return e // q // 2 * q


def halving_split(p, e):
    """The split of e before the base-p rule, h = e // 2: the reference
    that the base-p chains are cross-checked against."""
    return e // 2


def solve_log_every_index(ctx, log_elems, S, split=p_split):
    """solve_log with a convolution that walks every index from the chain's
    minimum and skips the zero entries it meets: the reference for the
    walk over nonzero indices only, which must store the same values.
    T^e is the product of T^h and T^(e-h) with h = split(p, e)."""
    p, M = ctx.p, S.M
    needed = [p ** k for k in range(1, M) if p ** k <= M]
    T = [ctx.zero() for _ in range(M + 1)]
    chains, by_power = [], {1: (T, 1)}

    def ensure_power(e):
        if e not in by_power:
            h = split(p, e)
            A, minA = ensure_power(h)
            B, minB = ensure_power(e - h)
            out = [ctx.zero() for _ in range(M + 1)]
            chains.append((A, B, out, minA, minB))
            by_power[e] = (out, minA + minB)
        return by_power[e]

    for q in needed:
        ensure_power(q)
    for m in range(1, M + 1):
        for A, B, out, minA, minB in chains:
            acc = None
            for a in range(minA, m - minB + 1):
                if A[a].is_zero() or B[m - a].is_zero():
                    continue
                prod = ctx.mul(A[a], B[m - a])
                acc = prod if acc is None else ctx.add(acc, prod)
            if acc is not None:
                out[m] = acc
        acc = S.c[m]
        for k, q in enumerate(needed, start=1):
            b = by_power[q][0][m]
            if q <= m and not log_elems[k].is_zero() and not b.is_zero():
                acc = ctx.sub(acc, ctx.mul(log_elems[k], b))
        T[m] = acc
    return YSeries(ctx, T)


def test_solve_log_matches_every_index_walk(f21, f31, f22):
    # the last two laws reach T^25 and T^27, where the base-p chains and
    # the halving ones part ways past degree 9
    laws = (f21, f31, f22, build_fgl(3, 2, N=24, D=1, M=30),
            build_fgl(5, 1, N=24, D=1, M=30))
    for fgl in laws:
        ctx = fgl.ctx
        sums = [ser_monomial(ctx, fgl.M, 1)]
        sums += [ser_scale(ctx.from_int(m), fgl.log) for m in (2, 3, -1)]
        sums.append(ser_compose(fgl.log, fgl.m_series(2)))
        for S in sums:
            assert solve_log(ctx, fgl.log_elems, S) == \
                solve_log_every_index(ctx, fgl.log_elems, S)


@pytest.mark.parametrize("p, M, chain", [
    (2, 47, [2, 4, 8, 16, 32]),
    (3, 242, [2, 3, 6, 9, 18, 27, 54, 81]),
    (5, 125, [2, 3, 5, 10, 15, 25, 50, 75, 125]),
])
def test_chain_power_registers_base_p_splits(p, M, chain):
    ctx = CoeffContext(p, 1, N=8, D=0)
    by_power, chains = {1: ([ctx.zero()] * (M + 1), [], 1)}, []
    q = p
    while q <= M:
        _chain_power(ctx, M, by_power, chains, q)
        q *= p
    assert list(by_power)[1:] == chain
    assert len(chains) == len(chain)


def _agree_below(p, a, b, top):
    """Whether scalars a and b agree modulo p^top (below valuation top)."""
    (va, ua, _), (vb, ub, _) = a, b
    lo = min(va, vb)
    if top <= lo:
        return True
    return (ua * p ** (va - lo) - ub * p ** (vb - lo)) % p ** (top - lo) == 0


def test_base_p_chains_against_halving_chains():
    """Where both chains solve without a PrecisionError, the base-p chains
    store the same keys, in the same order, and every scalar agrees with
    the halving chains' modulo p to the least of the two tops (val + prec) and horizon - K, keeping at least as many
    digits below the prune horizon (a top past it counts nothing: at
    (3, 2, 20, 1, 81) the base-p chains' [81](y) has tops 48 where the
    halving ones have 50, horizon 32).  K = log_depth(p, M) bounds the
    negative valuations of the l_k, which carry a term dropped at the
    horizon inside a chain product down to valuation horizon - K in T: at
    (3, 1, 24, 1, 81) both chains' [81](y) claim digits there that a solve
    at N = 60 refutes, and they agree to 34 = horizon - 2."""
    compared = moved = deeper = 0
    for p, n, N, D, M in [(3, 1, 16, 1, 30), (3, 1, 24, 1, 81),
                          (3, 2, 16, 2, 30), (3, 2, 24, 1, 28),
                          (3, 2, 14, 1, 36), (3, 2, 20, 2, 81),
                          (5, 1, 16, 1, 30), (5, 1, 24, 1, 125),
                          (5, 2, 16, 1, 25), (5, 2, 24, 2, 26)]:
        fgl = build_fgl(p, n, N=N, D=D, M=M)
        ctx, horizon = fgl.ctx, fgl.ctx.prune_horizon
        sums = [ser_monomial(ctx, M, 1)]
        sums += [ser_scale(ctx.from_int(p ** k), fgl.log)
                 for k in range(1, log_depth(p, M) + 1)]
        for S in sums:
            try:
                new = solve_log(ctx, fgl.log_elems, S)
                old = solve_log_every_index(ctx, fgl.log_elems, S,
                                            split=halving_split)
            except PrecisionError:
                continue
            compared += 1
            for a, b in zip(new.c, old.c):
                assert list(a.t) == list(b.t)
                for key, c in a.t.items():
                    d = b.t[key]
                    moved += c != d
                    deeper += c[0] + c[2] > d[0] + d[2]
                    assert min(c[0] + c[2], horizon) >= \
                        min(d[0] + d[2], horizon), (p, n, N, D, M, key)
                    top = min(c[0] + c[2], d[0] + d[2],
                              horizon - log_depth(p, M))
                    assert _agree_below(p, c, d, top), (p, n, N, D, M, key)
    # the grid reaches scalars the two chains store differently
    assert compared >= 20 and moved >= 20 and deeper >= 5


def test_m_series_reference(f31, f22):
    for fgl, ms in ((f31, (2, 3, -1)), (f22, (2, 3, -1))):
        ctx = fgl.ctx
        for m in ms:
            ref = oc_series_to_yseries(ctx, oracles.m_series(fgl.p, fgl.n, m, fgl.M))
            assert first_mismatch(ctx, fgl.m_series(m), ref, 10) is None, m
