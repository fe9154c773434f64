import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from helpers import (count_coeff_products, long_divide_reference,
                     ms_add_into, ms_content, ms_eval_by_products,
                     ms_from_yseries, oc_series_to_yseries, ser_mul_raw,
                     weierstrass_divide_reference,
                     weierstrass_prepare_reference)

import morava.series
from morava.coeff import CoeffContext, CoeffElem
from morava.fgl import build_fgl
from morava.groupcoh import sound_depth
from morava.padic import EXACT, PrecisionError
from morava.series import (MultiSeries, YSeries, _divide, _long_divide,
                           _prepare, _v_join, _v_parts, _zip_with, _zp_add,
                           _zp_invert, _zp_mul, golden_dump, golden_load,
                           ms_eval, ms_mul, ms_new, ms_one,
                           ms_permuted, ms_powers, ms_set, ser_add, ser_compose, ser_from_terms,
                           ser_invert_unit, ser_monomial, ser_mul, ser_new,
                           ser_rshift, ser_scale, ser_sub, ser_truncate,
                           weierstrass_degree, weierstrass_prepare)


@pytest.fixture
def ctx():
    return CoeffContext(2, 1, N=16, D=4)


def const_series(ctx, M, m):
    return ser_from_terms(ctx, M, {0: ctx.from_int(m)})


def test_one_plus_y_times_one_minus_y(ctx):
    M = 6
    f = ser_from_terms(ctx, M, {0: ctx.one(), 1: ctx.one()})
    g = ser_from_terms(ctx, M, {0: ctx.one(), 1: ctx.from_int(-1)})
    prod = ser_mul(f, g)
    want = ser_from_terms(ctx, M, {0: ctx.one(), 2: ctx.from_int(-1)})
    for d in range(M + 1):
        assert ctx.eq_to(prod.c[d], want.c[d], 16)


def test_mul_by_zero(ctx):
    f = ser_from_terms(ctx, 5, {1: ctx.one(), 3: ctx.from_int(3)})
    z = ser_new(ctx, 5)
    assert ser_mul(f, z).is_zero()


def test_add_sub_match_coefficientwise(ctx):
    # a pair of zeros takes the shortcut; the result must be what the
    # coefficient op gives
    a = [ctx.zero(), ctx.zero(), ctx.one(), ctx.zero(), ctx.from_int(5)]
    b = [ctx.zero(), ctx.from_int(3), ctx.zero(), ctx.zero(), ctx.zero()]
    f, g = YSeries(ctx, a), YSeries(ctx, b)
    for op, eop in ((ser_add, ctx.add), (ser_sub, ctx.sub)):
        for x, y in ((f, g), (g, f)):
            got = op(x, y)
            assert got.c == [eop(s, t) for s, t in zip(x.c, y.c)]


def test_cap_overflow_drops_terms(ctx):
    M = 4
    ym = ser_monomial(ctx, M, M)
    y = ser_monomial(ctx, M, 1)
    prod = ser_mul(ym, y)
    assert prod.is_zero() and prod.M == M


def test_compose_identity(ctx):
    f = ser_from_terms(ctx, 5, {1: ctx.one(), 2: ctx.from_int(3), 4: ctx.from_int(-3)})
    ident = ser_monomial(ctx, 5, 1)
    assert ser_compose(f, ident) == f


def test_compose_scaling(ctx):
    # y^2 composed with 2y is 4y^2
    f = ser_monomial(ctx, 4, 2)
    g = ser_from_terms(ctx, 4, {1: ctx.from_int(2)})
    comp = ser_compose(f, g)
    assert ctx.eq_to(comp.c[2], ctx.from_int(4), 16)
    assert all(comp.c[d].is_zero() for d in (0, 1, 3, 4))


def test_compose_frozen(ctx):
    # (y + y^2) o (y + y^2) = y + 2y^2 + 2y^3 + y^4
    f = ser_from_terms(ctx, 4, {1: ctx.one(), 2: ctx.one()})
    comp = ser_compose(f, f)
    want = [0, 1, 2, 2, 1]
    for d in range(5):
        assert ctx.eq_to(comp.c[d], ctx.from_int(want[d]), 16)


def test_compose_rejects_constant_term(ctx):
    f = ser_monomial(ctx, 3, 1)
    g = ser_from_terms(ctx, 3, {0: ctx.one(), 1: ctx.one()})
    with pytest.raises(ValueError):
        ser_compose(f, g)


def test_invert_one(ctx):
    one = const_series(ctx, 5, 1)
    assert ser_invert_unit(one) == one


def test_invert_geometric(ctx):
    M = 6
    f = ser_from_terms(ctx, M, {0: ctx.one(), 1: ctx.from_int(-1)})
    inv = ser_invert_unit(f)
    for d in range(M + 1):
        assert ctx.eq_to(inv.c[d], ctx.one(), 16)


def test_invert_u_plus_y(ctx):
    M = 5
    # the unit 3 in place of u, which is 1 in the coefficients
    f = ser_from_terms(ctx, M, {0: ctx.from_int(3), 1: ctx.one()})
    inv = ser_invert_unit(f)
    # 3^{-1} - 3^{-2} y + 3^{-3} y^2 - ...
    for d in range(M + 1):
        want = ctx.from_scalar(ctx.padic.from_fraction((-1) ** d, 3 ** (d + 1)))
        assert ctx.eq_to(inv.c[d], want, 16)
    back = ser_mul(f, inv)
    assert ctx.eq_to(back.c[0], ctx.one(), 16)
    for d in range(1, M + 1):
        assert ctx.is_zero_to(back.c[d], 16)


def test_invert_rejects_nonunit(ctx):
    f = ser_from_terms(ctx, 3, {0: ctx.from_int(2), 1: ctx.one()})
    with pytest.raises(ValueError):
        ser_invert_unit(f)


def test_invert_randomized_unit_series():
    ctx = CoeffContext(3, 2, N=20, D=3, floor=1)
    rng = random.Random(5)
    for _ in range(40):
        M = rng.randint(3, 8)
        f = ser_new(ctx, M)
        f.c[0] = ctx.from_int(rng.choice([1, 2, 4, 5]))
        for d in range(1, M + 1):
            f.c[d] = ctx.from_int(rng.randint(-9, 9))
        inv = ser_invert_unit(f)
        back = ser_mul(f, inv)
        assert ctx.eq_to(back.c[0], ctx.one(), 12)
        for d in range(1, M + 1):
            assert ctx.is_zero_to(back.c[d], 12)


def prepare_with_unit(f):
    """(U, g) with f = U * g: g is weierstrass_prepare's, and U is the
    inverse of the quotient q of y^d = q * f + r that the same route
    solves, which series._prepare forms on request.  The truncated system
    leaves some top coefficients of q free when f has no constant term,
    so only the route's own q gives back f; the reference loop's does not
    at height two."""
    d = weierstrass_degree(f)
    q, g = _prepare(f, d, full_q=True)
    assert g == weierstrass_prepare(f)
    return ser_invert_unit(q), g


def test_weierstrass_trivial_monic(ctx):
    # y + p is already monic of degree 1
    M = 5
    f = ser_from_terms(ctx, M, {0: ctx.from_int(2), 1: ctx.one()})
    assert weierstrass_degree(f) == 1
    U, g = prepare_with_unit(f)
    assert ctx.eq_to(U.c[0], ctx.one(), 16)
    assert all(U.c[d].is_zero() for d in range(1, M + 1))
    assert g == f


def test_weierstrass_p_series_height_one():
    # doubling series at p=2, n=1 from the exact-rational reference
    ctx = CoeffContext(2, 1, N=16, D=4)
    M = 6
    f = oc_series_to_yseries(ctx, O.m_series(2, 1, 2, M))
    assert weierstrass_degree(f) == 2
    U, g = prepare_with_unit(f)
    # monic quadratic; linear and constant coefficients in (p)
    assert ctx.eq_to(g.c[2], ctx.one(), 16)
    assert g.c[0].is_zero() or not ctx.reduce_mod_pv(g.c[0])
    assert not ctx.reduce_mod_pv(g.c[1])
    assert all(ctx.is_zero_to(g.c[d], 14) for d in range(3, M + 1))
    # unit constant term: u times a p-adic unit, and u = 1
    assert ctx.is_unit(U.c[0])
    # recomposition U*g = f at truncation
    back = ser_mul(U, g)
    for d in range(M + 1):
        assert ctx.eq_to(back.c[d], f.c[d], 14)


def test_weierstrass_p_series_height_two():
    # wider working window: division at height 2 cancels past the floor at
    # N=16.  U comes from the lifted route's own quotient: the reference
    # loop's quotient picks other free top coefficients, and U*g then
    # misses f in the v^3 and v^6 terms at depth 12.
    ctx = CoeffContext(2, 2, N=24, D=6)
    M = 9
    f = oc_series_to_yseries(ctx, O.m_series(2, 2, 2, M))
    assert weierstrass_degree(f) == 4
    U, g = prepare_with_unit(f)
    assert ctx.eq_to(g.c[4], ctx.one(), 14)
    for d in range(4):
        assert not ctx.reduce_mod_pv(g.c[d])
    back = ser_mul(U, g)
    for d in range(M + 1):
        assert ctx.eq_to(back.c[d], f.c[d], 12)


def zp_divide(f, a, want_q=True):
    """(q, r) of the division over Z_p (series._divide) of the v-free part
    of f by that of a, which is all of each at height one, each joined
    back into a YSeries; q is None unless want_q."""
    ctx, M = f.ctx, f.M
    q, r = _divide(ctx, _v_parts(f)[0], _v_parts(a)[0],
                   weierstrass_degree(a), want_q)
    return tuple(s and _v_join(ctx, M, {0: s}) for s in (q, r))


def v_free(f):
    """The v-free part f_0 of f as a YSeries."""
    return _v_join(f.ctx, f.M, {0: _v_parts(f)[0]})


def test_weierstrass_division_identity():
    ctx = CoeffContext(3, 1, N=16, D=4)
    M = 8
    a = oc_series_to_yseries(ctx, O.m_series(3, 1, 3, M))
    f = ser_from_terms(ctx, M, {1: ctx.from_int(4), 5: ctx.one(), 7: ctx.from_int(5)})
    q, r = weierstrass_divide_reference(f, a)
    assert zp_divide(f, a) == (q, r)
    d = weierstrass_degree(a)
    assert d == 3
    assert all(r.c[i].is_zero() for i in range(d, M + 1))
    back = ser_add(ser_mul(q, a), r)
    for i in range(M + 1):
        assert ctx.eq_to(back.c[i], f.c[i], 12)


def test_weierstrass_remainder_matches_quotient_forming_reference():
    """The division over Z_p, forming only the remainder, against the
    reference loop that also sums the quotient: directly at height one,
    and on the v-free part f_0 of [p^k](y) at height two.  Wherever the
    reference does not raise, the remainders are equal.  At (3, 2, N=16, D=1) the reference's unread quotient sum
    over the whole coefficient ring falls short of the floor on [3](y) at
    cap 26, while the remainder alone agrees with the one at N=24, and so
    does the remainder of f_0 over Z_p."""
    compared = 0
    for p, n, N, D, M in [(2, 1, 24, 1, 12), (2, 2, 24, 1, 11),
                          (2, 2, 33, 6, 26), (3, 1, 16, 1, 15),
                          (3, 1, 24, 1, 19), (3, 2, 24, 1, 26)]:
        fgl = build_fgl(p, n, N=N, D=D, M=M)
        ctx = fgl.ctx
        for k in range(1, 3):
            if p ** (n * k) > M:
                break
            a = fgl.pk_series(k)
            if n > 1:
                a = v_free(a)
            yd = ser_monomial(ctx, M, weierstrass_degree(a))
            _, r = zp_divide(yd, a, want_q=False)
            try:
                _, ref = weierstrass_divide_reference(yd, a)
            except PrecisionError:
                continue
            assert r == ref, (p, n, N, D, M, k)
            compared += 1
    assert compared == 10
    low = build_fgl(3, 2, N=16, D=1, M=26)
    a = low.pk_series(1)
    yd = ser_monomial(low.ctx, 26, 9)
    with pytest.raises(PrecisionError):
        weierstrass_divide_reference(yd, a)
    high = build_fgl(3, 2, N=24, D=1, M=26)
    b = high.pk_series(1)
    hd = ser_monomial(high.ctx, 26, 9)
    for got, ref in [
            (weierstrass_divide_reference(yd, a, form_q=False)[1],
             weierstrass_divide_reference(hd, b, form_q=False)[1]),
            (zp_divide(yd, a, want_q=False)[1],
             zp_divide(hd, b, want_q=False)[1])]:
        assert all(low.ctx.eq_to(x, y, 12) for x, y in zip(got.c, ref.c))


def prepare_or_error(prepare, f):
    """prepare(f), or the (text, needed_extra) of its PrecisionError."""
    try:
        return prepare(f)
    except PrecisionError as e:
        return (str(e), e.needed_extra)


def test_lifted_prepare_is_the_loop_at_height_one():
    """At n=1 f has no v-terms, and the route is the reference loop's:
    equal relations, and the same PrecisionError
    with the same needed_extra wherever either one raises."""
    raised = compared = 0
    for p, N, M in [(2, 16, 6), (2, 24, 6), (2, 16, 9), (2, 25, 12),
                    (3, 16, 11), (3, 24, 11), (3, 16, 21), (3, 24, 33),
                    (5, 16, 24), (5, 24, 30)]:
        fgl = build_fgl(p, 1, N=N, D=1, M=M)
        for k in (1, 2):
            if p ** k > M:
                break
            f = fgl.pk_series(k)
            got = prepare_or_error(weierstrass_prepare, f)
            assert got == prepare_or_error(weierstrass_prepare_reference, f), \
                (p, N, M, k)
            raised += isinstance(got, tuple)
            compared += 1
    assert (compared, raised) == (19, 6)


def m_adic_order(g, h):
    """Least val + total v-degree over the terms of g - h, two series at one
    p, n and D but maybe different N, each scalar compared modulo the
    lesser of the two absolute precisions."""
    ctx = g.ctx
    p = ctx.p

    def value(c):
        v, u, k = c
        return (u * p ** v, v + k) if u else (0, v)

    order = None
    for a, b in zip(g.c, h.c):
        for vc in set(a.t) | set(b.t):
            xa, ta = value(a.t.get(vc, (EXACT, 0, 0)))
            xb, tb = value(b.t.get(vc, (EXACT, 0, 0)))
            top = min(ta, tb)
            diff = (xa - xb) % p ** top
            v = 0
            while diff and v < top and not diff % p:
                diff //= p
                v += 1
            o = (top if not diff else v) + ctx.vtotal[vc]
            order = o if order is None else min(order, o)
    return order


@pytest.mark.parametrize("p,n,N,D,M", [
    (2, 2, 24, 1, 20), (2, 2, 33, 6, 26), (2, 2, 40, 12, 44),
    (3, 2, 24, 1, 30), (3, 2, 24, 6, 66), (3, 2, 30, 12, 30),
    (2, 3, 24, 1, 23), (2, 3, 33, 1, 70), (2, 3, 30, 6, 58),
    (2, 3, 24, 12, 12),
])
def test_lifted_prepare_agrees_with_loop_to_sound_depth(p, n, N, D, M):
    """[p](y) and [p^2](y) (where the cap reaches its degree) at n=2 and
    n=3: key by key, the lifted relation agrees with the reference loop's
    to the junk-sound depth of the cap, at a precision where the loop
    does not raise.  The tightest margin is at (3, 2, 24, 6, 66), 8
    digits against 7."""
    fgl = build_fgl(p, n, N=N, D=D, M=M)
    ctx = fgl.ctx
    for k in (1, 2):
        d = p ** (n * k)
        if d > M:
            break
        f = fgl.pk_series(k)
        g = weierstrass_prepare(f)
        ref = weierstrass_prepare_reference(f)
        depth = sound_depth(p, n, (k,), D, (M,))
        assert all(ctx.eq_to(a, b, depth) for a, b in zip(g.c, ref.c))
        assert g.c[d] == ctx.one() and all(e.is_zero() for e in g.c[d + 1:])


def test_lifted_prepare_against_a_high_cap_relation():
    """[2](y) at p=2, n=2, D=6: the relation at cap 48 and N=60 stands for
    the true one.  Cut from a law at N=33, cap 48, the lifted route agrees
    with it to m-adic orders 5, 6, 10, 11 at caps 9, 12, 17, 24; the loop
    to 5, 6, 9, 11.  On a law built at cap 33 and N=24 the loop raises at
    the floor, while the lifted route reaches order 16."""
    high = weierstrass_prepare(build_fgl(2, 2, N=60, D=6, M=48).pk_series(1))
    s48 = build_fgl(2, 2, N=33, D=6, M=48).pk_series(1)
    got, ref = [], []
    for cap in (9, 12, 17, 24):
        s = ser_truncate(s48, cap)
        got.append(m_adic_order(weierstrass_prepare(s), high))
        ref.append(m_adic_order(weierstrass_prepare_reference(s), high))
    assert all(a >= b for a, b in zip(got, ref))
    assert (got, ref) == ([5, 6, 10, 11], [5, 6, 9, 11])
    s = build_fgl(2, 2, N=24, D=6, M=33).pk_series(1)
    with pytest.raises(PrecisionError):
        weierstrass_prepare_reference(s)
    assert m_adic_order(weierstrass_prepare(s), high) == 16


def test_lifted_prepare_solves_the_truncated_system_at_height_three():
    """At n=3 the v-multidegrees are pairs, and q_c f_e feeds the v^b part
    only when c + e = b digit by digit: (1, 0) + (D, 0) packs to the code
    of (0, 1), which must not count.  The route's own q and g satisfy
    q*f = g to the working precision, on every key, and g's low
    coefficients lie in the maximal ideal."""
    fgl = build_fgl(2, 3, N=24, D=4, M=20)
    ctx = fgl.ctx
    f = fgl.pk_series(1)
    q, g = _prepare(f, 8, full_q=True)
    assert {ctx.vexps(vc) for e in g.c for vc in e.t} >= {(1, 1), (0, 2)}
    back = ser_mul_raw(q, f)
    assert all(ctx.eq_to(a, b, 16) for a, b in zip(back.c, g.c))
    assert all(not ctx.reduce_mod_pv(g.c[i]) for i in range(8))
    assert g == weierstrass_prepare(f)


# Preparation runs over Z_p on lists of scalars (series._zp_*), each
# function leaving what its YSeries namesake leaves on coefficients keyed 0
# alone: the same scalars, PrecisionError and needed_extra.

ZP_CONTEXTS = [(2, 1, 6, 1, 3), (3, 2, 4, 2, 2), (5, 1, 3, 0, None)]


def zp_join(ctx, S):
    """A Z_p list as the YSeries of one-key coefficients it stands for."""
    return _v_join(ctx, len(S) - 1, {0: S})


def ys_outcome(fn, *args):
    """Every stored scalar of the YSeries fn returns (or of each one in the
    tuple it returns), or the text and needed_extra of its
    PrecisionError."""
    try:
        out = fn(*args)
    except PrecisionError as e:
        return ("error", str(e), e.needed_extra)
    return [[list(e.t.items()) for e in f.c]
            for f in (out if isinstance(out, tuple) else (out,))]


@st.composite
def zp_scalars(draw, ctx):
    """Units of every precision at small and near-horizon valuations, and
    zero markers of every depth under the prune horizon."""
    p, N, horizon = ctx.p, ctx.N, ctx.prune_horizon
    if draw(st.integers(0, 3)) == 0:
        return (draw(st.integers(0, horizon - 1)), 0, 0)
    k = draw(st.integers(1, N))
    u = p * draw(st.integers(0, p ** (k - 1) - 1)) + draw(st.integers(1, p - 1))
    v = draw(st.one_of(st.integers(-2, 3),
                       st.integers(horizon - N - 2, horizon - 1)))
    return (v, u, k)


@st.composite
def zp_series(draw, ctx, M, below=None):
    """A Z_p list with entries only below y^below, when given."""
    top = M + 1 if below is None else below
    c = [draw(st.one_of(st.none(), zp_scalars(ctx))) for _ in range(top)]
    return c + [None] * (M + 1 - top)


@pytest.mark.parametrize("p,n,N,D,floor", ZP_CONTEXTS)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_zp_lists_match_one_key_series(p, n, N, D, floor, data):
    ctx = CoeffContext(p, n, N=N, D=D, floor=floor)
    M = data.draw(st.integers(1, 6))
    F, G = data.draw(zp_series(ctx, M)), data.draw(zp_series(ctx, M))
    f, g = zp_join(ctx, F), zp_join(ctx, G)
    raw = data.draw(st.booleans())
    assert ys_outcome(lambda: zp_join(ctx, _zp_mul(ctx, F, G, raw))) == \
        ys_outcome(ser_mul_raw if raw else ser_mul, f, g)
    assert ys_outcome(lambda: zp_join(ctx, _zp_add(ctx, F, G, neg=True))) \
        == ys_outcome(ser_sub, f, g)
    assert ys_outcome(lambda: zp_join(ctx, _zp_add(ctx, F, G, raw=True))) \
        == ys_outcome(_zip_with, ctx.add_raw, f, g)
    d = data.draw(st.integers(1, M))
    R = data.draw(zp_series(ctx, M, below=d))
    assert ys_outcome(lambda: tuple(zp_join(ctx, S) for S in
                                    _long_divide(ctx, F, R, d))) == \
        ys_outcome(long_divide_reference, f, zp_join(ctx, R), d)
    u = data.draw(st.integers(1, p ** N - 1).filter(lambda x: x % p))
    H = [(0, u, N)] + F[1:]
    assert ys_outcome(lambda: zp_join(ctx, _zp_invert(ctx, H))) == \
        ys_outcome(ser_invert_unit, zp_join(ctx, H))


def test_zp_lists_reach_markers_pruning_and_the_floor():
    """The cases the drawn series above must reach, each made once: a zero
    marker times a unit, a pair pruned at the horizon, and a sum falling
    short of the floor (1 + 15 = 2^4 at 6 digits keeps 2, floor 3)."""
    ctx = CoeffContext(2, 1, N=6, D=1, floor=3)
    one = (0, 1, 6)
    cases = {
        "marker": ([(2, 0, 0), one], [(0, 3, 6), None]),
        "pruned": ([(10, 1, 6), None], [(9, 1, 6), None]),
        "floor": ([one, one], [one, (0, 15, 6)]),
    }
    got = {}
    for name, (fc, gc) in cases.items():
        out = ys_outcome(lambda: zp_join(ctx, _zp_mul(ctx, fc, gc)))
        assert out == ys_outcome(ser_mul, zp_join(ctx, fc), zp_join(ctx, gc))
        got[name] = out
    assert got["marker"][0][0] == [(0, (2, 0, 0))]
    assert got["pruned"][0][0] == []
    assert got["floor"] == ("error", "stored coefficient would keep only 2 "
                            "trusted digits (floor 3)", 1)


def _lift(p, c, lift):
    """The rational unit * p**val + lift * p**(val + prec) that the scalar
    c stands for (lift * p**val for a zero marker)."""
    v, u, k = c
    return (u + lift * p ** k) * Fraction(p) ** v


@pytest.mark.parametrize("p,N", [(2, 8), (3, 5)])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_zp_product_matches_rational_oracle(p, N, data):
    """Each scalar read as a drawn lift: every stored product scalar agrees
    with the rational product modulo its own p**(val + prec), below the
    prune horizon, and an empty coefficient is 0 to the horizon."""
    ctx = CoeffContext(p, 1, N=N, D=1, floor=1)
    horizon = ctx.prune_horizon
    M = data.draw(st.integers(1, 6))
    F, G = data.draw(zp_series(ctx, M)), data.draw(zp_series(ctx, M))
    lifts = st.integers(-p * p, p * p)
    qf, qg = ([O.qc_const(_lift(p, c, data.draw(lifts)), 1) if c else {}
               for c in S] for S in (F, G))
    want = O.ser_mul(qf, qg)
    for c, q in zip(_zp_mul(ctx, F, G), want):
        exact = q.get((0, ()), Fraction(0))
        bound, stored = horizon, Fraction(0)
        if c is not None:
            bound, stored = min(c[0] + c[2], horizon), _lift(p, c, 0)
        diff = exact - stored
        if diff:
            v, a, b = 0, diff.numerator, diff.denominator
            while a % p == 0:
                a, v = a // p, v + 1
            while b % p == 0:
                b, v = b // p, v - 1
            assert v >= bound, (c, exact)


def test_weierstrass_rejects_no_unit(ctx):
    f = ser_from_terms(ctx, 4, {0: ctx.from_int(2), 2: ctx.from_int(6)})
    with pytest.raises(ValueError):
        weierstrass_degree(f)


def test_shift_and_rshift(ctx):
    f = ser_from_terms(ctx, 5, {0: ctx.one(), 2: ctx.from_int(3)})
    s = ser_mul(f, ser_monomial(ctx, 5, 2))
    assert s.c[2] == ctx.one() and s.c[4] == ctx.from_int(3)
    back = ser_rshift(s, 2)
    assert back.M == 3
    assert back.c[0] == ctx.one() and back.c[2] == ctx.from_int(3)
    with pytest.raises(ValueError):
        ser_rshift(f, 1)


def exps_of(A):
    """The exponent vectors of A's terms."""
    return {x for x, _ in A.items()}


def test_multiseries_caps_and_trunc(ctx):
    A = ms_new(ctx, 2, (2, 2))
    ms_set(A, (1, 0), ctx.one())
    ms_set(A, (0, 1), ctx.one())
    B = ms_mul(A, A)
    assert exps_of(B) == {(2, 0), (1, 1), (0, 2)}
    C = ms_mul(B, B)  # x^4, x^3*y, x*y^3 and y^4 fall off the caps
    assert exps_of(C) == {(2, 2)}


def test_multiseries_total_cap(ctx):
    A = ms_new(ctx, 2, (4, 4), tcap=3)
    ms_set(A, (1, 0), ctx.one())
    ms_set(A, (0, 1), ctx.one())
    B = ms_mul(ms_mul(A, A), A)
    assert exps_of(B) == {(3, 0), (2, 1), (1, 2), (0, 3)}
    D = ms_mul(B, A)
    assert not D.t


def all_pairs_product(A, B):
    """The product as a loop over every pair of terms, testing each sum
    against the caps: the reference for ms_mul."""
    ctx = A.ctx
    t = {}
    for ka, ea in A.items():
        for kb, eb in B.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if any(x > c for x, c in zip(k, A.caps)) or (
                    A.tcap is not None and sum(k) > A.tcap):
                continue
            prod = ctx.mul(ea, eb)
            s = prod if k not in t else ctx.add(t[k], prod)
            if s.is_zero():
                t.pop(k, None)
            else:
                t[k] = s
    return MultiSeries(ctx, A.r, A.caps,
                       {A.key(k): e for k, e in t.items()}, A.tcap)


def assert_same_product(A, B):
    got = ms_mul(A, B)
    assert ms_content(got) == ms_content(all_pairs_product(A, B))
    return got


def random_coeff(rng, ctx):
    e = ctx.zero()
    for _ in range(rng.randint(1, 3)):
        c = ctx.padic.from_int(rng.choice([-1, 1]) * rng.randint(1, 3 ** 8))
        vc = ctx.vcode((rng.randint(0, ctx.D),))
        e = ctx.add(e, ctx.from_scalar(c, vc))
    return e


def random_ms(rng, ctx, caps, tcap, nterms):
    A = ms_new(ctx, len(caps), caps, tcap)
    top = sum(caps) if tcap is None else tcap
    for _ in range(nterms):
        exps = [0] * len(caps)
        for _ in range(rng.randint(0, top)):
            i = rng.randrange(len(caps))
            if exps[i] < caps[i]:
                exps[i] += 1
        ms_set(A, exps, random_coeff(rng, ctx))
    return A


# (caps, tcap) in the shapes that get multiplied: the associativity check,
# two_var(Mx, My, tcap), and the per-term class reference of the ring tests
MS_SHAPES = [((6, 6, 6), 6), ((7, 4), 8), ((9, 5), None), ((5, 3, 4), None)]


@pytest.mark.parametrize("caps,tcap", MS_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_ms_mul_matches_all_pairs(caps, tcap, seed):
    rng = random.Random(seed)
    ctx = CoeffContext(3, 2, N=20, D=3, floor=1)
    A = random_ms(rng, ctx, caps, tcap, rng.randint(5, 40))
    B = random_ms(rng, ctx, caps, tcap, rng.randint(5, 40))
    assert_same_product(A, B)
    assert_same_product(B, A)
    assert_same_product(A, A)


def test_ms_mul_empty_operand(ctx):
    A = ms_new(ctx, 2, (3, 3), tcap=4)
    ms_set(A, (1, 2), ctx.one())
    Z = ms_new(ctx, 2, (3, 3), tcap=4)
    for P in (ms_mul(A, Z), ms_mul(Z, A), ms_mul(Z, Z)):
        assert not P.t
    assert not assert_same_product(A, Z).t


def ms_terms(ctx, caps, tcap, keys):
    A = ms_new(ctx, len(caps), caps, tcap)
    for k in keys:
        ms_set(A, k, ctx.one())
    return A


def test_ms_mul_only_variable_cap_drops(ctx):
    A = ms_terms(ctx, (2, 5), None, [(2, 0), (0, 1)])
    B = ms_terms(ctx, (2, 5), None, [(1, 0), (0, 1)])
    P = assert_same_product(A, B)  # x^2 * x passes the cap of x
    assert exps_of(P) == {(2, 1), (1, 1), (0, 2)}
    assert exps_of(assert_same_product(B, B)) == {(2, 0), (1, 1), (0, 2)}


def test_ms_mul_only_total_cap_drops(ctx):
    A = ms_terms(ctx, (4, 4), 4, [(2, 1)])
    B = ms_terms(ctx, (4, 4), 4, [(1, 0), (0, 2)])
    P = assert_same_product(A, B)  # x^2 y * y^2 has total degree 5
    assert [x for x, _ in P.items()] == [(3, 1)]
    C = ms_terms(ctx, (4, 4), 4, [(1, 0), (0, 1)])
    assert exps_of(assert_same_product(C, B)) == {(2, 0), (1, 2), (1, 1),
                                                  (0, 3)}


def ms_add(A, B):
    """A + B in a new series, key by key in B's order: a sum that is zero
    drops its key, a new key goes to the end."""
    ctx = A.ctx
    t = dict(A.t)
    for k, e in B.t.items():
        s = ctx.add(t[k], e) if k in t else e
        if s.is_zero():
            t.pop(k, None)
        else:
            t[k] = s
    return MultiSeries(ctx, A.r, A.caps, t, A.tcap)


@pytest.mark.parametrize("seed", range(3))
def test_ms_add_into_matches_ms_add(seed):
    # keys that cancel, keys shared, keys new; in place, same order and
    # values as the copying sum
    rng = random.Random(seed)
    ctx = CoeffContext(3, 2, N=20, D=3, floor=1)
    A = random_ms(rng, ctx, (5, 3), None, 12)
    B = random_ms(rng, ctx, (5, 3), None, 12)
    for k, e in list(A.items())[:3]:
        ms_set(B, k, ctx.neg(e))
    want = ms_add(A, B)
    t = A.t
    got = ms_add_into(A, B)
    assert got is A and A.t is t
    assert list(got.items()) == list(want.items())


def ms_powers_per_square(A):
    """ms_powers as it was before odd powers reused the even square: an odd
    e squares A^(e//2) again and multiplies by A.  The reference the
    current ms_powers must agree with."""
    cache = {0: ms_one(A.ctx, A.r, A.caps, A.tcap), 1: A}

    def power(e):
        chain = []
        while e not in cache:
            chain.append(e)
            e //= 2
        for e in reversed(chain):
            half = cache[e // 2]
            res = ms_mul(half, half)
            cache[e] = ms_mul(res, A) if e % 2 else res
        return cache[e]
    return power


def with_zero_markers(rng, A):
    """A with a shallow zero marker added to about a third of its
    coefficients, and one coefficient that is nothing but a marker."""
    ctx = A.ctx
    for k, e in list(A.t.items()):
        if rng.random() < 0.35:
            t = dict(e.t)
            t.setdefault(ctx.vcode((rng.randint(0, ctx.D),)),
                         (rng.randint(1, 6), 0, 0))
            A.t[k] = CoeffElem(ctx, t)
    A.t[A.key((1,) + (0,) * (A.r - 1))] = CoeffElem(ctx, {0: (3, 0, 0)})
    return A


# small enough that twenty powers per order stay quick
POWER_SHAPES = [((4, 4), 5), ((6, 3), None), ((4, 4, 4), 4), ((3, 2, 2), None)]


@pytest.mark.parametrize("caps,tcap", POWER_SHAPES)
@pytest.mark.parametrize("seed", range(2))
def test_ms_powers_matches_per_square_reference(caps, tcap, seed):
    # every power, asked for in ascending, descending and shuffled order,
    # so odd exponents meet A^(e-1) both cached and not yet made
    rng = random.Random(seed)
    ctx = CoeffContext(3, 2, N=20, D=3, floor=1)
    A = with_zero_markers(rng, random_ms(rng, ctx, caps, tcap,
                                         rng.randint(4, 8)))
    # with a unit constant term no power dies out below e = 20
    zero = A.key((0,) * len(caps))
    if seed == 0:
        A.t[zero] = ctx.from_int(rng.randint(1, 4) * 3 + 1)
    else:
        A.t.pop(zero, None)
    want = ms_powers_per_square(A)
    exps = list(range(21))
    shuffled = exps[:]
    rng.shuffle(shuffled)
    for order in (exps, exps[::-1], shuffled):
        power = ms_powers(A)
        for e in order:
            assert ms_content(power(e)) == ms_content(want(e)), e
    assert power(1) is A
    assert bool(power(20).t) == (seed == 0)


def test_ms_powers_odd_power_reuses_even_square(monkeypatch):
    rng = random.Random(5)
    ctx = CoeffContext(3, 2, N=20, D=3, floor=1)
    A = random_ms(rng, ctx, (4, 4, 4), 4, 6)
    A.t[A.key((0, 0, 0))] = ctx.from_int(7)
    muls = []
    real_mul = morava.series.ms_mul

    def counted(X, Y):
        muls.append((X, Y))
        return real_mul(X, Y)

    monkeypatch.setattr(morava.series, "ms_mul", counted)
    power = ms_powers(A)
    A6 = power(6)
    del muls[:]
    products = count_coeff_products(monkeypatch)
    A7 = power(7)
    # one ms_mul, A^6 * A, with the coefficient products of that one call
    assert len(muls) == 1 and muls[0][0] is A6 and muls[0][1] is A
    spent = len(products)
    assert spent > 0 and A7.t
    assert ms_content(real_mul(A6, A)) == ms_content(A7)
    assert len(products) == 2 * spent
    # asked first, an odd power leaves the square it made for the next call
    power = ms_powers(A)
    power(5)
    del muls[:]
    power(4)
    assert not muls


def test_ms_permuted_renames_and_checks_caps(ctx):
    A = ms_new(ctx, 3, (3, 3, 3), tcap=4)
    for k in [(1, 2, 0), (0, 0, 1), (3, 0, 0)]:
        ms_set(A, k, ctx.from_int(sum(k) + 1))
    R = ms_permuted(A, (2, 0, 1))
    assert [x for x, _ in R.items()] == [(0, 1, 2), (1, 0, 0), (0, 3, 0)]
    assert list(R.t.values()) == list(A.t.values())
    assert (R.caps, R.tcap) == (A.caps, A.tcap)
    B = ms_new(ctx, 3, (3, 3, 2))
    ms_permuted(B, (1, 0, 2))  # swaps the two variables of cap 3
    for perm in ((2, 0, 1), (0, 2, 1)):
        with pytest.raises(ValueError):
            ms_permuted(B, perm)
    with pytest.raises(ValueError):
        ms_permuted(A, (0, 0, 1))


def test_ms_eval_substitution(ctx):
    # F(x, y) = x + y + x*y evaluated at (t^2, t^3)
    F = ms_new(ctx, 2, (3, 3))
    ms_set(F, (1, 0), ctx.one())
    ms_set(F, (0, 1), ctx.one())
    ms_set(F, (1, 1), ctx.one())
    t2 = ms_from_yseries(ser_monomial(ctx, 8, 2), 1, (8,), 0)
    t3 = ms_from_yseries(ser_monomial(ctx, 8, 3), 1, (8,), 0)
    out = ms_eval(F, [t2, t3])
    assert ctx.eq_to(out.coeff((2,)), ctx.one(), 16)
    assert ctx.eq_to(out.coeff((3,)), ctx.one(), 16)
    assert ctx.eq_to(out.coeff((5,)), ctx.one(), 16)
    assert len(out.t) == 3


def _unit_gen(ctx, caps, tcap, i):
    """Variable i."""
    g = ms_new(ctx, len(caps), caps, tcap)
    e = [0] * len(caps)
    e[i] = 1
    ms_set(g, e, ctx.one())
    return g


@pytest.mark.parametrize("caps,tcap", MS_SHAPES)
@pytest.mark.parametrize("kinds", ["sv", "vs", "vv"])
@pytest.mark.parametrize("seed", range(2))
def test_ms_eval_matches_product_route(caps, tcap, kinds, seed):
    # arguments are random series (s) or variables (v) with coefficient
    # one, whose powers become key shifts; F's terms then meet
    # per-variable caps, the total cap and products that vanish under D
    rng = random.Random(seed)
    ctx = CoeffContext(3, 2, N=20, D=3, floor=1)
    r = len(caps)
    F = random_ms(rng, ctx, (4, 4), None, 10)
    ms_set(F, (0, 0), ctx.zero())
    args = []
    for kind in kinds:
        if kind == "v":
            args.append(_unit_gen(ctx, caps, tcap, rng.randrange(r)))
        else:
            A = random_ms(rng, ctx, caps, tcap, 5)
            ms_set(A, (0,) * r, ctx.zero())
            args.append(A)
    want = ms_eval_by_products(F, [ms_powers(A) for A in args])
    assert ms_content(ms_eval(F, args)) == ms_content(want)


def test_ms_eval_empty_product_leaves_key():
    # F = v_1*X + Y on (v_1*x, x) at D=1: Y puts 1 on x, then the product
    # v_1*v_1 vanishes under the cap and leaves that key alone; with
    # (1 + v_1)*x for X's argument it lands
    ctx = CoeffContext(3, 2, N=12, D=1)
    v = ctx.v_gen(1)
    F = ms_new(ctx, 2, (2, 2))
    ms_set(F, (1, 0), v)
    ms_set(F, (0, 1), ctx.one())
    x = _unit_gen(ctx, (3,), None, 0)
    for c, terms in ((v, {0: ctx.padic.one()}),
                     (ctx.add(ctx.one(), v),
                      {0: ctx.padic.one(), 1: ctx.padic.one()})):
        A = ms_new(ctx, 1, (3,))
        ms_set(A, (1,), c)
        out = ms_eval(F, [A, x])
        assert ms_content(out) == ms_content(
            ms_eval_by_products(F, [ms_powers(A), ms_powers(x)]))
        assert [(x, e.t) for x, e in out.items()] == [((1,), terms)]


# Packed keys: the layout of each shape against exponent tuples


@st.composite
def ms_shapes(draw, max_cap=40):
    """(caps, tcap): one to four caps, and no total cap or one below,
    at or above the sum of the caps."""
    caps = tuple(draw(st.lists(st.integers(0, max_cap), min_size=1,
                               max_size=4)))
    tcap = draw(st.none() | st.integers(0, sum(caps) + 3))
    return caps, tcap


def under(caps, tcap):
    """Exponent vectors under the caps."""
    return st.tuples(*(st.integers(0, c) for c in caps)).filter(
        lambda x: tcap is None or sum(x) <= tcap)


def passes(x, caps, tcap):
    return any(a > c for a, c in zip(x, caps)) or (
        tcap is not None and sum(x) > tcap)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_key_exps_round_trip(data):
    caps, tcap = data.draw(ms_shapes())
    A = ms_new(CoeffContext(2, 1, N=8, D=1), len(caps), caps, tcap)
    x = data.draw(under(caps, tcap))
    k = A.key(x)
    assert k is not None and A.exps(k) == x
    assert k >> A.layout.dshift == sum(x)
    assert A.key(list(x)) == k


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_guard_fires_exactly_past_a_cap(data):
    caps, tcap = data.draw(ms_shapes())
    A = ms_new(CoeffContext(2, 1, N=8, D=1), len(caps), caps, tcap)
    a, b = data.draw(under(caps, tcap)), data.draw(under(caps, tcap))
    ka, kb = A.key(a), A.key(b)
    s = tuple(x + y for x, y in zip(a, b))
    lay = A.layout
    assert bool((ka + kb + lay.bias) & lay.guard) == passes(s, caps, tcap)
    if not passes(s, caps, tcap):
        assert ka + kb == A.key(s)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_past_a_cap_reads_and_stores_nothing(data):
    # every vector under the caps holds its own coefficient; a vector past
    # a cap, or with a negative exponent, reads zero and stores nothing
    caps, tcap = data.draw(ms_shapes(max_cap=5))
    ctx = CoeffContext(2, 1, N=16, D=1)
    A = ms_new(ctx, len(caps), caps, tcap)
    every = [x for x in itertools.product(*(range(c + 1) for c in caps))
             if not passes(x, caps, tcap)]
    for m, x in enumerate(every, 1):
        ms_set(A, x, ctx.from_int(m))
    before = list(A.items())
    x = data.draw(st.tuples(*(st.integers(-2, c + 6) for c in caps)).filter(
        lambda x: min(x) < 0 or passes(x, caps, tcap)))
    assert A.key(x) is None and A.coeff(x).is_zero()
    ms_set(A, x, ctx.from_int(len(every) + 1))
    ms_set(A, x, ctx.zero())
    assert list(A.items()) == before
    assert [A.coeff(x) for x in every] == [
        ctx.from_int(m) for m in range(1, len(every) + 1)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_sorting_by_exps_is_tuple_order(data):
    caps, tcap = data.draw(ms_shapes())
    A = ms_new(CoeffContext(2, 1, N=8, D=1), len(caps), caps, tcap)
    xs = data.draw(st.lists(under(caps, tcap), max_size=30, unique=True))
    keys = [A.key(x) for x in xs]
    assert [A.exps(k) for k in sorted(keys, key=A.exps)] == sorted(xs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_golden_round_trip_of_a_multiseries(data):
    # a series in the shape of a law file comes back equal, keyed in the
    # order of its exponent tuples, the order the file lists them in; a
    # second round trip keeps that order and the text.  A series with no
    # term has no text: its header alone would read back as a one-variable
    # series
    ctx = CoeffContext(3, 2, N=12, D=3)
    r, M = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 8))
    F = ms_new(ctx, r, (M,) * r, tcap=M)
    for x in data.draw(st.lists(under((M,) * r, M), max_size=25)):
        e = ctx.zero()
        # distinct v-codes: two scalars summed at one code could fall
        # short of the floor
        for b in data.draw(st.lists(st.integers(0, 3), min_size=1,
                                    max_size=3, unique=True)):
            e = ctx.add(e, ctx.from_scalar(
                ctx.padic.from_int(data.draw(st.integers(1, 3 ** 6))),
                ctx.vcode((b,))))
        ms_set(F, x, e)
    if not F.t:
        with pytest.raises(ValueError, match="no terms"):
            golden_dump(F)
        return
    text = golden_dump(F)
    G = golden_load(text)
    assert (G.r, G.caps, G.tcap) == (F.r, F.caps, F.tcap)
    assert G == F
    assert [x for x, _ in G.items()] == sorted(x for x, _ in F.items())
    H = golden_load(golden_dump(G))
    assert ms_content(H) == ms_content(G) and golden_dump(H) == text


@pytest.mark.parametrize("p,n,N,D,M", [(2, 1, 24, 1, 12), (3, 2, 16, 2, 9)])
def test_golden_round_trip_of_a_law(p, n, N, D, M):
    F = build_fgl(p, n, N=N, D=D, M=M).F
    G = golden_load(golden_dump(F))
    assert (G.caps, G.tcap) == (F.caps, F.tcap) and G == F
    assert ms_content(golden_load(golden_dump(G))) == ms_content(G)


def test_golden_roundtrip():
    ctx = CoeffContext(2, 2, N=12, D=5)
    f = ser_new(ctx, 4)
    f.c[1] = ctx.add(ctx.from_int(3), ctx.v_gen(1))
    f.c[3] = ctx.from_scalar(ctx.padic.from_fraction(7, 4), ctx.vcode((2,)))
    text = golden_dump(f)
    g = golden_load(text)
    assert g.M == f.M
    for d in range(5):
        assert g.ctx.eq_to(g.c[d], _port(g.ctx, f.c[d]), 10)
    # byte-identical second dump
    assert golden_dump(g) == text


@pytest.mark.parametrize("fields", [
    "0|1|11",     # prec past N
    "0|1|-1",     # negative prec
    "0|10|10",    # unit divisible by p
    "0|3125|5",   # unit not below p^prec
    "0|-1|10",    # negative unit
    "4|0|3",      # zero with nonzero prec
])
def test_golden_load_rejects_scalars_outside_invariants(fields):
    head = "FGLV1 p=5 n=1 N=10 D=2 M=3"
    assert golden_load(head + "\n1|0|-|0|1|10\n")
    with pytest.raises(ValueError):
        golden_load(head + "\n1|0|-|%s\n" % fields)


@pytest.mark.parametrize("lines", [
    ["1|0|-|0|1|10", "1|0|-|0|2|10"],        # one variable
    ["0,1|0|-|0|1|10", "0,1|0|-|0|4|10"],    # under the caps
    ["2,2|3|-|0|1|10", "2,2|3|-|0|1|10"],    # past the total cap M=3
])
def test_golden_load_rejects_repeated_line(lines):
    # golden_dump writes one line per (y-exponents, v-multidegree); a
    # repeat is a damaged file, whatever its scalars would sum to
    head = "FGLV1 p=5 n=1 N=10 D=2 M=3"
    golden_load("\n".join([head] + lines[:1]))
    with pytest.raises(ValueError, match="repeated"):
        golden_load("\n".join([head] + lines))


def _port(ctx, e):
    out = ctx.zero()
    for vc, c in e.t.items():
        out = ctx.add(out, ctx.from_scalar(c, vc))
    return out


def test_golden_header_and_fields():
    ctx = CoeffContext(3, 1, N=10, D=2)
    f = ser_from_terms(ctx, 3, {2: ctx.from_int(2)})
    text = golden_dump(f)
    lines = text.strip().split("\n")
    assert lines[0] == "FGLV1 p=3 n=1 N=10 D=2 M=3"
    # the coefficient of y^2 has weight 1: the grading gives it u^1
    assert lines[1] == "2|1|-|0|2|10"


def test_golden_load_rejects_u_exponent_off_the_grading():
    # the coefficient of y^d has weight d - 1, so its v-free term carries
    # u^(d-1) and its v_1 term u^(d-1-(p-1)); any other exponent is a file
    # that no law wrote
    ctx = CoeffContext(3, 2, N=10, D=2)
    f = ser_from_terms(ctx, 3, {1: ctx.one(),
                                3: ctx.add(ctx.from_int(2), ctx.v_gen(1))})
    text = golden_dump(f)
    lines = text.split("\n")
    assert lines[1:4] == ["1|0|0|0|1|10", "3|2|0|0|2|10", "3|0|1|0|1|10"]
    assert golden_dump(golden_load(text)) == text
    for i, bad in ((1, "1|1|0|0|1|10"), (2, "3|1|0|0|2|10"),
                   (3, "3|2|1|0|1|10")):
        broken = lines[:i] + [bad] + lines[i + 1:]
        with pytest.raises(ValueError, match="u-exponent"):
            golden_load("\n".join(broken))
