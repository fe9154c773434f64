import random

import pytest

import oracles as O
from helpers import oc_series_to_yseries

from morava.coeff import CoeffContext
from morava.series import (MultiSeries, YSeries, golden_dump, golden_load,
                           ms_add, ms_eval, ms_from_yseries, ms_mul, ms_new,
                           ms_one, ms_set, ser_add, ser_compose, ser_from_terms,
                           ser_invert_unit, ser_monomial, ser_mul, ser_neg,
                           ser_new, ser_rshift, ser_scale, ser_shift, ser_sub,
                           weierstrass_degree, weierstrass_divide,
                           weierstrass_prepare)


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
    f = ser_from_terms(ctx, 5, {1: ctx.one(), 3: ctx.u_mono(2)})
    z = ser_new(ctx, 5)
    assert ser_mul(f, z).is_zero()


def test_cap_overflow_sets_trunc(ctx):
    M = 4
    ym = ser_monomial(ctx, M, M)
    y = ser_monomial(ctx, M, 1)
    prod = ser_mul(ym, y)
    assert prod.is_zero() and prod.trunc


def test_compose_identity(ctx):
    f = ser_from_terms(ctx, 5, {1: ctx.one(), 2: ctx.u_mono(1), 4: ctx.from_int(-3)})
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
    f = ser_from_terms(ctx, M, {0: ctx.u_mono(1), 1: ctx.one()})
    inv = ser_invert_unit(f)
    # u^{-1} - u^{-2} y + u^{-3} y^2 - ...
    for d in range(M + 1):
        want = ctx.u_mono(-(d + 1), (-1) ** d)
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
        f.c[0] = ctx.u_mono(rng.randint(-2, 2), rng.choice([1, 2, 4, 5]))
        for d in range(1, M + 1):
            f.c[d] = ctx.from_int(rng.randint(-9, 9), rng.randint(-2, 2))
        inv = ser_invert_unit(f)
        back = ser_mul(f, inv)
        assert ctx.eq_to(back.c[0], ctx.one(), 12)
        for d in range(1, M + 1):
            assert ctx.is_zero_to(back.c[d], 12)


def test_weierstrass_trivial_monic(ctx):
    # y + p is already monic of degree 1
    M = 5
    f = ser_from_terms(ctx, M, {0: ctx.from_int(2), 1: ctx.one()})
    assert weierstrass_degree(f) == 1
    U, g = weierstrass_prepare(f)
    assert ctx.eq_to(U.c[0], ctx.one(), 16)
    assert all(U.c[d].is_zero() for d in range(1, M + 1))
    assert g == f


def test_weierstrass_p_series_height_one():
    # doubling series at p=2, n=1 from the exact-rational reference
    ctx = CoeffContext(2, 1, N=16, D=4)
    M = 6
    f = oc_series_to_yseries(ctx, O.m_series(2, 1, 2, M))
    assert weierstrass_degree(f) == 2
    U, g = weierstrass_prepare(f)
    # monic quadratic; linear and constant coefficients in (p)
    assert ctx.eq_to(g.c[2], ctx.one(), 16)
    assert g.c[0].is_zero() or not ctx.reduce_mod_pv(g.c[0])
    assert not ctx.reduce_mod_pv(g.c[1])
    assert all(ctx.is_zero_to(g.c[d], 14) for d in range(3, M + 1))
    # unit constant term of the shape u * (p-adic unit)
    assert ctx.unit_leading_uexp(U.c[0]) == 1
    # recomposition U*g = f at truncation
    back = ser_mul(U, g)
    for d in range(M + 1):
        assert ctx.eq_to(back.c[d], f.c[d], 14)


def test_weierstrass_p_series_height_two():
    # wider working window: division at height 2 cancels past the floor at N=16
    ctx = CoeffContext(2, 2, N=24, D=6)
    M = 9
    f = oc_series_to_yseries(ctx, O.m_series(2, 2, 2, M))
    assert weierstrass_degree(f) == 4
    U, g = weierstrass_prepare(f)
    assert ctx.eq_to(g.c[4], ctx.one(), 14)
    for d in range(4):
        assert not ctx.reduce_mod_pv(g.c[d])
    back = ser_mul(U, g)
    for d in range(M + 1):
        assert ctx.eq_to(back.c[d], f.c[d], 12)


def test_weierstrass_division_identity():
    ctx = CoeffContext(3, 1, N=16, D=4)
    M = 8
    a = oc_series_to_yseries(ctx, O.m_series(3, 1, 3, M))
    f = ser_from_terms(ctx, M, {1: ctx.u_mono(1), 5: ctx.one(), 7: ctx.from_int(5)})
    q, r = weierstrass_divide(f, a)
    d = weierstrass_degree(a)
    assert d == 3
    assert all(r.c[i].is_zero() for i in range(d, M + 1))
    back = ser_add(ser_mul(q, a), r)
    for i in range(M + 1):
        assert ctx.eq_to(back.c[i], f.c[i], 12)


def test_weierstrass_rejects_no_unit(ctx):
    f = ser_from_terms(ctx, 4, {0: ctx.from_int(2), 2: ctx.from_int(6)})
    with pytest.raises(ValueError):
        weierstrass_degree(f)


def test_shift_and_rshift(ctx):
    f = ser_from_terms(ctx, 5, {0: ctx.one(), 2: ctx.u_mono(1)})
    s = ser_shift(f, 2)
    assert s.c[2] == ctx.one() and s.c[4] == ctx.u_mono(1)
    back = ser_rshift(s, 2)
    assert back.M == 3
    assert back.c[0] == ctx.one() and back.c[2] == ctx.u_mono(1)
    with pytest.raises(ValueError):
        ser_rshift(f, 1)


def test_multiseries_caps_and_trunc(ctx):
    A = ms_new(ctx, 2, (2, 2))
    ms_set(A, (1, 0), ctx.one())
    ms_set(A, (0, 1), ctx.one())
    B = ms_mul(A, A)
    assert not B.trunc
    C = ms_mul(B, B)  # degree-4 terms fall off the caps
    assert C.trunc
    assert all(sum(k) <= 4 for k in C.t)
    assert C.coeff((2, 2)) is not None


def test_multiseries_total_cap(ctx):
    A = ms_new(ctx, 2, (4, 4), tcap=3)
    ms_set(A, (1, 0), ctx.one())
    ms_set(A, (0, 1), ctx.one())
    B = ms_mul(ms_mul(A, A), A)
    assert not B.trunc
    D = ms_mul(B, A)
    assert D.trunc and not D.t


def all_pairs_product(A, B):
    """The product as a loop over every pair of terms, testing each sum
    against the caps: the reference for ms_mul."""
    ctx = A.ctx
    t = {}
    trunc = A.trunc or B.trunc
    for ka, ea in A.t.items():
        for kb, eb in B.t.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if any(x > c for x, c in zip(k, A.caps)) or (
                    A.tcap is not None and sum(k) > A.tcap):
                trunc = True
                continue
            prod = ctx.mul(ea, eb)
            s = prod if k not in t else ctx.add(t[k], prod)
            if s.is_zero():
                t.pop(k, None)
            else:
                t[k] = s
    return MultiSeries(ctx, A.r, A.caps, t, trunc, A.tcap)


def assert_same_product(A, B):
    got, want = ms_mul(A, B), all_pairs_product(A, B)
    assert list(got.t) == list(want.t)
    for k, e in want.t.items():
        assert list(got.t[k].t.items()) == list(e.t.items())
        assert got.t[k].trunc == e.trunc
    assert got.trunc == want.trunc
    return got


def random_coeff(rng, ctx):
    e = ctx.zero()
    for _ in range(rng.randint(1, 3)):
        c = ctx.padic.from_int(rng.choice([-1, 1]) * rng.randint(1, 3 ** 8))
        vc = ctx.vcode((rng.randint(0, ctx.D),))
        e = ctx.add(e, ctx.from_scalar(c, rng.randint(-2, 2), vc))
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


# (caps, tcap) in the three shapes the package multiplies: the
# associativity check, two_var(Mx, My, tcap), and point_class_ms
MS_SHAPES = [((6, 6, 6), 6), ((7, 4), 8), ((9, 5), None), ((5, 3, 4), None)]


@pytest.mark.parametrize("caps,tcap", MS_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_ms_mul_matches_all_pairs(caps, tcap, seed):
    rng = random.Random(seed)
    ctx = CoeffContext(3, 2, N=20, D=3, floor=1)
    A = random_ms(rng, ctx, caps, tcap, rng.randint(5, 40))
    B = random_ms(rng, ctx, caps, tcap, rng.randint(5, 40))
    B.trunc = seed == 3
    assert_same_product(A, B)
    assert_same_product(B, A)
    assert_same_product(A, A)


def test_ms_mul_empty_operand(ctx):
    A = ms_new(ctx, 2, (3, 3), tcap=4)
    ms_set(A, (1, 2), ctx.one())
    Z = ms_new(ctx, 2, (3, 3), tcap=4)
    for P in (ms_mul(A, Z), ms_mul(Z, A), ms_mul(Z, Z)):
        assert not P.t and not P.trunc
    Z.trunc = True
    assert assert_same_product(A, Z).trunc


def ms_terms(ctx, caps, tcap, keys):
    A = ms_new(ctx, len(caps), caps, tcap)
    for k in keys:
        ms_set(A, k, ctx.one())
    return A


def test_ms_mul_only_variable_cap_drops(ctx):
    A = ms_terms(ctx, (2, 5), None, [(2, 0), (0, 1)])
    B = ms_terms(ctx, (2, 5), None, [(1, 0), (0, 1)])
    P = assert_same_product(A, B)  # x^2 * x passes the cap of x
    assert P.trunc and set(P.t) == {(2, 1), (1, 1), (0, 2)}
    assert not assert_same_product(B, B).trunc


def test_ms_mul_only_total_cap_drops(ctx):
    A = ms_terms(ctx, (4, 4), 4, [(2, 1)])
    B = ms_terms(ctx, (4, 4), 4, [(1, 0), (0, 2)])
    P = assert_same_product(A, B)  # x^2 y * y^2 has total degree 5
    assert P.trunc and list(P.t) == [(3, 1)]
    C = ms_terms(ctx, (4, 4), 4, [(1, 0), (0, 1)])
    assert not assert_same_product(C, B).trunc


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


def test_golden_roundtrip():
    ctx = CoeffContext(2, 2, N=12, D=5)
    f = ser_new(ctx, 4)
    f.c[1] = ctx.add(ctx.u_mono(2, 3), ctx.v_gen(1))
    f.c[3] = ctx.from_scalar(ctx.padic.from_fraction(7, 4), -1, ctx.vcode((2,)))
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


def _port(ctx, e):
    out = ctx.zero()
    for (ue, vc), c in e.t.items():
        out = ctx.add(out, ctx.from_scalar(c, ue, vc))
    return out


def test_golden_header_and_fields():
    ctx = CoeffContext(3, 1, N=10, D=2)
    f = ser_from_terms(ctx, 3, {2: ctx.u_mono(-1, 2)})
    text = golden_dump(f)
    lines = text.strip().split("\n")
    assert lines[0] == "FGLV1 p=3 n=1 N=10 D=2 M=3"
    assert lines[1] == "2|-1|-|0|2|10"
