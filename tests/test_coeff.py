import random
from fractions import Fraction

import pytest

import oracles
from helpers import oc_to_elem
from morava.coeff import CoeffContext, CoeffElem
from morava.padic import EXACT, PadicScaled, PrecisionError


@pytest.fixture
def ctx22():
    return CoeffContext(2, 2, N=16, D=8)


def test_vcode_roundtrip():
    ctx = CoeffContext(2, 3, N=8, D=5)
    for exps in [(0, 0), (3, 1), (5, 0), (2, 3), (0, 5)]:
        assert ctx.vexps(ctx.vcode(exps)) == exps
    with pytest.raises(ValueError):
        ctx.vcode((4, 3))  # total degree 7 > 5


def test_vcode_addition_matches_exponent_addition():
    ctx = CoeffContext(3, 3, N=8, D=6)
    a, b = (2, 1), (1, 2)
    ca, cb = ctx.vcode(a), ctx.vcode(b)
    assert ctx.vexps(ca + cb) == (3, 3)


def test_unit_monomial(ctx22):
    x = ctx22.u_mono(3)
    assert ctx22.is_unit(x)
    assert ctx22.unit_leading_uexp(x) == 3
    inv = ctx22.invert(x)
    assert ctx22.eq_to(ctx22.mul(x, inv), ctx22.one(), 16)


def test_p_is_not_a_unit(ctx22):
    assert not ctx22.is_unit(ctx22.from_int(2))
    assert not ctx22.is_unit(ctx22.v_gen(1))
    assert not ctx22.is_unit(ctx22.zero())


def test_unit_plus_v_is_unit(ctx22):
    x = ctx22.add(ctx22.u_mono(1), ctx22.v_gen(1))
    assert ctx22.is_unit(x)
    inv = ctx22.invert(x)
    assert ctx22.eq_to(ctx22.mul(x, inv), ctx22.one(), 16)


def test_invert_one_plus_v_alternating(ctx22):
    x = ctx22.add(ctx22.one(), ctx22.v_gen(1))
    inv = ctx22.invert(x)
    # 1/(1+v) = 1 - v + v^2 - ... up to the v-degree cap
    for b in range(ctx22.D + 1):
        c = ctx22.coeff_at(inv, 0, ctx22.vcode((b,)))
        assert ctx22.padic.residue(c, 10) == ((-1) ** b) % 2 ** 10


def test_sum_with_negation_is_zero(ctx22):
    x = ctx22.add(ctx22.u_mono(2, 3), ctx22.scalar_mul(ctx22.padic.from_int(5), ctx22.v_gen(1)))
    z = ctx22.add(x, ctx22.neg(x))
    assert ctx22.is_zero_to(z, 16)


def test_mul_respects_vcap():
    ctx = CoeffContext(2, 2, N=8, D=3)
    v = ctx.v_gen(1)
    v2 = ctx.mul(v, v)
    v4 = ctx.mul(v2, v2)
    assert v4.is_zero() and v4.trunc
    v3 = ctx.mul(v2, v)
    assert not v3.trunc
    assert ctx.vexps(next(iter(v3.t))[1]) == (3,)


def test_trunc_flag_sticky():
    ctx = CoeffContext(2, 2, N=8, D=2)
    v = ctx.v_gen(1)
    deep = ctx.mul(ctx.mul(v, v), v)  # falls off the cap
    assert deep.trunc
    y = ctx.add(deep, ctx.one())
    assert y.trunc
    assert ctx.mul(y, ctx.one()).trunc


def test_distributivity_randomized():
    ctx = CoeffContext(3, 2, N=12, D=4, floor=1)
    rng = random.Random(7)

    def rand_elem():
        e = ctx.zero()
        for _ in range(rng.randint(1, 4)):
            c = ctx.padic.from_int(rng.randint(-40, 40))
            ue = rng.randint(-2, 2)
            vc = ctx.vcode((rng.randint(0, 2),))
            e = ctx.add(e, ctx.from_scalar(c, ue, vc))
        return e

    for _ in range(60):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        lhs = ctx.mul(a, ctx.add(b, c))
        rhs = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.eq_to(lhs, rhs, 12)
        assert ctx.eq_to(ctx.mul(a, b), ctx.mul(b, a), 12)


def test_invert_randomized_units():
    # randomized unit coefficients must roundtrip through inversion; random
    # digit collisions make relative precision dip arbitrarily, so relax the
    # floor and let the depth-12 verdict perform the honesty check
    ctx = CoeffContext(2, 2, N=24, D=4, floor=1)
    rng = random.Random(11)
    for _ in range(1000):
        lead_ue = rng.randint(-2, 2)
        x = ctx.u_mono(lead_ue, 1 + 2 * rng.randint(0, 15))
        for _ in range(rng.randint(0, 3)):
            c = ctx.padic.from_int(rng.randint(-30, 30))
            term = ctx.from_scalar(c, rng.randint(-2, 2), ctx.vcode((rng.randint(1, 4),)))
            x = ctx.add(x, term)
        for _ in range(rng.randint(0, 2)):
            c = ctx.padic.from_int(2 * rng.randint(-15, 15))
            x = ctx.add(x, ctx.from_scalar(c, rng.randint(-2, 2), 0))
        if not ctx.is_unit(x):
            continue
        inv = ctx.invert(x)
        assert ctx.eq_to(ctx.mul(x, inv), ctx.one(), 12)


def test_homogeneity():
    ctx = CoeffContext(2, 2, N=8, D=4, floor=4)
    # u has degree -2, v_1 has degree -2(p-1) = -2
    x = ctx.add(ctx.u_mono(1), ctx.v_gen(1))
    assert ctx.homogeneous_degree(x) == -2
    y = ctx.add(x, ctx.one())
    assert ctx.homogeneous_degree(y) is None
    prod = ctx.mul(x, x)
    assert ctx.homogeneous_degree(prod) == -4


def test_homogeneity_preserved_under_mul():
    # at p=3: deg u^3 = -6 and deg u*v_1 = -2 - 4 = -6
    ctx = CoeffContext(3, 2, N=10, D=6)
    h = ctx.add(ctx.u_mono(3), ctx.int_mul(3, ctx.shift_u(ctx.v_gen(1), 1)))
    assert ctx.homogeneous_degree(h) == -6
    assert ctx.homogeneous_degree(ctx.mul(h, h)) == -12


def test_shallow_marker_blocks_deep_verdict():
    ctx = CoeffContext(2, 2, N=8, D=4, floor=2)
    a = ctx.padic.from_int(1)
    b = ctx.padic.from_int(-1)
    marker = ctx.padic.add(a, b)  # exact cancellation: zero through 8 digits
    z = ctx.from_scalar(marker)
    assert ctx.is_zero_to(z, 8)
    with pytest.raises(PrecisionError):
        ctx.is_zero_to(z, 9)


def test_reduce_mod_pv(ctx22):
    x = ctx22.add(ctx22.u_mono(2, 3), ctx22.add(ctx22.from_int(2, 5), ctx22.v_gen(1)))
    red = ctx22.reduce_mod_pv(x)
    assert red == {2: 1}


def test_height_one_has_no_v():
    ctx = CoeffContext(5, 1, N=10, D=8)
    assert ctx.ncodes == 1
    with pytest.raises(ValueError):
        ctx.v_gen(1)
    # 2u^{-1} + 35 reduces to the monomial 2u^{-1} mod 5, hence is a unit
    x = ctx.add(ctx.u_mono(-1, 2), ctx.from_int(35))
    assert ctx.eq_to(ctx.mul(x, ctx.invert(x)), ctx.one(), 10)


# The coefficient kernel reads scalars into locals and applies the p-adic
# product and sum rules inline.  The per-pair reference below is the
# definition it must reproduce: PadicContext.mul for each product, then
# PadicContext.add_raw, the prune horizon and the floor check for each
# stored key, in the same pair order.

def _ref_store(ctx, t, k, c, raw):
    cur = t.get(k)
    if cur is None:
        if c.val < ctx.prune_horizon:
            t[k] = c
        return
    s = ctx.padic.add_raw(cur, c)
    if s.val >= ctx.prune_horizon:
        del t[k]
        return
    floor = ctx.padic.floor
    if not raw and s.unit != 0 and s.prec < floor:
        raise PrecisionError(
            "stored coefficient would keep only %d trusted digits (floor %d)"
            % (s.prec, floor), needed_extra=floor - s.prec)
    t[k] = s


def _ref_mul(ctx, A, B):
    ta, tb = A.t, B.t
    trunc = A.trunc or B.trunc
    if not ta or not tb:
        return CoeffElem(ctx, {}, trunc)
    if len(ta) > len(tb):
        ta, tb = tb, ta
    acc = {}
    for (ua, va), ca in ta.items():
        for (ub, vb), cb in tb.items():
            if ctx.vtotal[va] + ctx.vtotal[vb] > ctx.D:
                trunc = True
                continue
            _ref_store(ctx, acc, (ua + ub, va + vb), ctx.padic.mul(ca, cb),
                       False)
    return CoeffElem(ctx, acc, trunc)


def _ref_merge(ctx, A, B, raw):
    t = dict(A.t)
    for k, c in B.t.items():
        _ref_store(ctx, t, k, c, raw)
    return CoeffElem(ctx, t, A.trunc or B.trunc)


def _ref_scalar_mul(ctx, c, A):
    if c.unit == 0 and c.val >= EXACT:
        return CoeffElem(ctx, {}, A.trunc)
    t = {}
    for k, a in A.t.items():
        s = ctx.padic.mul(c, a)
        if s.val < ctx.prune_horizon:
            t[k] = s
    return CoeffElem(ctx, t, A.trunc)


def _outcome(fn, *args):
    try:
        R = fn(*args)
    except PrecisionError as e:
        return ("error", str(e), e.needed_extra)
    return ("ok", list(R.t.items()), R.trunc)


def _rand_scalar(rng, ctx):
    """A scalar obeying the PadicScaled invariants, drawn to hit exact and
    shallow zero markers, negative and p-divisible valuations, short
    precisions, valuations near the prune horizon and gaps past the power
    table."""
    p, N = ctx.p, ctx.N
    kind = rng.random()
    if kind < 0.04:
        return PadicScaled(EXACT, 0, 0)
    if kind < 0.12:
        return PadicScaled(rng.randint(0, ctx.prune_horizon + 1), 0, 0)
    if kind < 0.3:
        val = rng.randint(ctx.prune_horizon - N - 2, ctx.prune_horizon + 1)
    else:
        val = rng.choice((-3, -1, 0, 0, 0, 1, 2))
    prec = N if rng.random() < 0.6 else rng.randint(1, N)
    unit = rng.randrange(1, p ** prec)
    while unit % p == 0:
        unit = rng.randrange(1, p ** prec)
    return PadicScaled(val, unit, prec)


def _rand_elem(rng, ctx, like=None):
    """A random element; given `like`, reuse its keys with negated or
    partially cancelling scalars so that sums cancel fully or in part."""
    padic = ctx.padic
    t = {}
    if like is not None:
        for k, c in like.t.items():
            if c.unit == 0 or rng.random() < 0.3:
                continue
            s = padic.neg(c)
            if rng.random() < 0.7:
                j = rng.randint(0, c.prec)
                s = padic.add_raw(s, PadicScaled(c.val + j, 1, padic.N))
            t[k] = s
    base = ctx.D + 1
    for _ in range(rng.randint(0, 7)):
        exps = [0] * (ctx.n - 1)
        for _ in range(rng.randint(0, ctx.D) if exps else 0):
            exps[rng.randrange(len(exps))] += 1
        code = 0
        for b in reversed(exps):
            code = code * base + b
        t[(rng.randint(-1, 1), code)] = _rand_scalar(rng, ctx)
    return CoeffElem(ctx, t, rng.random() < 0.1)


KERNEL_CONTEXTS = [
    (2, 1, 8, 4, None),
    (2, 2, 6, 3, 2),
    (3, 2, 5, 3, 5),
    (3, 3, 4, 2, 1),
    (5, 1, 4, 6, 3),
    (5, 3, 3, 2, None),
    (2, 3, 16, 3, None),
]


@pytest.mark.parametrize("p,n,N,D,floor", KERNEL_CONTEXTS)
def test_kernel_matches_per_pair_reference(p, n, N, D, floor):
    ctx = CoeffContext(p, n, N=N, D=D, floor=floor)
    rng = random.Random(1000 * p + 100 * n + N)
    results = {"ok": 0, "error": 0}
    for _ in range(250):
        A = _rand_elem(rng, ctx)
        B = _rand_elem(rng, ctx, like=A if rng.random() < 0.5 else None)
        c = _rand_scalar(rng, ctx)
        pairs = [
            (_outcome(ctx.mul, A, B), _outcome(_ref_mul, ctx, A, B)),
            (_outcome(ctx.add, A, B), _outcome(_ref_merge, ctx, A, B, False)),
            (_outcome(ctx.add_raw, A, B),
             _outcome(_ref_merge, ctx, A, B, True)),
            (_outcome(ctx.sub, A, B),
             _outcome(_ref_merge, ctx, A, ctx.neg(B), False)),
            (_outcome(ctx.sub_raw, A, B),
             _outcome(_ref_merge, ctx, A, ctx.neg(B), True)),
            (_outcome(ctx.scalar_mul, c, A),
             _outcome(_ref_scalar_mul, ctx, c, A)),
        ]
        for got, want in pairs:
            assert got == want
            results[got[0]] += 1
    # the draws reach the stored results and, above floor 1, the floor error
    assert results["ok"] and (results["error"] or ctx.padic.floor == 1)


def test_kernel_off_table_precision_falls_back():
    # precisions past N (outside the PadicScaled invariant) take the
    # reference path and still agree with it
    ctx = CoeffContext(3, 2, N=4, D=2, floor=1)
    big = PadicScaled(0, 3 ** 7 - 1, 7)
    A = CoeffElem(ctx, {(0, 0): big, (1, 0): ctx.padic.one()})
    B = CoeffElem(ctx, {(0, 0): PadicScaled(0, 2, 6), (-1, 0): big})
    assert _outcome(ctx.mul, A, B) == _outcome(_ref_mul, ctx, A, B)
    assert _outcome(ctx.add, A, B) == _outcome(_ref_merge, ctx, A, B, False)
    assert _outcome(ctx.scalar_mul, big, B) == \
        _outcome(_ref_scalar_mul, ctx, big, B)


def test_kernel_products_match_rational_oracle():
    rng = random.Random(5)
    for p, n, N, D in [(2, 1, 12, 3), (3, 2, 10, 3), (5, 3, 8, 2)]:
        ctx = CoeffContext(p, n, N=N, D=D, floor=1)
        for _ in range(20):
            ops = []
            for _ in range(2):
                oc = {}
                for _ in range(rng.randint(1, 4)):
                    vt = tuple(rng.randint(0, 1) for _ in range(n - 1))
                    q = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 7)))
                    if q:
                        oc[(rng.randint(-1, 1), vt)] = q
                ops.append(oc)
            a, b = ops
            got = ctx.mul(oc_to_elem(ctx, a), oc_to_elem(ctx, b))
            assert ctx.eq_to(got, oc_to_elem(ctx, oracles.qc_mul(a, b)), N - 2)
