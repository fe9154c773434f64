import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import PRODUCT_METHODS, addmul_row_reference, oc_to_elem
from morava.coeff import CoeffContext, CoeffElem
from morava.padic import EXACT, PrecisionError
from morava.series import ms_layout


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
    x = ctx22.from_int(3)
    assert ctx22.is_unit(x)
    assert ctx22.reduce_mod_pv(x) == 1
    inv = ctx22.invert(x)
    assert ctx22.eq_to(ctx22.mul(x, inv), ctx22.one(), 16)


def test_p_is_not_a_unit(ctx22):
    assert not ctx22.is_unit(ctx22.from_int(2))
    assert not ctx22.is_unit(ctx22.v_gen(1))
    assert not ctx22.is_unit(ctx22.zero())


def test_unit_plus_v_is_unit(ctx22):
    x = ctx22.add(ctx22.from_int(3), ctx22.v_gen(1))
    assert ctx22.is_unit(x)
    inv = ctx22.invert(x)
    assert ctx22.eq_to(ctx22.mul(x, inv), ctx22.one(), 16)


def test_invert_one_plus_v_alternating(ctx22):
    x = ctx22.add(ctx22.one(), ctx22.v_gen(1))
    inv = ctx22.invert(x)
    # 1/(1+v) = 1 - v + v^2 - ... up to the v-degree cap
    for b in range(ctx22.D + 1):
        c = inv.t.get(ctx22.vcode((b,))) or ctx22.padic.zero()
        assert ctx22.padic.residue(c, 10) == ((-1) ** b) % 2 ** 10


def test_sum_with_negation_is_zero(ctx22):
    x = ctx22.add(ctx22.from_int(3), ctx22.scalar_mul(ctx22.padic.from_int(5), ctx22.v_gen(1)))
    z = ctx22.add(x, ctx22.neg(x))
    assert ctx22.is_zero_to(z, 16)


def test_mul_respects_vcap():
    ctx = CoeffContext(2, 2, N=8, D=3)
    v = ctx.v_gen(1)
    v2 = ctx.mul(v, v)
    v4 = ctx.mul(v2, v2)
    assert v4.is_zero()
    v3 = ctx.mul(v2, v)
    assert ctx.vexps(next(iter(v3.t))) == (3,)


def test_distributivity_randomized():
    ctx = CoeffContext(3, 2, N=12, D=4, floor=1)
    rng = random.Random(7)

    def rand_elem():
        e = ctx.zero()
        for _ in range(rng.randint(1, 4)):
            c = ctx.padic.from_int(rng.randint(-40, 40))
            vc = ctx.vcode((rng.randint(0, 2),))
            e = ctx.add(e, ctx.from_scalar(c, vc))
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
        x = ctx.from_int(1 + 2 * rng.randint(0, 15))
        for _ in range(rng.randint(0, 3)):
            c = ctx.padic.from_int(rng.randint(-30, 30))
            term = ctx.from_scalar(c, ctx.vcode((rng.randint(1, 4),)))
            x = ctx.add(x, term)
        for _ in range(rng.randint(0, 2)):
            c = ctx.padic.from_int(2 * rng.randint(-15, 15))
            x = ctx.add(x, ctx.from_scalar(c))
        if not ctx.is_unit(x):
            continue
        inv = ctx.invert(x)
        assert ctx.eq_to(ctx.mul(x, inv), ctx.one(), 12)


def test_homogeneity():
    # the reference law is graded: the coefficient of x^i y^j is
    # homogeneous of weight i + j - 1, which is what lets the engine set
    # u = 1 and restore the u-exponent from the v-code alone
    mixed = 0
    for p, n in [(2, 1), (2, 2), (3, 2)]:
        ctx = CoeffContext(p, n, N=8, D=20)
        F = oracles.fgl_2var(p, n, 4, 4)
        for i in range(5):
            for j in range(5):
                oracles.qc_project(p, F[i][j], i + j - 1)
                for ue, vt in F[i][j]:
                    assert ctx.u_exponent(i + j - 1, ctx.vcode(vt)) == ue
                mixed += len({ue for ue, _ in F[i][j]}) > 1
    # some coefficients mix powers of u, e.g. 2/7 u^3 + 6/7 v_1^3 at p=2
    assert mixed
    with pytest.raises(AssertionError):
        oracles.qc_project(3, {(3, (0,)): Fraction(1), (0, (1,)): Fraction(1)})


def test_homogeneity_preserved_under_mul():
    # at p=3, u^3 and u*v_1 both have weight 3: the engine's product of the
    # u-free images, regraded at weight 6, is the graded oracle product
    ctx = CoeffContext(3, 2, N=10, D=6)
    h = {(3, (0,)): Fraction(1), (1, (1,)): Fraction(3)}
    hh = oracles.qc_mul(h, h)
    got = ctx.mul(oc_to_elem(ctx, h, 3), oc_to_elem(ctx, h, 3))
    assert ctx.eq_to(got, oc_to_elem(ctx, hh, 6), 10)
    assert {(ctx.u_exponent(6, vc), ctx.vexps(vc)) for vc in got.t} == set(hh)


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
    x = ctx22.add(ctx22.from_int(3), ctx22.add(ctx22.from_int(10), ctx22.v_gen(1)))
    assert ctx22.reduce_mod_pv(x) == 1
    assert ctx22.reduce_mod_pv(ctx22.add(ctx22.from_int(10), ctx22.v_gen(1))) == 0
    ctx = CoeffContext(5, 2, N=6, D=2)
    assert ctx.reduce_mod_pv(ctx.add(ctx.from_int(-3), ctx.v_gen(1))) == 2


def test_height_one_has_no_v():
    ctx = CoeffContext(5, 1, N=10, D=8)
    assert ctx.ncodes == 1
    with pytest.raises(ValueError):
        ctx.v_gen(1)
    # 2 + 35 reduces to 2 mod 5, hence is a unit
    x = ctx.add(ctx.from_int(2), ctx.from_int(35))
    assert ctx.eq_to(ctx.mul(x, ctx.invert(x)), ctx.one(), 10)


# The coefficient kernel reads scalars into locals and applies the p-adic
# product and sum rules inline.  The per-pair reference below is the
# definition it must reproduce: PadicContext.mul for each product, then
# PadicContext.add_raw, the prune horizon and the floor check for each
# stored key, in the same pair order.

def _ref_store(ctx, t, k, c, raw):
    cur = t.get(k)
    if cur is None:
        if c[0] < ctx.prune_horizon:
            t[k] = c
        return
    s = ctx.padic.add_raw(cur, c)
    sv, su, sk = s
    if sv >= ctx.prune_horizon:
        del t[k]
        return
    floor = ctx.padic.floor
    if not raw and su != 0 and sk < floor:
        raise PrecisionError(
            "stored coefficient would keep only %d trusted digits (floor %d)"
            % (sk, floor), needed_extra=floor - sk)
    t[k] = s


def _ref_mul(ctx, A, B):
    ta, tb = A.t, B.t
    if not ta or not tb:
        return CoeffElem(ctx, {})
    if len(ta) > len(tb):
        ta, tb = tb, ta
    acc = {}
    for va, ca in ta.items():
        for vb, cb in tb.items():
            if ctx.vtotal[va] + ctx.vtotal[vb] > ctx.D:
                continue
            _ref_store(ctx, acc, va + vb, ctx.padic.mul(ca, cb), False)
    return CoeffElem(ctx, acc)


def _ref_merge(ctx, A, B, raw):
    t = dict(A.t)
    for k, c in B.t.items():
        _ref_store(ctx, t, k, c, raw)
    return CoeffElem(ctx, t)


def _ref_scalar_mul(ctx, c, A):
    if c[1] == 0 and c[0] >= EXACT:
        return CoeffElem(ctx, {})
    t = {}
    for k, a in A.t.items():
        s = ctx.padic.mul(c, a)
        if s[0] < ctx.prune_horizon:
            t[k] = s
    return CoeffElem(ctx, t)


def _addmul_into(ctx, T, A, B):
    """addmul_into on a copy of T's dict."""
    t = dict(T.t)
    ctx.addmul_into(t, A, B)
    return CoeffElem(ctx, t)


def _add_of_mul(ctx, T, A, B):
    """What addmul_into must leave: add(T, mul(A, B))."""
    return ctx.add(T, ctx.mul(A, B))


def _addmul_cases(ctx, T, A, B):
    """The kernel paths and term kinds one addmul_into draw reaches."""
    short = min(len(A.t), len(B.t))
    horizon, vtot, D = ctx.prune_horizon, ctx.vtotal, ctx.D
    fits = [(ca, cb) for va, ca in A.t.items()
            for vb, cb in B.t.items() if vtot[va] + vtot[vb] <= D]
    cases = {"empty" if short == 0 else "one term" if short == 1
             else "several terms"}
    if len(fits) < len(A.t) * len(B.t):
        cases.add("v-cap drop")
    if short == 1 and any(ca[0] + cb[0] >= horizon for ca, cb in fits):
        cases.add("pruned")
    if any(c[1] == 0 for E in (T, A, B) for c in E.t.values()):
        cases.add("zero marker")
    return cases


def _outcome(fn, *args):
    try:
        R = fn(*args)
    except PrecisionError as e:
        return ("error", str(e), e.needed_extra)
    return ("ok", list(R.t.items()))


def _rand_scalar(rng, ctx):
    """A scalar obeying the scalar invariants, drawn to hit exact and
    shallow zero markers, negative and p-divisible valuations, short
    precisions, valuations near the prune horizon and gaps past the power
    table."""
    p, N = ctx.p, ctx.N
    kind = rng.random()
    if kind < 0.04:
        return (EXACT, 0, 0)
    if kind < 0.12:
        return (rng.randint(0, ctx.prune_horizon + 1), 0, 0)
    if kind < 0.3:
        val = rng.randint(ctx.prune_horizon - N - 2, ctx.prune_horizon + 1)
    else:
        val = rng.choice((-3, -1, 0, 0, 0, 1, 2))
    prec = N if rng.random() < 0.6 else rng.randint(1, N)
    unit = rng.randrange(1, p ** prec)
    while unit % p == 0:
        unit = rng.randrange(1, p ** prec)
    return (val, unit, prec)


def _rand_elem(rng, ctx, like=None):
    """A random element; given `like`, reuse its keys with negated or
    partially cancelling scalars so that sums cancel fully or in part."""
    padic = ctx.padic
    t = {}
    if like is not None:
        for k, c in like.t.items():
            cv, cu, ck = c
            if cu == 0 or rng.random() < 0.3:
                continue
            s = padic.neg(c)
            if rng.random() < 0.7:
                j = rng.randint(0, ck)
                s = padic.add_raw(s, (cv + j, 1, padic.N))
            t[k] = s
    base = ctx.D + 1
    for _ in range(rng.randint(0, 7)):
        exps = [0] * (ctx.n - 1)
        for _ in range(rng.randint(0, ctx.D) if exps else 0):
            exps[rng.randrange(len(exps))] += 1
        code = 0
        for b in reversed(exps):
            code = code * base + b
        t[code] = _rand_scalar(rng, ctx)
    return CoeffElem(ctx, t)


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
    fused = {"ok": 0, "error": 0}
    cases = set()
    for _ in range(250):
        A = _rand_elem(rng, ctx)
        B = _rand_elem(rng, ctx, like=A if rng.random() < 0.5 else None)
        c = _rand_scalar(rng, ctx)
        # an accumulator that often meets the product's keys and cancels
        try:
            P = ctx.mul(A, B) if rng.random() < 0.6 else None
        except PrecisionError:
            P = None
        T = _rand_elem(rng, ctx, like=P)
        got = _outcome(_addmul_into, ctx, T, A, B)
        assert got == _outcome(_add_of_mul, ctx, T, A, B)
        fused[got[0]] += 1
        cases |= _addmul_cases(ctx, T, A, B)
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
    assert fused["ok"] and (fused["error"] or ctx.padic.floor == 1)
    # at height 1 an element has at most one term, the v-free one
    want = {"empty", "one term", "pruned", "zero marker"}
    if n > 1:
        want |= {"several terms", "v-cap drop"}
    assert want <= cases


def test_kernel_off_table_precision_falls_back():
    # precisions past N (outside the scalar invariant) take the
    # reference path and still agree with it
    ctx = CoeffContext(3, 2, N=4, D=2, floor=1)
    big = (0, 3 ** 7 - 1, 7)
    A = CoeffElem(ctx, {0: big, 1: ctx.padic.one()})
    B = CoeffElem(ctx, {0: (0, 2, 6), 1: big})
    assert _outcome(ctx.mul, A, B) == _outcome(_ref_mul, ctx, A, B)
    assert _outcome(ctx.add, A, B) == _outcome(_ref_merge, ctx, A, B, False)
    assert _outcome(ctx.scalar_mul, big, B) == \
        _outcome(_ref_scalar_mul, ctx, big, B)


def _collision(store, ctx, cur, c, raw):
    """What one collision leaves at key 0, or the PrecisionError it
    raises."""
    t = {0: cur}
    try:
        store(t, c, raw)
    except PrecisionError as e:
        return ("error", str(e), e.needed_extra)
    return ("ok", list(t.items()))


@pytest.mark.parametrize("p,n,N,D,floor", KERNEL_CONTEXTS)
def test_kernel_collision_matches_add_raw(monkeypatch, p, n, N, D, floor):
    # every collision of two stored scalars, a zero marker on either side
    # or both, is PadicContext.add_raw, then the prune horizon, then the
    # floor, without leaving the kernel: _acc is only for sums past N
    ctx = CoeffContext(p, n, N=N, D=D, floor=floor)
    rng = random.Random(7000 + 100 * p + 10 * n + N)

    def kernel(t, c, raw):
        cv, cu, ck = c
        s = ctx._sum(t[0], cv, cu, ck, raw)
        if s is None:
            del t[0]
        else:
            t[0] = s

    def reference(t, c, raw):
        _ref_store(ctx, t, 0, c, raw)

    def no_acc(self, cur, c, raw):
        raise AssertionError("a collision of scalars within N left the kernel")
    monkeypatch.setattr(CoeffContext, "_acc", no_acc)
    horizon = ctx.prune_horizon
    seen = set()
    for _ in range(3000):
        pair = [_rand_scalar(rng, ctx), _rand_scalar(rng, ctx)]
        if rng.random() < 0.6:
            # a zero marker: shallow, anywhere, or near the prune horizon
            pair[rng.randrange(2)] = (rng.choice((
                rng.randint(0, 4), rng.randint(0, horizon + 1),
                rng.randint(horizon - 2, horizon + 1))), 0, 0)
        cur, c = pair
        for raw in (False, True):
            got = _collision(kernel, ctx, cur, c, raw)
            assert got == _collision(reference, ctx, cur, c, raw)
            markers = (cur[1] == 0) + (c[1] == 0)
            if got[0] == "error":
                outcome = "error"
            elif not got[1]:
                outcome = "pruned"
            else:
                outcome = "marker" if got[1][0][1][1] == 0 else "unit"
            seen.add((markers, outcome))
    want = {(2, "marker"), (2, "pruned"), (1, "marker"), (1, "unit"),
            (1, "pruned"), (0, "marker"), (0, "unit")}
    if ctx.padic.floor > 1:
        want |= {(1, "error"), (0, "error")}
    assert want <= seen


def _rand_graded(rng, p, n, weight):
    """A random homogeneous oracle coefficient of this weight: each term
    u^e v^b has e = weight - sum (p^i - 1) b_i."""
    oc = {}
    for _ in range(rng.randint(1, 4)):
        vt = tuple(rng.randint(0, 1) for _ in range(n - 1))
        q = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 7)))
        if q:
            ue = weight - sum((p ** i - 1) * b
                              for i, b in enumerate(vt, start=1))
            oc[(ue, vt)] = q
    return oc


def test_addmul_chain_matches_rational_oracle():
    rng = random.Random(11)
    for p, n, N, D in [(2, 1, 12, 3), (3, 2, 10, 3), (5, 3, 8, 2)]:
        ctx = CoeffContext(p, n, N=N, D=D, floor=1)
        for _ in range(20):
            t, want = {}, {}
            for _ in range(rng.randint(1, 6)):
                wa = rng.randint(-1, 1)
                a = _rand_graded(rng, p, n, wa)
                b = _rand_graded(rng, p, n, -wa)
                ctx.addmul_into(t, oc_to_elem(ctx, a), oc_to_elem(ctx, b))
                want = oracles.qc_add(want, oracles.qc_mul(a, b))
            assert ctx.eq_to(CoeffElem(ctx, t), oc_to_elem(ctx, want, 0),
                             N - 2)


def test_kernel_products_match_rational_oracle():
    rng = random.Random(5)
    for p, n, N, D in [(2, 1, 12, 3), (3, 2, 10, 3), (5, 3, 8, 2)]:
        ctx = CoeffContext(p, n, N=N, D=D, floor=1)
        for _ in range(20):
            wa, wb = rng.randint(-1, 1), rng.randint(-1, 1)
            a = _rand_graded(rng, p, n, wa)
            b = _rand_graded(rng, p, n, wb)
            got = ctx.mul(oc_to_elem(ctx, a), oc_to_elem(ctx, b))
            want = oc_to_elem(ctx, oracles.qc_mul(a, b), wa + wb)
            assert ctx.eq_to(got, want, N - 2)


# The tuple kernel against exact rationals, on drawn elements.  A scalar
# (val, unit, prec) stands for every rational unit * p**val plus a multiple
# of p**(val + prec) (a zero marker for every multiple of p**val), and each
# operand is read as one drawn lift of that kind.  Every stored result must
# agree with the rational result on those lifts modulo its own
# p**(val + prec), or its marker depth, below the prune horizon, where the
# kernel drops what is settled by design.  A key left empty must be 0 to
# the horizon.  A result that claims digits its operands do not pin fails
# for most lifts.

ORACLE_CONTEXTS = [(2, 2, 8, 6), (3, 3, 4, 2)]


def _qval(p, q):
    """The p-adic valuation of a Fraction, None for 0."""
    if q == 0:
        return None
    v, a, b = 0, q.numerator, q.denominator
    while a % p == 0:
        a //= p
        v += 1
    while b % p == 0:
        b //= p
        v -= 1
    return v


def _scalar_q(p, c, lift=0):
    """The rational unit * p**val + lift * p**(val + prec) that the scalar
    c stands for; 0 for the exact zero."""
    v, u, k = c
    if v >= EXACT:
        return Fraction(0)
    return (u + lift * p ** k) * Fraction(p) ** v


def _elem_q(data, ctx, t):
    """An oracle coefficient for t, every scalar read as a drawn lift."""
    p = ctx.p
    out = {}
    for k, c in t.items():
        q = _scalar_q(p, c, data.draw(st.integers(-p * p, p * p)))
        if q:
            out[(0, ctx.vexps(k))] = q
    return out


@st.composite
def _unit(draw, ctx, vals):
    """A unit scalar: any precision from 1 to N, its unit prime to p."""
    p = ctx.p
    k = draw(st.integers(1, ctx.N))
    u = p * draw(st.integers(0, p ** (k - 1) - 1))
    return (draw(vals), u + draw(st.integers(1, p - 1)), k)


def _scalars(ctx):
    """Units at negative, small and near-horizon valuations, and zero
    markers of every depth under the prune horizon."""
    horizon = ctx.prune_horizon
    vals = st.one_of(st.integers(-3, 3),
                     st.integers(horizon - ctx.N - 2, horizon - 1))
    markers = st.integers(0, horizon - 1).map(lambda d: (d, 0, 0))
    return st.one_of(_unit(ctx, vals), markers)


@st.composite
def _elems(draw, ctx, min_size=0, max_size=6):
    codes = [k for k in range(ctx.ncodes) if ctx.vtotal[k] <= ctx.D]
    t = draw(st.dictionaries(st.sampled_from(codes), _scalars(ctx),
                             min_size=min_size, max_size=max_size))
    return CoeffElem(ctx, t)


@st.composite
def _near(draw, ctx, A):
    """Two fresh terms, then some of A's scalars with their units moved by
    p**j (not at all when j >= prec), so that a difference cancels in full
    or in part."""
    p = ctx.p
    t = dict(draw(_elems(ctx, 2, 2)).t)
    for k, (v, u, kk) in A.t.items():
        if draw(st.booleans()):
            j = draw(st.integers(1, ctx.N))
            t[k] = (v, (u + p ** j) % p ** kk if j < kk else u, kk)
    return CoeffElem(ctx, t)


def _assert_agrees(ctx, t, want):
    """Every stored scalar keeps the invariant, lies under the prune
    horizon and agrees with the rational result ``want``."""
    p, horizon = ctx.p, ctx.prune_horizon
    for k, c in t.items():
        assert type(c) is tuple and len(c) == 3, c
        assert all(type(x) is int for x in c), c
        v, u, kk = c
        assert ctx.vtotal[k] <= ctx.D and 0 <= kk <= ctx.N and v < horizon, c
        if u:
            assert 0 < u < p ** kk and u % p, c
        else:
            assert kk == 0, c
    for k in range(ctx.ncodes):
        if ctx.vtotal[k] > ctx.D:
            continue
        exact = want.get((0, ctx.vexps(k)), Fraction(0))
        c = t.get(k)
        if c is None:
            bound, stored = horizon, 0
        else:
            bound, stored = min(c[0] + c[2], horizon), _scalar_q(p, c)
        w = _qval(p, exact - stored)
        assert w is None or w >= bound, (k, c, exact)


@pytest.mark.parametrize("p,n,N,D", ORACLE_CONTEXTS)
@pytest.mark.parametrize("short", ["one term", "several terms"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_tuple_kernel_matches_rational_oracle(p, n, N, D, short, data):
    ctx = CoeffContext(p, n, N=N, D=D, floor=1)
    if short == "one term":
        A = data.draw(_elems(ctx, 1, 1))
        B = data.draw(_elems(ctx, 1))
    else:
        A = data.draw(_elems(ctx, 2))
        B = data.draw(st.one_of(_elems(ctx, 2), _near(ctx, A)))
    T = data.draw(_elems(ctx))
    c = data.draw(st.one_of(_scalars(ctx), st.just((EXACT, 0, 0))))
    qa, qb, qt = (_elem_q(data, ctx, E.t) for E in (A, B, T))
    qc = _scalar_q(p, c, data.draw(st.integers(-p * p, p * p)))
    ab = oracles.qc_mul(qa, qb)

    P = ctx.mul(A, B)
    _assert_agrees(ctx, P.t, ab)
    t = dict(T.t)
    ctx.addmul_into(t, A, B)
    _assert_agrees(ctx, t, oracles.qc_add(qt, ab))
    _assert_agrees(ctx, ctx.add(A, B).t, oracles.qc_add(qa, qb))
    _assert_agrees(ctx, ctx.sub(A, B).t,
                   oracles.qc_add(qa, oracles.qc_scale(-1, qb)))
    _assert_agrees(ctx, ctx.scalar_mul(c, A).t,
                   oracles.qc_scale(qc, qa))


# addmul_row against the per-pair route it replaces (helpers), on drawn
# maps and rows: one to three calls on one map, with keys of the packed
# layout ms_layout((2, 1), 2), rows that repeat a key, and stored
# coefficients that a product empties.

ROW_CONTEXTS = [(2, 2, 8, 6, 6), (3, 3, 4, 2, 3)]
ROW_CASES = {"one term, several", "several, one term", "several, several",
             "zero marker", "pruned", "empty operand", "emptied",
             "re-inserted"}


class _Watched(dict):
    """A map that notes in ``seen`` each key deleted, and each key stored
    again after its delete."""

    def __init__(self, items, seen):
        super().__init__(items)
        self.seen = seen
        self.gone = set()

    def __delitem__(self, k):
        super().__delitem__(k)
        self.gone.add(k)
        self.seen.add("emptied")

    def __setitem__(self, k, v):
        if k in self.gone:
            self.seen.add("re-inserted")
        super().__setitem__(k, v)


@st.composite
def _vanishing(draw, ctx):
    """One or two unit terms settled to the prune horizon, so that their
    negatives cancel them out of the map."""
    horizon, N = ctx.prune_horizon, ctx.N
    t = {}
    for k in draw(st.lists(st.sampled_from([0, 1]), min_size=1,
                           max_size=2, unique=True)):
        v, u, _ = draw(_unit(ctx, st.integers(horizon - N, horizon - 1)))
        t[k] = (v, u, N)
    return CoeffElem(ctx, t)


def _row_cases(ctx, k0, A, row):
    """What one call meets, from its operands."""
    horizon, vtot, D = ctx.prune_horizon, ctx.vtotal, ctx.D
    cases = set()
    for kb, B in row:
        if not A.t or not B.t:
            cases.add("empty operand")
            continue
        cases.add("%s, %s" % tuple("one term" if len(E.t) == 1 else "several"
                                   for E in (A, B)))
        if any(c[1] == 0 for E in (A, B) for c in E.t.values()):
            cases.add("zero marker")
        if any(a[0] + b[0] >= horizon for va, a in A.t.items()
               for vb, b in B.t.items() if vtot[va] + vtot[vb] <= D):
            cases.add("pruned")
    return cases


def _map_content(T):
    return [(k, list(e.t.items())) for k, e in T.items()]


def _run_rows(fn, ctx, T, calls):
    try:
        for call in calls:
            fn(ctx, T, *call)
    except PrecisionError as e:
        return ("error", str(e), e.needed_extra)
    return ("ok", _map_content(T))


def _check_rows(ctx, T0, calls, seen):
    """Run calls through addmul_row and the per-pair reference, each on
    its own copy of T0; assert they agree and leave the operands as they
    were.  The cases met go into ``seen``; returns "ok" or "error"."""
    before = [(dict(A.t), [dict(B.t) for _, B in row])
              for _, A, row in calls]
    for call in calls:
        seen.update(_row_cases(ctx, *call))
    want = _run_rows(
        addmul_row_reference, ctx,
        _Watched(((k, CoeffElem(ctx, dict(e.t))) for k, e in T0.items()),
                 seen), calls)
    got = _run_rows(
        lambda ctx, T, *call: ctx.addmul_row(T, *call), ctx,
        {k: CoeffElem(ctx, dict(e.t)) for k, e in T0.items()}, calls)
    assert got == want
    # the operands are read, never written
    assert [(A.t, [B.t for _, B in row])
            for _, A, row in calls] == before
    return got[0]


def _fixed_row_cases(ctx):
    """One (T0, calls) per kind of case, built to reach it: the kinds of
    ROW_CASES and "error" (a sum short of the floor)."""
    p, N, horizon = ctx.p, ctx.N, ctx.prune_horizon
    x, y = ms_layout((2, 1), 2).units

    def elem(*terms):
        return CoeffElem(ctx, dict(enumerate(terms)))
    one = elem((0, 1, N))
    two = elem((0, 1, N), (1, 1, N))
    # a unit settled at the horizon, so that its negative cancels it out
    settled = elem((horizon - N, 1, N))
    gone = ({y: settled}, [(y, one, [(0, ctx.neg(settled))])])
    short = (p ** N - 1 + p ** (N - ctx.padic.floor + 1)) % p ** N
    return {
        "one term, several": ({}, [(0, one, [(x, two)])]),
        "several, one term": ({}, [(0, two, [(x, one)])]),
        "several, several": ({}, [(0, two, [(x, two), (y, two)])]),
        "zero marker": ({}, [(0, elem((2, 0, 0)), [(x, one)])]),
        "pruned": ({}, [(0, elem((horizon - 1, 1, N)),
                         [(x, elem((1, 1, N)))])]),
        "empty operand": ({}, [(0, elem(), [(x, one)]),
                               (x, one, [(0, elem())])]),
        "emptied": gone,
        "re-inserted": (gone[0], [(y, one, [(0, ctx.neg(settled)),
                                             (0, two)])]),
        "error": ({x: one}, [(0, one, [(x, elem((0, short, N)))])]),
    }


@pytest.mark.parametrize("p,n,N,D,floor", ROW_CONTEXTS)
@pytest.mark.parametrize("kind", sorted(ROW_CASES | {"error"}))
def test_addmul_row_fixed_case(p, n, N, D, floor, kind):
    # each kind of case has a call list that meets it, so the coverage of
    # the next test holds whatever hypothesis draws there
    ctx = CoeffContext(p, n, N=N, D=D, floor=floor)
    seen = set()
    result = _check_rows(ctx, *_fixed_row_cases(ctx)[kind], seen)
    assert result == ("error" if kind == "error" else "ok")
    assert kind in seen | {result}


@pytest.mark.parametrize("p,n,N,D,floor", ROW_CONTEXTS)
def test_addmul_row_matches_per_pair_reference(p, n, N, D, floor):
    ctx = CoeffContext(p, n, N=N, D=D, floor=floor)
    lay = ms_layout((2, 1), 2)
    keys = [a * lay.units[0] + b * lay.units[1]
            for a in range(3) for b in range(2) if a + b <= 2]
    sums = sorted({a + b for a in keys for b in keys})
    one = ctx.one()
    # the fixed cases reach every kind, so the coverage asserted at the end
    # does not rest on the draws, which differ between a run of this module
    # alone and a full run (hypothesis mines constants from loaded modules)
    seen = set()
    results = {_check_rows(ctx, *case, seen)
               for case in _fixed_row_cases(ctx).values()}

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def check(data):
        T0 = data.draw(st.dictionaries(
            st.sampled_from(sums),
            st.one_of(_elems(ctx, 1, 3), _vanishing(ctx)), max_size=6))
        calls = []
        for _ in range(data.draw(st.integers(1, 3))):
            k0 = data.draw(st.sampled_from(keys))
            row = []
            if data.draw(st.booleans()):
                # one times a stored coefficient's negative empties its
                # key, unless an earlier call wrote there, and a second
                # pair on that key stores it again
                A = one
                T0[k0] = X = data.draw(_vanishing(ctx))
                row += [(0, ctx.neg(X)), (0, data.draw(_elems(ctx, 1, 3)))]
            else:
                A = data.draw(_elems(ctx, 0, 3))
            for _ in range(data.draw(st.integers(0, 4))):
                kb = data.draw(st.sampled_from(keys))
                cur = T0.get(k0 + kb)
                row.append((kb, data.draw(st.one_of(
                    _elems(ctx, 0, 3),
                    st.just(ctx.neg(cur) if cur else ctx.zero())))))
            calls.append((k0, A, row))
        results.add(_check_rows(ctx, T0, calls, seen))
    check()
    assert ROW_CASES <= seen, ROW_CASES - seen
    assert results == {"ok", "error"}


def test_product_counter_wraps_every_product_method():
    # helpers.count_coeff_products pins the coefficient work of whole
    # checks: a product method of the kernel that it does not wrap would
    # let those pins miss products
    methods = {name for name, f in vars(CoeffContext).items()
               if callable(f) and name.startswith(("mul", "addmul"))}
    assert methods == set(PRODUCT_METHODS)
