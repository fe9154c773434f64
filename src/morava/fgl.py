"""The p-typical formal group law at height n, truncated.

The logarithm comes from the recursion

    p * l_k = sum_{0 <= i <= k} l_i * v_{k-i}^{p^i},   l_0 = 1, v_0 = p,

with v_n specialized to u^{p^n - 1} and higher v's to zero.  Everything else
is derived from the l_k: the exponential, every m-series and every formal
sum of one-variable series solve

    T + sum_{k >= 1} l_k T^{p^k} = S

degree by degree for the appropriate right side (S = m log y for [m](y),
S = sum_i log f_i for a formal sum), which keeps each coefficient a single
short linear combination instead of a tower of compositions.  Each degree
reads only lower ones, so an m-series is solved only to the y-degree its
reader asks for (the ring caps of groupcoh), and its coefficients are the
full solve's; [0](y) and [1](y) are taken exactly, with no solve.  Each power
T^e of T comes from T^h * T^(e-h), h = floor(e / 2q) * q for q the largest
power of p dividing e below e; at p = 2, h = e / 2: squares only.  The
two-variable group law, assembled from the binomial expansion of
exp(log x + log y) at independent degree caps in x and y, serves the axiom
checks (through ms_eval, one product per term, where a power of a variable
only shifts keys, with F(y, z) and its powers in the associativity check
renamed from those of F(x, y)) and the
character classes of groupcoh.point_class (through groupcoh.elem_poly, on
ring elements: one ring product per power of the first argument).  It is
formed only under its caps: row j of the expansion to x-degree
min(Mx, teff - j) and each of its coefficients of x^dx against y-degrees
j..min(My, teff - dx), teff the effective total cap, one
CoeffContext.addmul_row call per row of products (_build_two_var).

Scalars of valuation -k appear in the l_k; the builder refuses to run when
the working precision cannot absorb the worst of them.
"""

import bisect
import functools
import math
import os

from .coeff import CoeffContext
from .padic import PrecisionError
from .series import (MultiSeries, YSeries, golden_dump, golden_load,
                     ms_eval, ms_eval_powers, ms_new, ms_permuted,
                     ms_powers, ms_set, ser_add, ser_compose,
                     ser_from_terms, ser_monomial, ser_mul, ser_new,
                     ser_scale, ser_truncate)


def log_depth(p, M):
    """Largest k with p^k <= M."""
    k = 0
    while p ** (k + 1) <= M:
        k += 1
    return k


class FormalGroupLaw:
    """The truncated law with its derived series memoized.

    The exponential is solved on first read of exp.  _m_cache holds, for
    each m, the deepest m-series solved so far (m_series), _f_cache
    two-variable laws by their caps, _r_cache the prepared cyclic
    relations by (k, cap) and _b_cache the unit-determinant verdicts of
    freeness blocks by (k, l, entry); groupcoh fills the last two.  Every
    cached value is shared read-only.
    """

    __slots__ = ("p", "n", "M", "ctx", "log_elems", "log", "_exp",
                 "_m_cache", "_f_cache", "_r_cache", "_b_cache")

    def __init__(self, p, n, M, ctx, log_elems, log):
        self.p = p
        self.n = n
        self.M = M
        self.ctx = ctx
        self.log_elems = log_elems
        self.log = log
        self._exp = None
        self._m_cache = {}
        self._f_cache = {}
        self._r_cache = {}
        self._b_cache = {}

    @property
    def exp(self):
        if self._exp is None:
            self._exp = solve_log(self.ctx, self.log_elems,
                                  ser_monomial(self.ctx, self.M, 1))
        return self._exp

    # the group law at chosen degree caps

    def two_var(self, Mx=None, My=None, tcap=None):
        Mx = self.M if Mx is None else Mx
        My = self.M if My is None else My
        key = (Mx, My, tcap)
        F = self._f_cache.get(key)
        if F is None:
            F = _build_two_var(self, Mx, My, tcap)
            self._f_cache[key] = F
        return F

    @property
    def F(self):
        return self.two_var(tcap=self.M)

    def _cap(self, cap):
        if cap is None:
            return self.M
        if not 1 <= cap <= self.M:
            raise ValueError("series cap %d outside 1..%d" % (cap, self.M))
        return cap

    def m_series(self, m, cap=None):
        """[m](y) solved to y-degree cap (default M), or deeper: the memo
        keeps the deepest series solved for each m and returns it for any
        cap at or below its own, so a reader cuts it at its cap.  A deeper
        request solves again and replaces the entry.  A cap below 1 or
        above M raises ValueError."""
        cap = self._cap(cap)
        got = self._m_cache.get(m)
        if got is None or got.M < cap:
            got = self._m_cache[m] = _m_series(self, m, cap)
        return got

    def pk_series(self, k, cap=None):
        """[p^k](y) as m_series gives it, checked against its defining
        congruence; the cap must reach the leading degree p^{nk}."""
        cap = self._cap(cap)
        if self.p ** (self.n * k) > cap:
            raise ValueError(
                "truncation order %d cannot exhibit the p^%d-series leading "
                "term at degree %d" % (cap, k, self.p ** (self.n * k)))
        s = self.m_series(self.p ** k, cap)
        ok, _ = check_pk_congruence(self, s, k)
        if not ok:
            raise ArithmeticError("p^%d-series fails its defining congruence" % k)
        return s


def build_fgl(p, n, N=16, D=8, M=33):
    """Construct the truncated formal group law; fails fast when N cannot
    absorb the negative valuations of the logarithm coefficients.  The
    exponential is solved here, so a PrecisionError it raises comes from
    the build."""
    fgl = _build_log(p, n, N, D, M)
    fgl.exp
    return fgl


def _build_log(p, n, N, D, M):
    """The law with its logarithm built and its exponential not yet
    solved."""
    if n < 1 or M < 1:
        raise ValueError("height and truncation order must be positive")
    K = log_depth(p, M)
    if N < K + 1:
        raise PrecisionError(
            "logarithm coefficients reach valuation -%d; minimal sufficient "
            "precision is N=%d (got N=%d)" % (K, K + 1, N),
            needed_extra=K + 1 - N)
    ctx = CoeffContext(p, n, N=N, D=D)
    ls = _log_elems(ctx, K)
    _check_log_recursion(ctx, ls)
    log = ser_new(ctx, M)
    for k, l in enumerate(ls):
        if p ** k <= M:
            log.c[p ** k] = l
    return FormalGroupLaw(p, n, M, ctx, ls, log)


def _v_elem(ctx, j):
    """v_j with the height-n specialization baked in: v_n = u^(p^n-1),
    which is 1 in the coefficients, and v_j = 0 beyond."""
    p, n = ctx.p, ctx.n
    if j == 0:
        return ctx.from_int(p)
    if j < n:
        return ctx.v_gen(j)
    if j == n:
        return ctx.one()
    return ctx.zero()


def _iterated_p_power(ctx, v, i):
    """v^{p^i} by repeated p-th power, which keeps intermediate sizes down."""
    for _ in range(i):
        vq = v
        for _ in range(ctx.p - 1):
            vq = ctx.mul(vq, v)
        v = vq
    return v


def _log_elems(ctx, K):
    p = ctx.p
    ls = [ctx.one()]
    for k in range(1, K + 1):
        acc = ctx.zero()
        for i in range(k):
            v = _v_elem(ctx, k - i)
            if v.is_zero():
                continue
            acc = ctx.add(acc, ctx.mul(ls[i], _iterated_p_power(ctx, v, i)))
        scale = ctx.padic.from_fraction(1, p - p ** (p ** k))
        ls.append(ctx.scalar_mul(scale, acc))
    return ls


def _check_log_recursion(ctx, ls):
    """Re-check p*l_k = sum l_i v_{k-i}^{p^i} as stored, including the i=k
    term, at the depth the scalars support."""
    p = ctx.p
    for k in range(1, len(ls)):
        lhs = ctx.int_mul(p, ls[k])
        rhs = ctx.zero()
        for i in range(k + 1):
            v = _v_elem(ctx, k - i)
            if v.is_zero():
                continue
            rhs = ctx.add(rhs, ctx.mul(ls[i], _iterated_p_power(ctx, v, i)))
        diff = ctx.sub_raw(lhs, rhs)
        depth = max(1, ctx.N - len(ls) - 1)
        if not ctx.is_zero_to(diff, depth):
            raise ArithmeticError(
                "logarithm recursion self-check failed at k=%d" % k)


def solve_log(ctx, log_elems, S):
    """T with T + sum_{k>=1} l_k T^{p^k} = S, degree by degree.

    Power chains for T^{p^k} are maintained in lockstep: entries at degree m
    only ever consume entries of strictly smaller degree, so each chain is
    topped up once per degree before T[m] is read off.  A chain is
    T^e = T^h * T^(e-h) with h = floor(e / 2q) * q, q the largest power of
    p dividing e below e (_chain_power).  At p = 2 that is h = e / 2, the
    squares; at p = 3, M = 242 it makes 8 chains where halving e makes 17."""
    p = ctx.p
    M = S.M
    needed = [p ** k for k in range(1, log_depth(p, M) + 1)]
    T = [ctx.zero() for _ in range(M + 1)]
    T_nz = []
    # chains: (A, nzA, B, minB, out, nz); A and B are earlier outs or T, and
    # each nz lists, ascending, the degrees of its array filled so far with a
    # nonzero entry (an array's nonzero degrees start at its min)
    chains = []
    by_power = {1: (T, T_nz, 1)}
    for q in needed:
        _chain_power(ctx, M, by_power, chains, q)
    emul, addmul = ctx.mul, ctx.addmul_into
    for m in range(1, M + 1):
        for A, nzA, B, minB, out, nz in chains:
            hi = m - minB
            acc = None
            for a in nzA:
                if a > hi:
                    break
                eb = B[m - a]
                if eb.is_zero():
                    continue
                if acc is None:
                    acc = emul(A[a], eb)
                else:
                    addmul(acc.t, A[a], eb)
            if acc is not None:
                out[m] = acc
                if not acc.is_zero():
                    nz.append(m)
        acc = S.c[m]
        for k, q in enumerate(needed, start=1):
            if q > m:
                break
            l = log_elems[k]
            if l.is_zero():
                continue
            b = by_power[q][0][m]
            if b.is_zero():
                continue
            acc = ctx.sub(acc, ctx.mul(l, b))
        T[m] = acc
        if not acc.is_zero():
            T_nz.append(m)
    return YSeries(ctx, T)


def _chain_power(ctx, M, by_power, chains, e):
    """Register the chain for T^e, and first those of T^h and T^(e-h)
    with h = floor(e / (2q)) * q, q the largest power of p dividing e below
    e: at p = 3 the exponents 2, 3, 6, 9, 18, 27, ...  At p = 2 every
    exponent is a power of two, so h = e / 2: T^e is a square.  by_power
    maps each exponent to (array, nz, min degree).  Not a closure in
    solve_log: one that calls itself is a reference cycle, which keeps
    every chain allocated until the cycle collector runs."""
    if e in by_power:
        return by_power[e]
    q = math.gcd(e, ctx.p ** log_depth(ctx.p, e - 1))
    h = e // q // 2 * q
    A, nzA, minA = _chain_power(ctx, M, by_power, chains, h)
    B, _, minB = _chain_power(ctx, M, by_power, chains, e - h)
    out = [ctx.zero() for _ in range(M + 1)]
    nz = []
    chains.append((A, nzA, B, minB, out, nz))
    by_power[e] = (out, nz, minA + minB)
    return by_power[e]


def _m_series(fgl, m, cap):
    """[m](y) to y-degree cap: solve_log of m log y cut at the cap.  Each
    degree of the solve reads only lower ones, so the cut series is the
    full one's first cap + 1 coefficients, scalar for scalar.  [0](y) is
    zero and [1](y) is y, exactly, with no solve."""
    ctx = fgl.ctx
    if m == 0:
        return ser_new(ctx, cap)
    if m == 1:
        return ser_monomial(ctx, cap, 1)
    log = fgl.log if cap == fgl.M else ser_truncate(fgl.log, cap)
    return solve_log(ctx, fgl.log_elems, ser_scale(ctx.from_int(m), log))


def _series_power(cache, base, e):
    """base^e by repeated multiplication, memoized in cache, which must
    hold the exponent-0 entry."""
    if e in cache:
        return cache[e]
    cur = ser_mul(_series_power(cache, base, e - 1), base)
    cache[e] = cur
    return cur


def _build_two_var(fgl, Mx, My, tcap=None):
    """F(x, y) = sum_j G_j(x) (log y)^j with
    G_j = sum_{i >= j} binom(i, j) e_i (log x)^{i-j}, formed only under the
    caps.

    Cap rule: with teff the effective total cap (tcap, at most Mx + My),
    row G_j is formed to x-degree min(Mx, teff - j) (_row), and its
    coefficient of x^dx meets (log y)^j only at y-degrees
    j..min(My, teff - dx); every other term lies past a cap.  That row
    of (log y)^j, its nonempty coefficients keyed for F, is a slice of one
    list per j, and the coefficient of x^dx meets it in one
    ctx.addmul_row call: a new key of F is stored when its product has
    terms, and a stored one takes the product in place and is deleted
    when it empties, as in ms_mul.  Terms and degrees come in ascending
    order, so every coefficient is the sum, in the same order, that
    forming every term and dropping those past the caps gives, and F's
    keys come in that order.  No product or coefficient past the caps is
    formed.  A row forms its products and sums degree by degree, so when
    two of them fall short of the floor, the one raised can differ from
    forming each term's products before its sums.

    The exponential only enters through degrees up to the effective total
    cap, so the law must have been built at least that deep."""
    ctx = fgl.ctx
    teff = Mx + My if tcap is None else min(tcap, Mx + My)
    if teff > fgl.M:
        raise ValueError(
            "two-variable caps reach total degree %d; the law was built to "
            "degree %d" % (teff, fgl.M))
    e = fgl.exp.c
    logx = YSeries(ctx, list(fgl.log.c[: Mx + 1]))
    xpow = {0: ser_from_terms(ctx, Mx, {0: ctx.one()})}
    if My == Mx:
        # log y is log x: one cache forms each power once
        logy, ypow = logx, xpow
    else:
        logy = YSeries(ctx, list(fgl.log.c[: My + 1]))
        ypow = {0: ser_from_terms(ctx, My, {0: ctx.one()})}
    F = ms_new(ctx, 2, (Mx, My), tcap=tcap)
    t = F.t
    # the packed key of x^dx y^dy is dx * xunit + dy * yunit (ms_layout)
    xunit, yunit = F.layout.units
    xpower = functools.partial(_series_power, xpow, logx)
    xrows = {}

    def xrow(k):
        # (degrees, row): the nonempty coefficients of (log x)^k as
        # (x-degree, coefficient), ascending, each power formed once
        got = xrows.get(k)
        if got is None:
            got = xrows[k] = _nonempty(xpower(k).c, 1)
        return got
    for j in range(min(My, teff) + 1):
        terms = []
        for i in range(j, min(teff, Mx + j) + 1):
            if e[i].t:
                c = ctx.int_mul(math.comb(i, j), e[i])
                if c.t:
                    terms.append((c, i - j))
        if not terms:
            continue
        G = _row(ctx, terms, xrow, min(Mx, teff - j))
        if not j:
            for dx, cx in enumerate(G):
                if cx is not None:
                    t[dx * xunit] = cx
            continue
        dys, prow = _nonempty(_series_power(ypow, logy, j).c, yunit)
        for dx, cx in enumerate(G):
            if cx is not None:
                ctx.addmul_row(t, dx * xunit, cx,
                               prow[:bisect.bisect_right(dys, teff - dx)])
    return F


def _nonempty(c, unit):
    """(degrees, row) of a dense coefficient list c: the degrees d of its
    nonempty coefficients, ascending, and the pairs (d * unit, c[d])."""
    ds = [d for d, a in enumerate(c) if a.t]
    return ds, [(d * unit, c[d]) for d in ds]


def _row(ctx, terms, power, hi):
    """Entries 0..hi of the row sum of c * (log x)^k over terms (c, k),
    None where no term lands or the terms cancel.  power(k) gives the
    nonempty coefficients of (log x)^k as _nonempty does, and each term
    adds its row up to x-degree hi in one ctx.addmul_row call on a map
    keyed by x-degree.  Each power is formed when its term comes up, as
    the sum of dense series forms it."""
    G = {}
    for c, k in terms:
        ds, row = power(k)
        ctx.addmul_row(G, 0, c, row[:bisect.bisect_right(ds, hi)])
    return [G.get(dx) for dx in range(hi + 1)]


def formal_sum(fgl, terms):
    """Group sum of one-variable series at the law's cap, solved through the
    logarithm: T with log T = sum_i log f_i.

    Each term needs a zero constant term and the cap fgl.M; ser_compose
    raises ValueError otherwise.  With fewer than two nonzero terms the
    sum is that term, or zero, as given: a round trip through log and exp
    would only add zero markers."""
    logs = [ser_compose(fgl.log, t) for t in terms]
    nonzero = [t for t in terms if not t.is_zero()]
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else ser_new(fgl.ctx, fgl.M)
    return solve_log(fgl.ctx, fgl.log_elems, functools.reduce(ser_add, logs))


def check_pk_congruence(fgl, s, k):
    """[p^k](y) = u^{p^{nk}-1} y^{p^{nk}} modulo (p, v_1, ..., v_{n-1}) and
    y-degrees above p^{nk}.  Exact whatever the cap: reduction mod the
    maximal ideal kills every deeper term of the p^k-series.

    Returns (ok, witness)."""
    ctx = fgl.ctx
    lead = fgl.p ** (fgl.n * k)
    for d in range(1, min(s.M, lead) + 1):
        red = ctx.reduce_mod_pv(s.c[d])
        if red != (1 if d == lead else 0):
            # the v-free term of y^d carries u^(d-1)
            return False, {"degree": d,
                           "residue": [(d - 1, red)] if red else []}
    return True, {"leading_degree": lead, "leading_u_exponent": lead - 1}


def check_integrality(s):
    """Every stored scalar has valuation >= 0.  Accepts one-variable and
    multivariable series."""
    coeffs = s.t.values() if hasattr(s, "t") else s.c
    for e in coeffs:
        for v, u, _ in e.t.values():
            if u != 0 and v < 0:
                return False
    return True


def check_unitality(fgl, cap=None, depth=8):
    """F(y, 0) = y and F(0, y) = y coefficientwise up to the cap.

    Returns (ok, witness); the witness names the first failing degree."""
    ctx = fgl.ctx
    cap = fgl.M if cap is None else cap
    F = fgl.two_var(cap, cap, tcap=cap)
    for d in range(cap + 1):
        want = ctx.one() if d == 1 else ctx.zero()
        if not ctx.eq_to(F.coeff((d, 0)), want, depth):
            return False, {"degree": d, "side": "left"}
        if not ctx.eq_to(F.coeff((0, d)), want, depth):
            return False, {"degree": d, "side": "right"}
    return True, {"cap": cap, "depth": depth}


def check_commutativity(fgl, cap=None, depth=8):
    """F(x, y) = F(y, x): every coefficient equals its mirror."""
    ctx = fgl.ctx
    cap = fgl.M if cap is None else cap
    F = fgl.two_var(cap, cap, tcap=cap)
    checked = 0
    for i in range(cap + 1):
        for j in range(i + 1, cap + 1 - i):
            if not ctx.eq_to(F.coeff((i, j)), F.coeff((j, i)), depth):
                return False, {"exponents": (i, j)}
            checked += 1
    return True, {"cap": cap, "depth": depth, "pairs": checked}


def check_associativity(fgl, cap=None, depth=8):
    """F(F(x, y), z) = F(x, F(y, z)) on three formal variables, total degree
    capped.  The dominant cost of the integrity battery.

    F(y, z) and each of its powers are F(x, y) and its power renamed
    x->y->z (ms_permuted: the three caps are equal), so only the powers of
    F(x, y) are multiplied out.  At p=2, n=1, N=59 the products then meet
    269,480 pairs of terms at cap 16 (7,447,092 at cap 32), of which
    11.6 % (10.8 %) fit under the cap; ms_mul multiplies only those.  The
    terms G^i·z^j and x^i·H^j of the two sides, like x^i·y^j inside
    F(x, y), multiply by nothing: ms_eval_powers scales G^i or H^j by F's
    coefficient straight into the sum, the keys shifted in the same
    ctx.addmul_row call.  On the three fgl-axioms shapes, ms_mul and
    ms_eval_powers make 5,900 such calls for 107,983 products."""
    ctx = fgl.ctx
    cap = fgl.M if cap is None else cap
    F = fgl.two_var(cap, cap, tcap=cap)
    gens = []
    for i in range(3):
        g = ms_new(ctx, 3, (cap,) * 3, tcap=cap)
        e = [0, 0, 0]
        e[i] = 1
        ms_set(g, tuple(e), ctx.one())
        gens.append(g)
    x, y, z = gens
    gpow = ms_powers(ms_eval(F, [x, y]))
    hcache = {}

    def hpow(e):
        h = hcache.get(e)
        if h is None:
            h = hcache[e] = ms_permuted(gpow(e), (2, 0, 1))
        return h

    left = ms_eval_powers(F, [gpow, ms_powers(z)])
    right = ms_eval_powers(F, [ms_powers(x), hpow])
    keys = set(left.t) | set(right.t)
    zero = ctx.zero()
    bad = [k for k in keys
           if not ctx.eq_to(left.t.get(k, zero), right.t.get(k, zero), depth)]
    if bad:
        # the first failure in the order of exponent tuples
        return False, {"exponents": min(map(left.exps, bad))}
    return True, {"cap": cap, "depth": depth, "terms": len(keys)}


# Read-through cache for built laws.  A law of y-degree cap up to
# LAW_FILE_CAP stores its fully-capped two-variable series (the dominant
# rebuild cost); the logarithm data is cheap enough to recompute and fixes
# the value of every derived series.  Past that cap a .built file records
# only that the build succeeded: no reader takes the full two-variable law
# there (its rings read it at their own caps, or one variable at a time),
# and forced it can fall short of the floor where every reader's law
# builds, as both such laws of paper-suite do (p=3, n=2: M=66 at N=25,
# M=242 at N=24), so storing it would move the law to a higher N.  A key
# whose build raised PrecisionError gets a .raises file instead, which
# replays the error without building.
LAW_FILE_CAP = 64


def _cache_stem(cache_dir, key):
    """The path of the key's cache files but for their suffix: .txt for
    a law file, .built for a law past LAW_FILE_CAP that built, .raises
    for a recorded PrecisionError."""
    return os.path.join(cache_dir, "fgl-p%d-n%d-N%d-D%d-M%d" % key)


def _write_atomic(path, text):
    """Land text at path with a rename, so no reader sees a partial
    write."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def fgl_cache_save(fgl, cache_dir):
    """Write the law's cache entry: up to LAW_FILE_CAP the fully-capped
    two-variable law in the golden-vector format, past it the .built
    file, a single line naming the key; returns the path written."""
    ctx = fgl.ctx
    key = (ctx.p, ctx.n, ctx.N, ctx.D, fgl.M)
    if fgl.M > LAW_FILE_CAP:
        path = _cache_stem(cache_dir, key) + ".built"
        _write_atomic(path, _built_head(key) + "\n")
        return path
    path = _cache_stem(cache_dir, key) + ".txt"
    # Forcing the law can raise; render before touching the file.
    _write_atomic(path, golden_dump(fgl.F))
    return path


def _load_law(path, key):
    """The cached two-variable law at path, or None when the file is
    missing, cannot be parsed, holds no two-variable law (a header alone,
    or one-variable exponents) or names other parameters (stale)."""
    try:
        with open(path) as fh:
            A = golden_load(fh.read())
    except (OSError, IndexError, KeyError, ValueError):
        return None
    if not isinstance(A, MultiSeries) or (
            A.ctx.p, A.ctx.n, A.ctx.N, A.ctx.D, max(A.caps)) != key:
        return None
    return A


def _built_head(key):
    return "built p=%d n=%d N=%d D=%d M=%d" % key


def _load_built(path, key):
    """Whether the .built file at path records this key: False when the
    file is missing or holds anything but the key's line."""
    try:
        with open(path) as fh:
            return fh.read() == _built_head(key) + "\n"
    except (OSError, ValueError):
        return False


def _raises_head(key):
    return "PrecisionError p=%d n=%d N=%d D=%d M=%d" % key


def _load_raises(path, key):
    """The PrecisionError recorded at path, or None when the file is
    missing, cannot be parsed or names other parameters.  The file holds
    a header naming the key, needed_extra, and the message."""
    try:
        with open(path) as fh:
            head, extra, message = fh.read().split("\n", 2)
        if head != _raises_head(key) or not message.endswith("\n"):
            return None
        return PrecisionError(message[:-1], needed_extra=int(extra))
    except (OSError, ValueError):
        return None


def build_fgl_cached(p, n, cache_dir, N=16, D=8, M=33):
    """build_fgl through the cache directory.

    A law file at this key seeds the fully-capped two-variable law, and
    only the logarithm is built; a .built file, for a law past
    LAW_FILE_CAP, builds only the logarithm too.  Either file shows that
    the build succeeded at this N, so the exponential is left to its first
    read.  A .raises file at this key raises its PrecisionError again
    without building.  Otherwise the law is built and its entry written
    (fgl_cache_save); when the build or the forced two-variable law raises
    PrecisionError, the .raises file is written instead.  A file that
    cannot be parsed is a miss."""
    key = (p, n, N, D, M)
    stem = _cache_stem(cache_dir, key)
    if M > LAW_FILE_CAP:
        if _load_built(stem + ".built", key):
            return _build_log(*key)
    else:
        A = _load_law(stem + ".txt", key)
        if A is not None:
            fgl = _build_log(*key)
            A.ctx = fgl.ctx
            fgl._f_cache[(M, M, M)] = A
            return fgl
    err = _load_raises(stem + ".raises", key)
    if err is not None:
        raise err
    try:
        fgl = build_fgl(p, n, N=N, D=D, M=M)
        fgl_cache_save(fgl, cache_dir)
    except PrecisionError as e:
        _write_atomic(stem + ".raises", "%s\n%d\n%s\n" % (
            _raises_head(key), e.needed_extra, e))
        raise
    return fgl
