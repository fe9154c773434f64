"""The p-typical formal group law at height n, truncated.

The logarithm comes from the recursion

    p * l_k = sum_{0 <= i <= k} l_i * v_{k-i}^{p^i},   l_0 = 1, v_0 = p,

with v_n specialized to u^{p^n - 1} and higher v's to zero.  Everything else
is derived from the l_k: the exponential and every m-series solve

    T + sum_{k >= 1} l_k T^{p^k} = S

degree by degree for the appropriate right side, which keeps each
coefficient a single short linear combination instead of a tower of
compositions.  The two-variable group law is assembled from the binomial
expansion of exp(log x + log y) at independent degree caps in x and y.

Scalars of valuation -k appear in the l_k; the builder refuses to run when
the working precision cannot absorb the worst of them.
"""

import math
import os

from .coeff import CoeffContext
from .padic import PrecisionError
from .series import (YSeries, golden_dump, golden_load, ms_eval, ms_new,
                     ms_set, ser_add, ser_from_terms, ser_monomial, ser_mul,
                     ser_new, ser_scale)


def log_depth(p, M):
    """Largest k with p^k <= M."""
    k = 0
    while p ** (k + 1) <= M:
        k += 1
    return k


class FormalGroupLaw:
    """The truncated law with its derived series memoized.

    _m_cache holds m-series by m, _f_cache two-variable laws by their caps,
    and _r_cache the prepared cyclic relations by (k, cap), which
    groupcoh fills; every cached value is shared read-only.
    """

    __slots__ = ("p", "n", "M", "ctx", "log_elems", "log", "exp",
                 "_m_cache", "_f_cache", "_r_cache")

    def __init__(self, p, n, M, ctx, log_elems, log, exp):
        self.p = p
        self.n = n
        self.M = M
        self.ctx = ctx
        self.log_elems = log_elems
        self.log = log
        self.exp = exp
        self._m_cache = {}
        self._f_cache = {}
        self._r_cache = {}

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

    def m_series(self, m):
        got = self._m_cache.get(m)
        if got is None:
            got = _m_series(self, m)
            self._m_cache[m] = got
        return got

    def pk_series(self, k):
        if k == 0:
            return ser_monomial(self.ctx, self.M, 1)
        if self.p ** (self.n * k) > self.M:
            raise ValueError(
                "truncation order %d cannot exhibit the p^%d-series leading "
                "term at degree %d" % (self.M, k, self.p ** (self.n * k)))
        s = self.m_series(self.p ** k)
        ok, _ = check_pk_congruence(self, s, k)
        if not ok:
            raise ArithmeticError("p^%d-series fails its defining congruence" % k)
        return s


def build_fgl(p, n, N=16, D=8, M=33):
    """Construct the truncated formal group law; fails fast when N cannot
    absorb the negative valuations of the logarithm coefficients."""
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
    log = ser_new(ctx, M, any(l.trunc for l in ls))
    for k, l in enumerate(ls):
        if p ** k <= M:
            log.c[p ** k] = l
    exp = solve_log(ctx, ls, ser_monomial(ctx, M, 1))
    return FormalGroupLaw(p, n, M, ctx, ls, log, exp)


def _v_elem(ctx, j):
    """v_j with the height-n specialization baked in."""
    p, n = ctx.p, ctx.n
    if j == 0:
        return ctx.from_int(p)
    if j < n:
        return ctx.v_gen(j)
    if j == n:
        return ctx.u_mono(p ** n - 1)
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
            if v.is_zero() and not v.trunc:
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
            if v.is_zero() and not v.trunc:
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
    topped up once per degree before T[m] is read off."""
    p = ctx.p
    M = S.M
    needed = []
    q = p
    while q <= M:
        needed.append(q)
        q *= p
    T = [ctx.zero() for _ in range(M + 1)]
    # chains: (A, B, out, minA, minB); A and B are earlier outs or T
    chains = []
    by_power = {1: (T, 1)}

    def ensure_power(e):
        if e in by_power:
            return by_power[e]
        h, r = divmod(e, 2)
        A, minA = ensure_power(h)
        B, minB = ensure_power(h + r)
        out = [ctx.zero() for _ in range(M + 1)]
        chains.append((A, B, out, minA, minB))
        by_power[e] = (out, minA + minB)
        return by_power[e]

    for q in needed:
        ensure_power(q)
    emul, eadd = ctx.mul, ctx.add
    trunc = S.trunc or any(l.trunc for l in log_elems)
    for m in range(1, M + 1):
        for A, B, out, minA, minB in chains:
            hi = m - minB
            acc = None
            for a in range(minA, hi + 1):
                ea = A[a]
                if ea.is_zero():
                    continue
                eb = B[m - a]
                if eb.is_zero():
                    continue
                prod = emul(ea, eb)
                acc = prod if acc is None else eadd(acc, prod)
            if acc is not None:
                out[m] = acc
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
    return YSeries(ctx, T, trunc)


def _m_series(fgl, m):
    ctx = fgl.ctx
    if m == 0:
        return ser_new(ctx, fgl.M)
    S = ser_scale(ctx.from_int(m), fgl.log)
    return solve_log(ctx, fgl.log_elems, S)


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
    G_j = sum_{i >= j} binom(i, j) e_i (log x)^{i-j}.

    The exponential only enters through degrees up to the effective total
    cap, so the law must have been built at least that deep."""
    ctx = fgl.ctx
    teff = Mx + My if tcap is None else min(tcap, Mx + My)
    if teff > fgl.M:
        raise ValueError(
            "two-variable caps reach total degree %d; the law was built to "
            "degree %d" % (teff, fgl.M))
    e = fgl.exp.c
    logx = YSeries(ctx, list(fgl.log.c[: Mx + 1]), fgl.log.trunc)
    logy = YSeries(ctx, list(fgl.log.c[: My + 1]), fgl.log.trunc)
    F = ms_new(ctx, 2, (Mx, My), tcap=tcap)
    F.trunc = fgl.log.trunc or fgl.exp.trunc
    xpow = {0: ser_from_terms(ctx, Mx, {0: ctx.one()})}
    ypow = {0: ser_from_terms(ctx, My, {0: ctx.one()})}

    for j in range(min(My, teff) + 1):
        # G_j as a series in x
        G = ser_new(ctx, Mx)
        any_term = False
        for i in range(j, teff + 1):
            ei = e[i] if i < len(e) else None
            if ei is None or ei.is_zero():
                continue
            if i - j > Mx:
                continue
            c = ctx.int_mul(math.comb(i, j), ei)
            if c.is_zero():
                continue
            G = ser_add(G, ser_scale(c, _series_power(xpow, logx, i - j)))
            any_term = True
        if not any_term:
            continue
        P = _series_power(ypow, logy, j) if j else None
        for dx, cx in enumerate(G.c):
            if cx.is_zero():
                continue
            if j == 0:
                ms_set(F, (dx, 0), ctx.add(F.coeff((dx, 0)), cx))
                continue
            for dy, cy in enumerate(P.c):
                if cy.is_zero():
                    continue
                cur = F.coeff((dx, dy))
                ms_set(F, (dx, dy), ctx.add(cur, ctx.mul(cx, cy)))
    return F


def eval_pair(F, f, g):
    """F(f, g) for one-variable series f, g with zero constant terms."""
    if not f.c[0].is_zero() or not g.c[0].is_zero():
        raise ValueError("formal sum needs zero constant terms")
    ctx = F.ctx
    M = f.M
    if g.M != M:
        raise ValueError("series caps differ")
    out = ser_new(ctx, M, F.trunc or f.trunc or g.trunc)
    fpow = {0: ser_from_terms(ctx, M, {0: ctx.one()})}
    gpow = {0: ser_from_terms(ctx, M, {0: ctx.one()})}

    for (i, j) in sorted(F.t):
        c = F.t[(i, j)]
        term = None
        if i:
            term = _series_power(fpow, f, i)
        if j:
            gj = _series_power(gpow, g, j)
            term = gj if term is None else ser_mul(term, gj)
        if term is None:
            raise ValueError("group law with a constant term")
        out = ser_add(out, ser_scale(c, term))
    return out


def formal_sum(fgl, terms):
    """Left-associated iterated group sum of one-variable series."""
    ctx = fgl.ctx
    if not terms:
        return ser_new(ctx, fgl.M)
    acc = terms[0]
    if not acc.c[0].is_zero():
        raise ValueError("formal sum needs zero constant terms")
    for t in terms[1:]:
        if t.is_zero():
            continue
        if acc.is_zero():
            acc = t
            continue
        acc = eval_pair(fgl.two_var(acc.M, acc.M, tcap=acc.M), acc, t)
    return acc


def araki_formal_sum(fgl):
    """The iterated group sum of v_i y^{p^i}, i = 0..n: the defining shape
    of the p-series."""
    ctx = fgl.ctx
    parts = []
    for i in range(fgl.n + 1):
        d = fgl.p ** i
        if d > fgl.M:
            break
        parts.append(ser_from_terms(ctx, fgl.M, {d: _v_elem(ctx, i)}))
    return formal_sum(fgl, parts)


def check_pk_congruence(fgl, s, k):
    """[p^k](y) = u^{p^{nk}-1} y^{p^{nk}} modulo (p, v_1, ..., v_{n-1}) and
    y-degrees above p^{nk}.  Exact whatever the cap: reduction mod the
    maximal ideal kills every deeper term of the p^k-series.

    Returns (ok, witness)."""
    ctx = fgl.ctx
    lead = fgl.p ** (fgl.n * k)
    for d in range(1, min(s.M, lead) + 1):
        red = ctx.reduce_mod_pv(s.c[d])
        if d < lead and red:
            return False, {"degree": d, "residue": sorted(red.items())}
        if d == lead and red != {lead - 1: 1}:
            return False, {"degree": d, "residue": sorted(red.items())}
    return True, {"leading_degree": lead, "leading_u_exponent": lead - 1}


def check_integrality(s):
    """Every stored scalar has valuation >= 0.  Accepts one-variable and
    multivariable series."""
    coeffs = s.t.values() if hasattr(s, "t") else s.c
    for e in coeffs:
        for c in e.t.values():
            if c.unit != 0 and c.val < 0:
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
    capped.  The dominant cost of the integrity battery.  Its products meet
    849,640 pairs of terms at p=2, n=1, cap 16 (23,379,984 at cap 32), of
    which 13 % (11.5 %) fit under the cap; ms_mul visits only those."""
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
    left = ms_eval(F, [ms_eval(F, [x, y]), z])
    right = ms_eval(F, [x, ms_eval(F, [y, z])])
    keys = set(left.t) | set(right.t)
    for key in sorted(keys):
        if not ctx.eq_to(left.coeff(key), right.coeff(key), depth):
            return False, {"exponents": key}
    return True, {"cap": cap, "depth": depth, "terms": len(keys)}


# Read-through cache for built laws.  Only the two-variable series is
# stored (the dominant rebuild cost); the logarithm data is cheap enough
# to recompute and fixes the value of every derived series.

def fgl_cache_name(p, n, N, D, M):
    return "fgl-p%d-n%d-N%d-D%d-M%d.txt" % (p, n, N, D, M)


def fgl_cache_save(fgl, cache_dir):
    """Write the fully-capped two-variable law in the golden-vector
    format; returns the path written."""
    os.makedirs(cache_dir, exist_ok=True)
    ctx = fgl.ctx
    path = os.path.join(cache_dir, fgl_cache_name(
        ctx.p, ctx.n, ctx.N, ctx.D, fgl.M))
    # Forcing the law can raise; render before touching the file, and land
    # it with a rename so no reader ever sees a partial write.
    text = golden_dump(fgl.F, kind="multiseries")
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def build_fgl_cached(p, n, N=16, D=8, M=33, cache_dir=None):
    """build_fgl, seeding the two-variable law from the cache directory
    when a matching file exists and writing one when it does not.  The
    cache directory defaults to MORAVA_CACHE_DIR, then .cache."""
    if cache_dir is None:
        cache_dir = os.environ.get("MORAVA_CACHE_DIR", ".cache")
    fgl = build_fgl(p, n, N=N, D=D, M=M)
    path = os.path.join(cache_dir, fgl_cache_name(p, n, N, D, M))
    A = None
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
        try:
            A = golden_load(text)
        except (IndexError, KeyError, ValueError):
            A = None
    # a file whose header names other parameters is stale: rebuild it
    if A is not None and (A.ctx.p, A.ctx.n, A.ctx.N, A.ctx.D,
                          max(A.caps)) != (p, n, N, D, M):
        A = None
    if A is not None:
        A.ctx = fgl.ctx
        A.tcap = M
        fgl._f_cache[(M, M, M)] = A
    else:
        fgl_cache_save(fgl, cache_dir)
    return fgl
