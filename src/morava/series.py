"""Truncated power series over the coefficient ring.

One-variable series are dense lists indexed by y-degree 0..M; trailing zeros
are stored so the cap stays visible.  A multivariable series is a sparse
map from packed exponent vectors, with a per-variable cap each (and an
optional total cap).  A term past a cap is dropped, never an error: the
algebra downstream reasons explicitly about what lives beyond the caps.

A packed key is one int per exponent vector (ms_layout, after Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): one field per variable with a guard bit
above each, topped by the total degree.  The product of two monomials is
the sum of their keys, and one mask test of that sum plus a bias tells
whether it passes any cap.  No stored key passes a cap, and the kernels
rely on it: a field that passed its cap could carry into the next one.
Int order is not tuple order (the degree is on top), so every ordered walk
sorts by the exponent tuple.

A MultiSeries maps packed keys to coefficients; the two-variable law is
one.  Products and substitutions of multiseries run on the flat kernel, in
the fixed-modulus model of Caruso ("Computations with p-adic numbers",
arXiv:1701.06794): a FlatSeries maps the key of a whole term v^b x^e
(flat_layout) to an int mod p^A, and ms_mul is one loop over pairs of
terms, with one guard test per pair and one % p^A per output key.

Weierstrass preparation lifts along the v-adic filtration of E_0/(v^{D+1})
(Lang, Algebra, IV 9; von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 9).  Only the v-free part f_0 of f goes through the classical
successive-approximation division, whose iteration budget is a function of
the working precision and the v-degree cap (nontermination inside it
signals a non-prepared input); each v-monomial then costs one long
division by the monic y^d - r_0.  Every series in between lies over Z_p,
so it is held as a list of scalars, not of coefficients: a product of two
one-term coefficients is then one PadicContext.mul, with no dict or
coefficient object, and only the result is joined back into
coefficients.  The sums use the coefficient kernel's one sum rule
(CoeffContext._sum).  The unit U of f = U * g is never formed.  A series
with no v-terms, as at height one, goes through the
successive-approximation division alone.
"""

import bisect
import collections
import functools
from operator import gt, itemgetter, mul

from .coeff import CoeffContext, CoeffElem, _floor_error
from .padic import EXACT, PrecisionError


class YSeries:
    __slots__ = ("ctx", "c")

    def __init__(self, ctx, c):
        self.ctx = ctx
        self.c = c

    @property
    def M(self):
        return len(self.c) - 1

    def coeff(self, d):
        return self.c[d] if 0 <= d < len(self.c) else self.ctx.zero()

    def is_zero(self):
        return all(e.is_zero() for e in self.c)

    def __eq__(self, other):
        if not isinstance(other, YSeries):
            return NotImplemented
        return self.c == other.c

    def __repr__(self):
        terms = ["y^%d*%r" % (d, e) for d, e in enumerate(self.c) if not e.is_zero()]
        return "YSeries(M=%d: %s)" % (self.M, " + ".join(terms) or "0")


def ser_new(ctx, M):
    return YSeries(ctx, [ctx.zero() for _ in range(M + 1)])


def ser_from_terms(ctx, M, terms):
    s = ser_new(ctx, M)
    for d, e in terms.items():
        if d <= M:
            s.c[d] = e
    return s


def ser_truncate(f, M2):
    """Copy at the lower cap M2."""
    if M2 >= f.M:
        raise ValueError("truncate only lowers the cap")
    return YSeries(f.ctx, list(f.c[: M2 + 1]))


def ser_monomial(ctx, M, d, e=None):
    s = ser_new(ctx, M)
    if d <= M:
        s.c[d] = e if e is not None else ctx.one()
    return s


def _check_match(f, g):
    if f.ctx is not g.ctx:
        raise ValueError("series built over different coefficient contexts")
    if f.M != g.M:
        raise ValueError("series caps differ: %d vs %d" % (f.M, g.M))


def _zip_with(op, f, g):
    """Coefficientwise op.  A pair of zeros gives back the first, without a
    call: no terms, as op would return."""
    _check_match(f, g)
    return YSeries(f.ctx, [op(a, b) if a.t or b.t else a
                           for a, b in zip(f.c, g.c)])


def ser_add(f, g):
    return _zip_with(f.ctx.add, f, g)


def ser_sub(f, g):
    return _zip_with(f.ctx.sub, f, g)


def ser_scale(e, f):
    ctx = f.ctx
    return YSeries(ctx, [ctx.mul(e, a) for a in f.c])


def ser_mul(f, g):
    _check_match(f, g)
    ctx = f.ctx
    M = f.M
    out = [ctx.zero() for _ in range(M + 1)]
    addmul = ctx.addmul_into
    fa = [(i, a) for i, a in enumerate(f.c) if not a.is_zero()]
    gb = [(j, b) for j, b in enumerate(g.c) if not b.is_zero()]
    for i, a in fa:
        for j, b in gb:
            d = i + j
            if d > M:
                break
            addmul(out[d].t, a, b)
    return YSeries(ctx, out)


def ser_rshift(f, d):
    """Divide by y**d; requires the low coefficients to vanish as stored.
    The cap honestly drops to M - d."""
    if d == 0:
        return f
    for i in range(min(d, len(f.c))):
        if not f.c[i].is_zero():
            raise ValueError("series is not divisible by y^%d as stored" % d)
    return YSeries(f.ctx, list(f.c[d:]))


def ser_compose(f, g):
    """f(g(y)); g must have zero constant term."""
    _check_match(f, g)
    if not g.c[0].is_zero():
        raise ValueError("composition needs a zero constant term")
    ctx = f.ctx
    M = f.M
    out = ser_new(ctx, M)
    out.c[0] = f.c[0]
    power = None
    lo = 0
    for i in range(1, M + 1):
        a = f.c[i]
        if power is not None and all(e.is_zero() for e in power.c):
            break
        if i == 1:
            power = g
        else:
            power = ser_mul(power, g)
        if a.is_zero():
            continue
        term = ser_scale(a, power)
        out = ser_add(out, term)
    return out


def ser_invert_unit(f):
    """Inverse of a series with unit constant term, degree by degree."""
    ctx = f.ctx
    if not ctx.is_unit(f.c[0]):
        raise ValueError("constant term is not a unit")
    M = f.M
    c0i = ctx.invert(f.c[0])
    out = [ctx.zero() for _ in range(M + 1)]
    out[0] = c0i
    for m in range(1, M + 1):
        # f * out must vanish in degree m
        acc = ctx.zero()
        for i in range(1, m + 1):
            if f.c[i].is_zero():
                continue
            ctx.addmul_into(acc.t, f.c[i], out[m - i])
        out[m] = ctx.neg(ctx.mul(c0i, acc))
    return YSeries(ctx, out)


# Weierstrass theory


def weierstrass_degree(f):
    """Lowest degree whose coefficient is a unit; validates that every lower
    coefficient lies in the maximal ideal."""
    ctx = f.ctx
    d = None
    for i, e in enumerate(f.c):
        if ctx.is_unit(e):
            d = i
            break
    if d is None:
        raise ValueError("no unit coefficient at or below the cap")
    for i in range(d):
        if ctx.reduce_mod_pv(f.c[i]):
            raise ValueError("coefficient below the distinguished degree is "
                             "a nonunit outside the maximal ideal")
    return d


# Preparation over Z_p.  A series over Z_p, one v-part of a series over
# E_0, is the list c: c[i] the scalar of y^i, None where that coefficient
# is empty.  Each function leaves the scalars and PrecisionError that its
# YSeries namesake leaves on coefficients keyed 0 alone.  The scalars must
# keep the invariant of padic.py: products index the power table by
# precision.


def _split(S, d):
    """(low, high) with S = low + y^d * high, both at S's cap."""
    return S[:d] + [None] * (len(S) - d), S[d:] + [None] * d


def _zp_add(ctx, F, G, neg=False, raw=False):
    """F + G, or F - G with ``neg``, as ser_add or ser_sub; with ``raw``
    the sums are unchecked (add_raw)."""
    out = list(F)
    horizon, pneg, _sum = ctx.prune_horizon, ctx.padic.neg, ctx._sum
    for i, b in enumerate(G):
        if b is None:
            continue
        if neg:
            b = pneg(b)
        a = out[i]
        if a is not None:
            out[i] = _sum(a, *b, raw)
        elif b[0] < horizon:
            out[i] = b
    return out


def _zp_mul(ctx, F, G, raw=False):
    """F*G, as ser_mul: the same pairs in the same order, each product a
    PadicContext.mul kept inside the prune horizon, as mul keeps it, and
    summed as CoeffContext.addmul_into sums it; with ``raw`` the sums are
    unchecked (add_raw)."""
    M = len(F) - 1
    out = [None] * (M + 1)
    horizon, mul, _sum = ctx.prune_horizon, ctx.padic.mul, ctx._sum
    gb = [(j, b) for j, b in enumerate(G) if b is not None]
    for i, a in enumerate(F):
        if a is None:
            continue
        for j, b in gb:
            d = i + j
            if d > M:
                break
            c = mul(a, b)
            if c[0] < horizon:
                cur = out[d]
                out[d] = c if cur is None else _sum(cur, *c, raw)
    return out


def _zp_invert(ctx, H):
    """ser_invert_unit: the inverse of a series with unit constant term,
    degree by degree."""
    c0 = CoeffElem(ctx, {} if H[0] is None else {0: H[0]})
    if not ctx.is_unit(c0):
        raise ValueError("constant term is not a unit")
    out = [ctx.invert(c0).t[0]]
    horizon, mul, _sum = ctx.prune_horizon, ctx.padic.mul, ctx._sum
    for m in range(1, len(H)):
        # f * out must vanish in degree m
        acc = None
        for i in range(1, m + 1):
            if H[i] is not None and out[m - i] is not None:
                c = mul(H[i], out[m - i])
                if c[0] < horizon:
                    acc = c if acc is None else _sum(acc, *c, False)
        c = acc and mul(out[0], acc)
        out.append(ctx.padic.neg(c) if c and c[0] < horizon else None)
    return out


def _divide(ctx, F, A, d, want_q):
    """(q, r) with F = q*A + r and r of degree below d, the Weierstrass
    degree of A; q is None unless want_q.  Successive approximation: split
    the running remainder at y^d, push the high part through the inverse
    of the degree->unit part of A, and iterate until the remainder dies
    out within the (p, v)-adic budget.  The quotient's sums, inside each
    step's part and across steps, are unchecked (add_raw): q is an
    intermediate, and only the remainder is stored."""
    low, high = _split(A, d)
    hinv = _zp_invert(ctx, high)
    rem = F
    q = [None] * len(F) if want_q else None
    for _ in range(ctx.N + ctx.prune_horizon + ctx.D + 4):
        lowpart, hi = _split(rem, d)
        # settled: nothing left above y^d but bounded-depth zero markers
        if not any(c and c[1] for c in hi):
            return q, lowpart
        # new remainder: rem - qi*(low + y^d high) = low part - qi*low
        qi = _zp_mul(ctx, hi, hinv, want_q)
        if want_q:
            q = _zp_add(ctx, q, qi, raw=True)
        rem = _zp_add(ctx, lowpart, _zp_mul(ctx, qi, low), neg=True)
    raise PrecisionError("Weierstrass division did not settle within the "
                         "iteration budget")


def _v_parts(f):
    """{b: f_b} with f = sum of v^b * f_b over the v-codes b of f's terms,
    each f_b a series over Z_p."""
    M = f.M
    parts = {}
    for i, e in enumerate(f.c):
        for vc, c in e.t.items():
            part = parts.get(vc)
            if part is None:
                part = parts[vc] = [None] * (M + 1)
            part[i] = c
    return parts


def _v_join(ctx, M, parts):
    """sum of v^b * parts[b] as a YSeries, the inverse of _v_parts: each
    coefficient keys its terms in the order of parts."""
    ps = list(parts.items())
    return YSeries(ctx, [
        CoeffElem(ctx, {b: c[i] for b, c in ps if c[i] is not None})
        for i in range(M + 1)])


def _long_divide(ctx, S, r0, d):
    """(Q, r) with S = Q*(y^d - r0) + r and r of degree below d, r0 being of
    degree below d: long division by a monic divisor, from the top degree
    down, with unchecked sums (add_raw)."""
    M = len(S) - 1
    rem = list(S)
    Q = [None] * (M + 1)
    low = [(i, e) for i, e in enumerate(r0[:d]) if e is not None]
    horizon, mul, _sum = ctx.prune_horizon, ctx.padic.mul, ctx._sum
    for j in range(M, d - 1, -1):
        a = rem[j]
        if a is None:
            continue
        Q[j - d] = a
        # subtract a*y^(j-d)*(y^d - r0): add a*r0 below y^j
        for i, e in low:
            k = j - d + i
            p = mul(a, e)
            if p[0] < horizon:
                rem[k] = p if rem[k] is None else _sum(rem[k], *p, True)
    return Q, _split(rem, d)[0]


def _prepare(f, d, full_q=False):
    """(q, g) with y^d = q*f + r modulo y^(M+1) and v^(D+1), r of degree
    below d and g = y^d - r, solved along the v-degree over Z_p; q is None
    unless full_q.

    Write f = sum v^b f_b over v-multidegrees b, each f_b over Z_p (the
    v-free part f_0 has the Weierstrass degree d of f; f_0 is f at height
    one).  The base y^d = q_0 f_0 + r_0 is _divide on f_0, and
    g_0 = y^d - r_0 = q_0 f_0 is monic.  For b != 0 the v^b part of the
    system is

        q_b f_0 + r_b = RHS_b = -sum over c + e = b, c != b of q_c f_e,

    and long division gives RHS_b = Q' g_0 + r_b, so q_b = Q' q_0.  The
    b go up by packed code: c <= b digit by digit packs to a code no
    greater, so every q_c that RHS_b reads is there.  A q_b is formed only
    when a later b reads it (or full_q asks), and q_0 only when f has
    v-terms or full_q asks.

    Every series in between is a list of scalars (the lists above):
    only the joins of the r_b, and of the q_b when full_q, are CoeffElem
    series.  The quotient's sums and the long division's are unchecked;
    RHS_b is summed with checks, as products are.  When f has v-terms,
    each stored scalar of r is checked against the floor once, by y-degree
    and then by code, a shortfall raising PrecisionError with
    needed_extra = floor - prec.  Pairs past the v-degree cap are not
    formed."""
    ctx, M = f.ctx, f.M
    parts = _v_parts(f)
    f0 = parts.pop(0)
    yd = [None] * (M + 1)
    yd[d] = ctx.padic.one()
    q0, r0 = _divide(ctx, yd, f0, d, full_q or bool(parts))
    vtot, D = ctx.vtotal, ctx.D
    lowest = min((vtot[b] for b in parts), default=0)
    q = {0: q0}
    rs = {0: r0}
    for b in range(1, ctx.ncodes):
        if vtot[b] > D:
            continue
        rhs = None
        for c, qc in q.items():
            e = b - c
            fe = parts.get(e)
            # c + e = b digit by digit: the packed subtraction never borrows
            if fe is None or vtot[e] != vtot[b] - vtot[c]:
                continue
            rhs = _zp_add(ctx, rhs or [None] * (M + 1),
                          _zp_mul(ctx, qc, fe), neg=True)
        if rhs is None:
            continue
        Qb, rs[b] = _long_divide(ctx, rhs, r0, d)
        if full_q or vtot[b] + lowest <= D:
            q[b] = _zp_mul(ctx, Qb, q0, True)
    if parts:
        floor = ctx.padic.floor
        for i in range(d):
            for c in rs.values():
                if c[i] and c[i][1] and c[i][2] < floor:
                    raise _floor_error(c[i][2], floor)
    return (_v_join(ctx, M, q) if full_q else None,
            ser_sub(ser_monomial(ctx, M, d), _v_join(ctx, M, rs)))


def weierstrass_prepare(f, d=None):
    """The g of f = U * g with U a unit series and g monic of degree d, the
    Weierstrass degree of f (found when not given), lower coefficients in
    the maximal ideal: g = y^d - r with y^d = q*f + r, solved along the
    v-degree by _prepare.  U is the inverse of q, which is not formed:
    g = q*f is all a caller needs."""
    if d is None:
        d = weierstrass_degree(f)
    return _prepare(f, d)[1]


# Multivariable series


_Layout = collections.namedtuple(
    "_Layout", ("fields", "units", "dshift", "top", "bias", "guard"))


@functools.lru_cache(maxsize=None)
def ms_layout(caps, tcap):
    """The packed-key layout of a multiseries with per-variable caps
    ``caps`` (a tuple) and total cap ``tcap`` (None: none).

    Variable i has the field fields[i] = (shift, mask), w bits wide with
    2**w > caps[i].  The total degree sits above them all, from bit
    dshift, so key >> dshift is a key's degree.  A guard bit sits above
    every field.  The key of an exponent vector under the caps is its dot
    product with ``units`` (unit i the key of variable i, its degree
    included), so the key of a product of monomials is the sum of theirs.

    ``bias`` holds 2**w - 1 - cap in each field, with ``top``, the total
    cap in effect (at most the sum of the caps), as the degree field's
    cap.  For two stored keys a and b, a field of a + b is at most twice
    its cap, so a + b + bias stays below 2**(w+1) in it, never carries
    into the next field, and sets its guard bit exactly when the field
    passes its cap: (a + b + bias) & guard is nonzero exactly when a + b
    passes a variable's cap or the total cap.  Keys depend on the caps
    alone; bias, guard and top also on tcap."""
    top = sum(caps) if tcap is None else min(tcap, sum(caps))
    fields = []
    bias = guard = off = 0
    for c in caps + (top,):
        width = c.bit_length()
        fields.append((off, (1 << width) - 1))
        bias |= ((1 << width) - 1 - c) << off
        guard |= 1 << (off + width)
        off += width + 1
    dshift = fields.pop()[0]
    units = tuple((1 << s) + (1 << dshift) for s, _ in fields)
    return _Layout(tuple(fields), units, dshift, top, bias, guard)


class MultiSeries:
    """A series in r variables under a cap per variable and an optional
    total cap.  t maps the packed key of each stored exponent vector
    (ms_layout) to its nonzero coefficient.  key, exps and items convert
    between keys and exponent tuples; coeff reads a coefficient by
    tuple."""

    __slots__ = ("ctx", "r", "caps", "tcap", "layout", "t")

    def __init__(self, ctx, r, caps, t=None, tcap=None):
        if len(caps) != r:
            raise ValueError("need one cap per variable")
        self.ctx = ctx
        self.r = r
        self.caps = tuple(caps)
        self.tcap = tcap
        self.layout = ms_layout(self.caps, tcap)
        self.t = t if t is not None else {}

    def key(self, exps):
        """The packed key of an exponent vector, or None when it passes a
        cap or has a negative exponent: such a vector is absent, and it is
        never packed, since its field would carry into the next one."""
        exps = tuple(exps)
        if len(exps) != self.r:
            raise ValueError("need one exponent per variable")
        if min(exps, default=0) < 0 or any(map(gt, exps, self.caps)) or \
                sum(exps) > self.layout.top:
            return None
        return sum(map(mul, exps, self.layout.units))

    def exps(self, k):
        """The exponent vector of a packed key."""
        return tuple((k >> s) & m for s, m in self.layout.fields)

    def items(self):
        """(exponent vector, coefficient) of each term, in stored order."""
        exps = self.exps
        return ((exps(k), e) for k, e in self.t.items())

    def coeff(self, exps):
        k = self.key(exps)
        e = None if k is None else self.t.get(k)
        return e or self.ctx.zero()

    def is_zero(self):
        return not self.t

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.caps == other.caps and self.t == other.t

    def __repr__(self):
        return "MultiSeries(r=%d, caps=%s, %d terms)" % (
            self.r, self.caps, len(self.t))


def ms_new(ctx, r, caps, tcap=None):
    return MultiSeries(ctx, r, caps, {}, tcap)


# Flat multiseries over Z/p^A


_Flat = collections.namedtuple(
    "_Flat", ("caps", "tcap", "y", "v", "off", "dshift", "bias", "guard"))


@functools.lru_cache(maxsize=None)
def flat_layout(caps, tcap, n, D):
    """The key layout of a flat multiseries over E_0 cut at v-degree D: the
    key of a term v^b x^e holds b in its low ``off`` bits, as ``v`` =
    ms_layout((D,) * (n - 1), D) packs it, and e above them, as ``y`` =
    ms_layout(caps, tcap) packs it.  A product's key is the sum of the
    keys, key >> dshift is the y-degree, and (a + b + bias) & guard is
    nonzero exactly when a pair passes a cap, the total cap or D."""
    y = ms_layout(caps, tcap)
    v = ms_layout((D,) * (n - 1), D)
    off = v.guard.bit_length()
    return _Flat(caps, tcap, y, v, off, y.dshift + off,
                 v.bias | y.bias << off, v.guard | y.guard << off)


class FlatSeries:
    """A multiseries over Z/q, q = p^A: t maps the flat_layout key of each
    stored term to an int in [0, q), which may be 0 (a product keeps every
    key that its pairs reach)."""

    __slots__ = ("lay", "q", "t")

    def __init__(self, lay, q, t):
        self.lay = lay
        self.q = q
        self.t = t

    def exps(self, k):
        """The exponent vector e of the key of v^b x^e."""
        k >>= self.lay.off
        return tuple((k >> s) & m for s, m in self.lay.y.fields)


def ms_flat(A, prec):
    """The multiseries A mod p^prec as a FlatSeries of its shape: the
    scalar at v-code b of the coefficient of x^e goes to the key of
    v^b x^e, a zero marker to 0.  The image is exact when every scalar is
    integral and pinned mod p^prec; the caller checks that."""
    ctx = A.ctx
    lay = flat_layout(A.caps, A.tcap, ctx.n, ctx.D)
    q = ctx.p ** prec
    vkeys = {}
    t = {}
    for k, e in A.t.items():
        k <<= lay.off
        for vc, (v, u, _) in e.t.items():
            b = vkeys.get(vc)
            if b is None:
                b = vkeys[vc] = sum(map(mul, ctx.vexps(vc), lay.v.units))
            t[k + b] = u * pow(ctx.p, v, q) % q if u else 0
    return FlatSeries(lay, q, t)


def ms_vars(lay, q):
    """The variables of a flat layout over Z/q."""
    return [FlatSeries(lay, q, {u << lay.off: 1 % q}) for u in lay.y.units]


def _flat_check(A, B):
    if A.lay != B.lay or A.q != B.q:
        raise ValueError("flat series of different shapes or moduli")


def _reduced(A, t):
    """t, reduced by one % q per key, as a series of A's shape."""
    q = A.q
    return FlatSeries(A.lay, q, {k: c % q for k, c in t.items()})


def _mul_into(t, A, B):
    """Add a * b into t[ka + kb], unreduced, for every pair of terms
    ka: a of A and kb: b of B that fits under the caps.  Each term of the
    longer factor meets the other's terms sorted by key, so by y-degree,
    up to the degree the total cap leaves it; one guard test per pair
    drops the rest past a cap."""
    lay = A.lay
    if len(A.t) < len(B.t):
        A, B = B, A
    row = sorted(B.t.items())
    keys = [k for k, _ in row]
    bias, guard, dshift, top = lay.bias, lay.guard, lay.dshift, lay.y.top
    rows = {}
    get = t.get
    for ka, a in A.t.items():
        room = top - (ka >> dshift)
        r = rows.get(room)
        if r is None:
            r = rows[room] = row[:bisect.bisect_left(keys,
                                                     (room + 1) << dshift)]
        sa = ka + bias
        for kb, b in r:
            if (sa + kb) & guard:
                continue
            k = ka + kb
            t[k] = get(k, 0) + a * b


def ms_mul(A, B):
    """The product of two flat series of one shape and modulus."""
    _flat_check(A, B)
    t = {}
    _mul_into(t, A, B)
    return _reduced(A, t)


def ms_powers(A):
    """A function e -> A^e by binary powering, each power made once and A^1
    being A itself.  An odd e takes A^(e-1) and multiplies by A once: that
    power is the square binary powering needs anyway, so it is taken from
    the cache when there and stored when not.  The chain of halvings is
    walked without recursion, so the powers are freed with the returned
    function, not left to the cycle collector."""
    cache = {0: FlatSeries(A.lay, A.q, {0: 1 % A.q}), 1: A}

    def power(e):
        chain = []
        while e not in cache:
            chain.append(e)
            e //= 2
        for e in reversed(chain):
            sq = e - e % 2
            if sq not in cache:
                half = cache[e // 2]
                cache[sq] = ms_mul(half, half)
            if e % 2:
                cache[e] = ms_mul(cache[sq], A)
        return cache[e]
    return power


def ms_permuted(A, perm):
    """A with its variables renamed: variable j of the result is variable
    perm[j] of A, each key's exponent fields repacked, its v-multidegree
    and degree kept.  The renamed caps must equal A's; then products and
    powers commute with the renaming."""
    lay = A.lay
    caps = tuple(lay.caps[i] for i in perm)
    if sorted(perm) != list(range(len(caps))) or caps != lay.caps:
        raise ValueError("renaming must permute variables of equal caps")
    off, fields = lay.off, lay.y.fields
    # (from, mask, to): field perm[j] of a key goes to field j
    moves = [(fields[i][0] + off, m, s + off)
             for i, (s, m) in zip(perm, fields)]
    keep = -1 << lay.dshift | (1 << off) - 1
    t = {}
    for k, c in A.t.items():
        nk = k & keep
        for src, m, dst in moves:
            nk |= (k >> src & m) << dst
        t[nk] = c
    return FlatSeries(lay, A.q, t)


def ms_eval(F, args):
    """Substitute flat series of one shape, with zero constant terms, for
    the variables of the flat series F, over F's modulus and v-degree cap;
    the result has the arguments' shape.  See ms_eval_powers."""
    return ms_eval_powers(F, [ms_powers(A) for A in args])


def ms_eval_powers(F, powers):
    """ms_eval of F on the arguments powers[i](1), given as their power
    functions e -> A_i^e, so that a caller holding powers already (renamed
    ones, say: fgl.check_associativity) passes them in.

    The argument j of fewest terms is summed first: F is the sum, over the
    exponents e' of the other variables, of the product X_e' of their
    powers times R_e' = the sum of c * A_j^(e_j) over F's terms c x^e at
    e'.  So F(G, z) and F(x, H) cost one product G^i * R_i or H^j * R_j
    per power, with the monomials z^j or x^i inside the small R; exact
    arithmetic mod q leaves no trace of the grouping in the result."""
    r = len(F.lay.caps)
    if len(powers) != r:
        raise ValueError("wrong argument count")
    args = [pw(1) for pw in powers]
    shape = args[0]
    lay, q = shape.lay, shape.q
    for A in args:
        _flat_check(shape, A)
        if any(not k >> lay.off for k in A.t):
            raise ValueError("substitution needs zero constant terms")
    if F.q != q or F.lay.v != lay.v:
        raise ValueError("law and arguments over different coefficients")
    j = min(range(r), key=lambda i: len(args[i].t))
    vmask = (1 << lay.off) - 1
    groups = {}
    for k, c in F.t.items():
        e = F.exps(k)
        inner = groups.setdefault(e[:j] + e[j + 1:], {})
        inner.setdefault(e[j], {})[k & vmask] = c
    others = [i for i in range(r) if i != j]
    t = {}
    for rest, inner in groups.items():
        R = {}
        for e, cs in inner.items():
            _mul_into(R, FlatSeries(lay, q, cs), powers[j](e))
        R = _reduced(shape, R)
        X = None
        for i, e in zip(others, rest):
            if e:
                X = powers[i](e) if X is None else ms_mul(X, powers[i](e))
        _mul_into(t, X or FlatSeries(lay, q, {0: 1 % q}), R)
    return _reduced(shape, t)


# golden-vector text format


def _fmt_scalar_fields(c):
    v, u, k = c
    return "%d|%d|%d" % (v if v < EXACT else EXACT, u, k)


# The first line of a golden-vector text: its context and y-degree cap.
GOLDEN_HEAD = "FGLV1 p=%d n=%d N=%d D=%d M=%d"


def golden_dump(f):
    """Render a series in the versioned line format.  One line per stored
    coefficient-ring term: y-exponents, u-exponent, v-multidegree, then the
    scalar's valuation, unit, and precision.  The u-exponent is restored
    from the grading: the coefficient of a monomial of total y-degree d
    has weight d - 1.  A multiseries with no terms raises ValueError: its
    text would be the header alone, which reads back as a one-variable
    series."""
    ctx = f.ctx
    if isinstance(f, MultiSeries) and not f.t:
        raise ValueError("a multiseries with no terms has no golden text")
    head = GOLDEN_HEAD % (
        ctx.p, ctx.n, ctx.N, ctx.D,
        f.M if isinstance(f, YSeries) else max(f.caps))
    lines = [head]
    if isinstance(f, YSeries):
        entries = ((str(d), d, e) for d, e in enumerate(f.c)
                   if not e.is_zero())
    else:
        entries = ((",".join(map(str, k)), sum(k), e)
                   for k, e in sorted(f.items(), key=itemgetter(0)))
    for ytag, d, e in entries:
        for vc, c in sorted(e.t.items()):
            vexps = ctx.vexps(vc)
            vtag = ",".join(map(str, vexps)) if vexps else "-"
            lines.append("%s|%d|%s|%s" % (ytag, ctx.u_exponent(d - 1, vc),
                                          vtag, _fmt_scalar_fields(c)))
    return "\n".join(lines) + "\n"


def _checked_scalar(ctx, val, unit, prec):
    """The scalar (val, unit, prec), or ValueError when it breaks the
    invariant: 0 <= prec <= N, a nonzero unit prime to p and below
    p**prec, a zero with unit 0 and prec 0."""
    p = ctx.p
    if not 0 <= prec <= ctx.N:
        raise ValueError("scalar precision %d outside 0..%d" % (prec, ctx.N))
    if unit == 0:
        if prec != 0:
            raise ValueError("zero scalar with precision %d" % prec)
    elif not (0 < unit < ctx.padic.ppow(prec) and unit % p):
        raise ValueError("scalar unit %d is not a unit below p^%d"
                         % (unit, prec))
    return (val, unit, prec)


def golden_load(text):
    """Parse the line format back into a YSeries (single y-exponent field)
    or MultiSeries (comma-separated exponents).  A multiseries comes back
    in the shape of a stored law: every cap and the total cap M.  Each
    key is packed as it is read, and a term past a cap is dropped.  Each
    line fills its coefficient's dict in line order, and terms settled
    past the prune horizon are dropped at the end, as summing them into
    zero would drop them.  A repeated (y-exponents, v-multidegree) line,
    which golden_dump never writes, a one-variable exponent outside 0..M
    or a term whose u-exponent breaks the grading raises ValueError."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    head = lines[0].split()
    if head[0] != "FGLV1":
        raise ValueError("unrecognized golden-vector version")
    kv = dict(tok.split("=") for tok in head[1:])
    p, n, N, D, M = (int(kv[k]) for k in ("p", "n", "N", "D", "M"))
    ctx = CoeffContext(p, n, N=N, D=D)
    multi = any("," in ln.split("|", 1)[0] for ln in lines[1:])
    if multi:
        r = lines[1].split("|", 1)[0].count(",") + 1
        units = ms_layout((M,) * r, M).units
    packed = {}
    # the coefficient dicts by packed key, and by exponents past the
    # total cap, where they are read only to find repeats
    terms = {}
    past = {}
    for ln in lines[1:]:
        ytag, ue, vtag, val, unit, prec = ln.split("|")
        # a key has one line per v-code: parse and pack its tag once
        got = packed.get(ytag)
        if got is None:
            exps = tuple(int(x) for x in ytag.split(","))
            d = sum(exps)
            if not multi:
                if not 0 <= d <= M:
                    raise ValueError("term %s: exponent outside 0..%d"
                                     % (ytag, M))
                t = terms.setdefault(d, {})
            elif len(exps) != r or min(exps) < 0:
                raise ValueError("term %s: not %d exponents under the caps"
                                 % (ytag, r))
            elif d <= M:
                t = terms.setdefault(sum(map(mul, exps, units)), {})
            else:
                t = past.setdefault(exps, {})
            got = packed[ytag] = (d, t)
        d, t = got
        vexps = () if vtag == "-" else tuple(int(x) for x in vtag.split(","))
        vc = ctx.vcode(vexps) if vexps else 0
        if vc in t:
            raise ValueError("term %s|%s: repeated line" % (ytag, vtag))
        want = ctx.u_exponent(d - 1, vc)
        if int(ue) != want:
            raise ValueError("term %s|%s|%s: the grading gives u-exponent "
                             "%d" % (ytag, ue, vtag, want))
        t[vc] = _checked_scalar(ctx, int(val), int(unit), int(prec))
    for t in terms.values():
        ctx.prune(t)
    if multi:
        return MultiSeries(ctx, r, (M,) * r,
                           {k: CoeffElem(ctx, t) for k, t in terms.items()
                            if t}, M)
    f = ser_new(ctx, M)
    for d, t in terms.items():
        f.c[d] = CoeffElem(ctx, t)
    return f
