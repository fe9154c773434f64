"""Truncated power series over the coefficient ring.

One-variable series are dense lists indexed by y-degree 0..M; trailing zeros
are stored so the cap stays visible.  Multivariable series are sparse maps
from exponent tuples with a per-variable cap each (and an optional total
cap).  Dropping a term at a cap sets the sticky ``trunc`` flag, never an
error: the algebra downstream reasons explicitly about what lives beyond the
caps.

No stored term passes a cap, and the multiseries product relies on it: it
packs exponents into ints with a guard bit per variable and, under a total
cap, pairs each term only with the terms of low enough degree.  The pairs
it keeps are visited in the order a loop over all pairs would visit them,
so coefficients accumulate in the same sequence, with the same p-adic
precision, as in that loop.

Weierstrass preparation follows the classical successive-approximation
division over a complete local ring; the iteration budget is a function of
the working precision and the v-degree cap, and nontermination inside that
budget signals a non-prepared input.
"""

from operator import add

from .coeff import CoeffContext, CoeffElem
from .padic import EXACT, PadicScaled, PrecisionError


class YSeries:
    __slots__ = ("ctx", "c", "trunc")

    def __init__(self, ctx, c, trunc=False):
        self.ctx = ctx
        self.c = c
        self.trunc = trunc

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
        return self.c == other.c and self.trunc == other.trunc

    def __repr__(self):
        terms = ["y^%d*%r" % (d, e) for d, e in enumerate(self.c) if not e.is_zero()]
        return "YSeries(M=%d%s: %s)" % (
            self.M, ", trunc" if self.trunc else "", " + ".join(terms) or "0")


def ser_new(ctx, M, trunc=False):
    return YSeries(ctx, [ctx.zero() for _ in range(M + 1)], trunc)


def ser_from_terms(ctx, M, terms, trunc=False):
    s = ser_new(ctx, M, trunc)
    for d, e in terms.items():
        if d <= M:
            s.c[d] = e
        elif not e.is_zero():
            s.trunc = True
    return s


def ser_truncate(f, M2):
    """Copy at the lower cap M2, honest about nonzero data dropped."""
    if M2 >= f.M:
        raise ValueError("truncate only lowers the cap")
    dropped = any(not c.is_zero() for c in f.c[M2 + 1:])
    return YSeries(f.ctx, list(f.c[: M2 + 1]), f.trunc or dropped)


def ser_monomial(ctx, M, d, e=None):
    s = ser_new(ctx, M)
    if d > M:
        return YSeries(ctx, s.c, True)
    s.c[d] = e if e is not None else ctx.one()
    return s


def _check_match(f, g):
    if f.ctx is not g.ctx:
        raise ValueError("series built over different coefficient contexts")
    if f.M != g.M:
        raise ValueError("series caps differ: %d vs %d" % (f.M, g.M))


def ser_add(f, g):
    _check_match(f, g)
    ctx = f.ctx
    return YSeries(ctx, [ctx.add(a, b) for a, b in zip(f.c, g.c)],
                   f.trunc or g.trunc)


def ser_sub(f, g):
    _check_match(f, g)
    ctx = f.ctx
    return YSeries(ctx, [ctx.sub(a, b) for a, b in zip(f.c, g.c)],
                   f.trunc or g.trunc)


def ser_neg(f):
    return YSeries(f.ctx, [f.ctx.neg(a) for a in f.c], f.trunc)


def ser_scale(e, f):
    ctx = f.ctx
    return YSeries(ctx, [ctx.mul(e, a) for a in f.c], f.trunc)


def ser_mul(f, g):
    _check_match(f, g)
    ctx = f.ctx
    M = f.M
    out = [ctx.zero() for _ in range(M + 1)]
    trunc = f.trunc or g.trunc
    emul, eadd = ctx.mul, ctx.add
    fa = [(i, a) for i, a in enumerate(f.c) if not a.is_zero()]
    gb = [(j, b) for j, b in enumerate(g.c) if not b.is_zero()]
    for i, a in fa:
        for j, b in gb:
            d = i + j
            if d > M:
                trunc = True
                continue
            out[d] = eadd(out[d], emul(a, b))
    return YSeries(ctx, out, trunc)


def ser_shift(f, d):
    """Multiply by y**d (d >= 0)."""
    ctx = f.ctx
    M = f.M
    out = [ctx.zero() for _ in range(M + 1)]
    trunc = f.trunc
    for i, a in enumerate(f.c):
        if a.is_zero():
            continue
        if i + d > M:
            trunc = True
        else:
            out[i + d] = a
    return YSeries(ctx, out, trunc)


def ser_rshift(f, d):
    """Divide by y**d; requires the low coefficients to vanish as stored.
    The cap honestly drops to M - d."""
    if d == 0:
        return f
    for i in range(min(d, len(f.c))):
        if not f.c[i].is_zero():
            raise ValueError("series is not divisible by y^%d as stored" % d)
    return YSeries(f.ctx, list(f.c[d:]), f.trunc)


def ser_compose(f, g):
    """f(g(y)); g must have zero constant term."""
    _check_match(f, g)
    if not g.c[0].is_zero():
        raise ValueError("composition needs a zero constant term")
    ctx = f.ctx
    M = f.M
    out = ser_new(ctx, M, f.trunc or g.trunc)
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
            out.trunc = out.trunc or power.trunc
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
            acc = ctx.add(acc, ctx.mul(f.c[i], out[m - i]))
        out[m] = ctx.neg(ctx.mul(c0i, acc))
    return YSeries(ctx, out, f.trunc)


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


def weierstrass_divide(f, a):
    """Quotient and remainder of f by a, where a has Weierstrass degree d:
    f = q*a + r with r a polynomial of degree < d.

    Successive approximation: split the running remainder at y^d, push the
    high part through the inverse of the degree->unit part of a, and iterate
    until the remainder dies out within the (p, v)-adic budget."""
    ctx = f.ctx
    _check_match(f, a)
    d = weierstrass_degree(a)
    M = f.M
    # a = low + y^d * high, with high a unit series
    high = YSeries(ctx, list(a.c[d:]) + [ctx.zero() for _ in range(d)], a.trunc)
    hinv = ser_invert_unit(high)
    low = YSeries(ctx, list(a.c[:d]) + [ctx.zero() for _ in range(M + 1 - d)], a.trunc)
    q = ser_new(ctx, M, f.trunc or a.trunc)
    rem = f
    maxit = ctx.N + ctx.prune_horizon + ctx.D + 4

    def settled(e):
        # empty, or nothing left but bounded-depth zero markers
        return all(c.unit == 0 for c in e.t.values())

    for _ in range(maxit):
        if all(settled(e) for e in rem.c[d:]):
            break
        hi = YSeries(ctx, list(rem.c[d:]) + [ctx.zero() for _ in range(d)], rem.trunc)
        qi = ser_mul(hi, hinv)
        q = ser_add(q, qi)
        # new remainder: rem - qi*(low + y^d high) = low part - qi*low
        lowpart = YSeries(ctx, list(rem.c[:d]) + [ctx.zero() for _ in range(M + 1 - d)],
                          rem.trunc)
        rem = ser_sub(lowpart, ser_mul(qi, low))
    else:
        raise PrecisionError("Weierstrass division did not settle within the "
                             "iteration budget")
    r = YSeries(ctx, list(rem.c[:d]) + [ctx.zero() for _ in range(M + 1 - d)],
                rem.trunc)
    return q, r


def weierstrass_prepare(f):
    """f = U * g with U a unit series and g monic of degree d, lower
    coefficients in the maximal ideal."""
    ctx = f.ctx
    d = weierstrass_degree(f)
    if d > f.M:
        raise ValueError("Weierstrass degree exceeds the cap")
    yd = ser_monomial(ctx, f.M, d)
    q, r = weierstrass_divide(yd, f)
    # y^d = q*f + r  =>  g := y^d - r = q*f, and q(0) is a unit
    g = ser_sub(yd, r)
    U = ser_invert_unit(q)
    return U, g


# Multivariable series


class MultiSeries:
    __slots__ = ("ctx", "r", "caps", "tcap", "t", "trunc")

    def __init__(self, ctx, r, caps, t=None, trunc=False, tcap=None):
        if len(caps) != r:
            raise ValueError("need one cap per variable")
        self.ctx = ctx
        self.r = r
        self.caps = tuple(caps)
        self.tcap = tcap
        self.t = t if t is not None else {}
        self.trunc = trunc

    def coeff(self, exps):
        return self.t.get(tuple(exps)) or self.ctx.zero()

    def is_zero(self):
        return not self.t

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.caps == other.caps and self.t == other.t
                and self.trunc == other.trunc)

    def __repr__(self):
        return "MultiSeries(r=%d, caps=%s, %d terms%s)" % (
            self.r, self.caps, len(self.t), ", trunc" if self.trunc else "")


def ms_new(ctx, r, caps, tcap=None):
    return MultiSeries(ctx, r, caps, {}, False, tcap)


def _ms_check(A, B):
    if A.ctx is not B.ctx:
        raise ValueError("series built over different coefficient contexts")
    if A.caps != B.caps or A.r != B.r or A.tcap != B.tcap:
        raise ValueError("multiseries shape mismatch")


def ms_set(A, exps, e):
    exps = tuple(exps)
    if any(x > c for x, c in zip(exps, A.caps)) or (
            A.tcap is not None and sum(exps) > A.tcap):
        if not e.is_zero():
            A.trunc = True
        return
    if e.is_zero():
        A.t.pop(exps, None)
    else:
        A.t[exps] = e


def ms_add(A, B):
    _ms_check(A, B)
    ctx = A.ctx
    t = dict(A.t)
    for k, e in B.t.items():
        cur = t.get(k)
        s = ctx.add(cur, e) if cur is not None else e
        if s.is_zero():
            t.pop(k, None)
        else:
            t[k] = s
    return MultiSeries(ctx, A.r, A.caps, t, A.trunc or B.trunc, A.tcap)


def ms_scale(e, A):
    ctx = A.ctx
    t = {}
    for k, a in A.t.items():
        s = ctx.mul(e, a)
        if not s.is_zero():
            t[k] = s
    return MultiSeries(ctx, A.r, A.caps, t, A.trunc, A.tcap)


def ms_mul(A, B):
    """Product of two series of one shape, visiting only the pairs of terms
    whose product fits under the caps.

    Each B term is packed once: its exponents go into one int with a field
    per variable, topped by a guard bit.  A's exponents are packed with a
    bias of guard - 1 - cap per field, so the sum of two packed ints sets a
    guard bit exactly when that variable's exponent passes its cap.  Under
    a total cap, an A term of degree d sees only the B terms of degree at
    most tcap - d; that row is filtered once per distinct bound.

    Surviving pairs come in A's stored order, then B's, as in a loop over
    all pairs, so every key accumulates the same products in the same
    sequence and the result keeps the same insertion order.  ``trunc`` is
    set exactly when some pair is dropped."""
    _ms_check(A, B)
    ctx = A.ctx
    caps = A.caps
    tcap = A.tcap
    t = {}
    trunc = A.trunc or B.trunc
    if not A.t or not B.t:
        return MultiSeries(ctx, A.r, caps, t, trunc, tcap)
    # Field i holds 2**w > cap_i below its guard bit.  Stored exponents
    # never pass their caps, so a biased sum stays below 2**(w+1) and never
    # carries into the next field.
    shifts, bias, guard, off = [], 0, 0, 0
    for c in caps:
        width = c.bit_length()
        shifts.append(off)
        bias |= ((1 << width) - 1 - c) << off
        guard |= 1 << (off + width)
        off += width + 1
    full = []
    degs = []
    for kb, eb in B.t.items():
        full.append((sum(x << s for x, s in zip(kb, shifts)), kb, eb))
        degs.append(sum(kb))
    top = max(degs)
    rows = {}
    eadd, emul = ctx.add, ctx.mul
    for ka, ea in A.t.items():
        row = full
        if tcap is not None:
            bound = tcap - sum(ka)
            if bound < top:
                trunc = True
                row = rows.get(bound)
                if row is None:
                    row = rows[bound] = [
                        b for b, d in zip(full, degs) if d <= bound]
        pa = bias + sum(x << s for x, s in zip(ka, shifts))
        for pb, kb, eb in row:
            if (pa + pb) & guard:
                trunc = True
                continue
            k = tuple(map(add, ka, kb))
            cur = t.get(k)
            s = emul(ea, eb) if cur is None else eadd(cur, emul(ea, eb))
            if s.is_zero():
                t.pop(k, None)
            else:
                t[k] = s
    return MultiSeries(ctx, A.r, caps, t, trunc, tcap)


def ms_one(ctx, r, caps, tcap=None):
    A = ms_new(ctx, r, caps, tcap)
    A.t[(0,) * r] = ctx.one()
    return A


def ms_from_yseries(f, r, caps, var, tcap=None):
    """Embed a one-variable series as a multiseries in variable ``var``."""
    ctx = f.ctx
    A = ms_new(ctx, r, caps, tcap)
    trunc = f.trunc
    for d, e in enumerate(f.c):
        if e.is_zero():
            continue
        exps = [0] * r
        exps[var] = d
        ms_set(A, exps, e)
    A.trunc = A.trunc or trunc
    return A


def ms_eval(F, args):
    """Substitute multiseries (zero constant term) for the variables of F.

    All args must share one shape; the result has that shape."""
    if len(args) != F.r:
        raise ValueError("wrong argument count")
    for A in args[1:]:
        _ms_check(args[0], A)
    for A in args:
        if (0,) * A.r in A.t:
            raise ValueError("substitution needs zero constant terms")
    ctx = F.ctx
    shape = args[0]
    out = ms_new(ctx, shape.r, shape.caps, shape.tcap)
    out.trunc = F.trunc or any(A.trunc for A in args)
    # group F-terms by exponent, building argument powers incrementally
    pows = [{0: ms_one(ctx, shape.r, shape.caps, shape.tcap)} for _ in args]

    def power(i, e):
        cache = pows[i]
        if e in cache:
            return cache[e]
        half = power(i, e // 2)
        res = ms_mul(half, half)
        if e % 2:
            res = ms_mul(res, args[i])
        cache[e] = res
        return res

    for exps in sorted(F.t):
        e = F.t[exps]
        term = None
        for i, x in enumerate(exps):
            if x == 0:
                continue
            px = power(i, x)
            term = px if term is None else ms_mul(term, px)
        if term is None:
            term = ms_one(ctx, shape.r, shape.caps, shape.tcap)
        out = ms_add(out, ms_scale(e, term))
    return out


# golden-vector text format


def _fmt_scalar_fields(c):
    return "%d|%d|%d" % (c.val if c.val < EXACT else EXACT, c.unit, c.prec)


def golden_dump(f, kind="yseries"):
    """Render a series in the versioned line format.  One line per stored
    coefficient-ring term: y-exponents, u-exponent, v-multidegree, then the
    scalar's valuation, unit, and precision."""
    ctx = f.ctx
    head = "FGLV1 p=%d n=%d N=%d D=%d M=%d" % (
        ctx.p, ctx.n, ctx.N, ctx.D,
        f.M if isinstance(f, YSeries) else max(f.caps))
    lines = [head]
    if isinstance(f, YSeries):
        entries = ((str(d), e) for d, e in enumerate(f.c) if not e.is_zero())
    else:
        entries = ((",".join(map(str, k)), f.t[k]) for k in sorted(f.t))
    for ytag, e in entries:
        for (ue, vc), c in ctx.iter_terms_sorted(e):
            vexps = ctx.vexps(vc)
            vtag = ",".join(map(str, vexps)) if vexps else "-"
            lines.append("%s|%d|%s|%s" % (ytag, ue, vtag, _fmt_scalar_fields(c)))
    return "\n".join(lines) + "\n"


def _checked_scalar(ctx, val, unit, prec):
    """The PadicScaled with these fields, or ValueError when they break its
    invariants: 0 <= prec <= N, a nonzero unit prime to p and below
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
    return PadicScaled(val, unit, prec)


def golden_load(text):
    """Parse the line format back into a YSeries (single y-exponent field)
    or MultiSeries (comma-separated exponents).  The result is marked
    truncated: caps were applied when the file was written."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    head = lines[0].split()
    if head[0] != "FGLV1":
        raise ValueError("unrecognized golden-vector version")
    kv = dict(tok.split("=") for tok in head[1:])
    p, n, N, D, M = (int(kv[k]) for k in ("p", "n", "N", "D", "M"))
    ctx = CoeffContext(p, n, N=N, D=D)
    multi = any("," in ln.split("|")[0] for ln in lines[1:])
    terms = {}
    for ln in lines[1:]:
        ytag, ue, vtag, val, unit, prec = ln.split("|")
        key = tuple(int(x) for x in ytag.split(",")) if multi else int(ytag)
        vexps = () if vtag == "-" else tuple(int(x) for x in vtag.split(","))
        vc = ctx.vcode(vexps) if vexps else 0
        c = _checked_scalar(ctx, int(val), int(unit), int(prec))
        cur = terms.setdefault(key, ctx.zero())
        terms[key] = ctx.add(cur, ctx.from_scalar(c, int(ue), vc))
    if multi:
        r = len(next(iter(terms))) if terms else 2
        A = ms_new(ctx, r, (M,) * r)
        for k, e in terms.items():
            ms_set(A, k, e)
        A.trunc = True
        return A
    f = ser_new(ctx, M, True)
    for d, e in terms.items():
        f.c[d] = e
    return f
