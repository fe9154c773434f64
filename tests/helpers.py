"""Glue between the exact-rational reference and the engine's types, a
counter of coefficient products, the per-pair route that
CoeffContext.addmul_row must reproduce, a one-variable embedding, an
exact view of a multiseries, the scale-then-merge route of ms_eval_powers
that its fused sum must reproduce, and the two-variable law formed in full
that fgl._build_two_var must reproduce under its caps, the Weierstrass
division and preparation by successive approximation over the whole
coefficient ring, which series.weierstrass_prepare's lift along the
v-degree is checked against, and the product with unchecked sums and the
long division on YSeries that the lift's lists over Z_p must reproduce."""

import math

from oracles import qc_project
from morava.coeff import CoeffContext
from morava.fgl import _series_power
from morava.padic import PrecisionError
from morava.series import (MultiSeries, YSeries, _check_match, ms_mul,
                           ms_new, ms_one, ms_set, ser_add, ser_from_terms,
                           ser_invert_unit, ser_monomial, ser_mul, ser_new,
                           ser_scale, ser_sub, weierstrass_degree)


def oc_to_elem(ctx, oc, weight=None):
    """Oracle coefficient {(uexp, vtuple): Fraction} -> CoeffElem, applying
    the context's v-degree truncation.  The oracle coefficient must be
    homogeneous (of this weight, when given); u is set to 1."""
    out = ctx.zero()
    for vt, q in qc_project(ctx.p, oc, weight).items():
        if sum(vt) > ctx.D:
            continue
        c = ctx.padic.from_fraction(q.numerator, q.denominator)
        out = ctx.add(out, ctx.from_scalar(c, ctx.vcode(vt)))
    return out


# The methods of CoeffContext that multiply two coefficients, each wrapped
# by count_coeff_products.
PRODUCT_METHODS = ("mul", "addmul_into", "addmul_row")


def count_coeff_products(monkeypatch):
    """Count coefficient products through every entry point of the
    kernel: one per call of CoeffContext.mul and addmul_into, and one per
    pair of addmul_row whose operands both have terms and which the guard
    keeps.  The mul that addmul_into or addmul_row makes for a product of
    several terms is that same product and is not counted again.  Returns
    the list that gets one entry per product."""
    mul, addmul = CoeffContext.mul, CoeffContext.addmul_into
    addmul_row = CoeffContext.addmul_row
    calls = []
    inside = []

    def counted_mul(self, A, B):
        if not inside:
            calls.append(None)
        return mul(self, A, B)

    def counted_addmul(self, t, A, B):
        calls.append(None)
        inside.append(None)
        try:
            return addmul(self, t, A, B)
        finally:
            inside.pop()

    def counted_addmul_row(self, T, k0, A, row, bias=None, guard=0):
        row = list(row)
        if A.t:
            calls.extend(None for kb, B in row if B.t and not (
                guard and (k0 + bias + kb) & guard))
        inside.append(None)
        try:
            return addmul_row(self, T, k0, A, row, bias, guard)
        finally:
            inside.pop()

    monkeypatch.setattr(CoeffContext, "mul", counted_mul)
    monkeypatch.setattr(CoeffContext, "addmul_into", counted_addmul)
    monkeypatch.setattr(CoeffContext, "addmul_row", counted_addmul_row)
    return calls


def addmul_row_reference(ctx, T, k0, A, row, bias=None, guard=0):
    """CoeffContext.addmul_row pair by pair: skip a pair the guard drops;
    for a new key, ctx.mul, stored only when it has terms; for a stored
    key, ctx.addmul_into, and delete the key when it empties."""
    for kb, B in row:
        if guard and (k0 + bias + kb) & guard:
            continue
        k = k0 + kb
        cur = T.get(k)
        if cur is None:
            P = ctx.mul(A, B)
            if P.t:
                T[k] = P
            continue
        ctx.addmul_into(cur.t, A, B)
        if not cur.t:
            del T[k]


def oc_series_to_yseries(ctx, ser, M=None):
    if M is None:
        M = len(ser) - 1
    f = ser_new(ctx, M)
    for d, oc in enumerate(ser[: M + 1]):
        f.c[d] = oc_to_elem(ctx, oc, d - 1)
    return f


def ms_content(A):
    """Everything stored in a multiseries, orders included: its shape and,
    per exponent vector in stored order, the coefficient's terms in stored
    order, with each scalar's fields."""
    return (A.caps, A.tcap,
            [(x, [(ck, v, u, k) for ck, (v, u, k) in e.t.items()])
             for x, e in A.items()])


def ms_from_yseries(f, r, caps, var):
    """Embed a one-variable series as a multiseries in variable ``var``;
    terms past the caps are dropped."""
    A = ms_new(f.ctx, r, caps)
    for d, e in enumerate(f.c):
        if not e.is_zero():
            exps = [0] * r
            exps[var] = d
            ms_set(A, exps, e)
    return A


def ms_add_into(A, B):
    """A + B stored in A, which is returned.  A key of B not in A goes to
    the end, a key whose sum is zero is deleted, and each replaced
    coefficient is freed at once, not after the whole sum."""
    if A.ctx is not B.ctx or (A.r, A.caps, A.tcap) != (B.r, B.caps, B.tcap):
        raise ValueError("multiseries shape mismatch")
    ctx = A.ctx
    t = A.t
    for k, e in B.t.items():
        cur = t.get(k)
        s = ctx.add(cur, e) if cur is not None else e
        if s.is_zero():
            t.pop(k, None)
        else:
            t[k] = s
    return A


def ms_scale(e, A):
    """e times A in a new series; a product with no terms is dropped."""
    ctx = A.ctx
    t = {}
    for k, a in A.t.items():
        s = ctx.mul(e, a)
        if not s.is_zero():
            t[k] = s
    return MultiSeries(ctx, A.r, A.caps, t, A.tcap)


def ms_eval_by_products(F, powers):
    """ms_eval_powers as it was before key shifts and the fused sum: each
    term of F, in sorted order, is the ms_mul of its argument powers, left
    to right, scaled into a new series and merged into the sum."""
    args = [pw(1) for pw in powers]
    shape = args[0]
    ctx = F.ctx
    out = ms_new(ctx, shape.r, shape.caps, shape.tcap)
    for exps, c in sorted(F.items(), key=lambda term: term[0]):
        term = None
        for i, x in enumerate(exps):
            if x:
                px = powers[i](x)
                term = px if term is None else ms_mul(term, px)
        if term is None:
            term = ms_one(ctx, shape.r, shape.caps, shape.tcap)
        ms_add_into(out, ms_scale(c, term))
    return out


def two_var_reference(fgl, Mx, My, tcap=None):
    """fgl._build_two_var as it was before the cap rule: every row G_j to
    x-degree Mx and every pair G_j[dx] * (log y)^j[dy] formed, through a
    fresh ser_scale, ser_add and ctx.add each, with ms_set dropping each
    term past the total cap."""
    ctx = fgl.ctx
    teff = Mx + My if tcap is None else min(tcap, Mx + My)
    if teff > fgl.M:
        raise ValueError(
            "two-variable caps reach total degree %d; the law was built to "
            "degree %d" % (teff, fgl.M))
    e = fgl.exp.c
    logx = YSeries(ctx, list(fgl.log.c[: Mx + 1]))
    logy = YSeries(ctx, list(fgl.log.c[: My + 1]))
    F = ms_new(ctx, 2, (Mx, My), tcap=tcap)
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


def weierstrass_divide_reference(f, a, form_q=True):
    """(q, r) with f = q*a + r and r of degree below the Weierstrass degree
    d of a: the division over the whole coefficient ring, as it was when
    it also formed the quotient, each step's part of q summed by a
    floor-checked ser_add.  Its remainder is the one the loop forms
    without q wherever that sum does not raise.  With form_q false, q is
    None and no sum of it is made: the loop is then the remainder-only
    one, step for step, which series._divide runs over Z_p."""
    ctx = f.ctx
    _check_match(f, a)
    d = weierstrass_degree(a)
    M = f.M
    high = YSeries(ctx, list(a.c[d:]) + [ctx.zero() for _ in range(d)])
    hinv = ser_invert_unit(high)
    low = YSeries(ctx, list(a.c[:d]) + [ctx.zero() for _ in range(M + 1 - d)])
    q = ser_new(ctx, M) if form_q else None
    rem = f
    maxit = ctx.N + ctx.prune_horizon + ctx.D + 4

    def settled(e):
        return all(u == 0 for _, u, _ in e.t.values())

    for _ in range(maxit):
        if all(settled(e) for e in rem.c[d:]):
            break
        hi = YSeries(ctx, list(rem.c[d:]) + [ctx.zero() for _ in range(d)])
        qi = ser_mul(hi, hinv)
        if form_q:
            q = ser_add(q, qi)
        lowpart = YSeries(ctx, list(rem.c[:d])
                          + [ctx.zero() for _ in range(M + 1 - d)])
        rem = ser_sub(lowpart, ser_mul(qi, low))
    else:
        raise PrecisionError("Weierstrass division did not settle within the "
                             "iteration budget")
    r = YSeries(ctx, list(rem.c[:d]) + [ctx.zero() for _ in range(M + 1 - d)])
    return q, r


def weierstrass_prepare_reference(f):
    """series.weierstrass_prepare as it was before the lift along the
    v-degree: g = y^d - r, with r the remainder of y^d by f from the
    successive-approximation loop over the whole coefficient ring, which
    forms no quotient."""
    d = weierstrass_degree(f)
    yd = ser_monomial(f.ctx, f.M, d)
    return ser_sub(yd, weierstrass_divide_reference(yd, f, form_q=False)[1])


def ser_mul_raw(f, g):
    """f*g with unchecked coefficient sums (add_raw): ser_mul's pairs in
    ser_mul's order, each product summed by CoeffContext.add_raw.  The
    YSeries product that series._zp_mul with ``raw`` must reproduce."""
    _check_match(f, g)
    ctx, M = f.ctx, f.M
    out = [ctx.zero() for _ in range(M + 1)]
    gb = [(j, b) for j, b in enumerate(g.c) if not b.is_zero()]
    for i, a in enumerate(f.c):
        if a.is_zero():
            continue
        for j, b in gb:
            if i + j > M:
                break
            out[i + j] = ctx.add_raw(out[i + j], ctx.mul(a, b))
    return YSeries(ctx, out)


def long_divide_reference(s, r0, d):
    """(Q, r) with s = Q*(y^d - r0) + r and r of degree below d, r0 being of
    degree below d: series._long_divide on YSeries, as it was before the
    division over Z_p, with unchecked sums (add_raw)."""
    ctx, M = s.ctx, s.M
    rem = list(s.c)
    Q = [ctx.zero() for _ in range(M + 1)]
    low = [(i, e) for i, e in enumerate(r0.c[:d]) if e.t]
    for j in range(M, d - 1, -1):
        c = rem[j]
        if not c.t:
            continue
        Q[j - d] = c
        for i, e in low:
            k = j - d + i
            rem[k] = ctx.add_raw(rem[k], ctx.mul(c, e))
    return (YSeries(ctx, Q),
            YSeries(ctx, rem[:d] + [ctx.zero() for _ in range(M + 1 - d)]))
