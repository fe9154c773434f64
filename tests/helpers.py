"""Glue between the exact-rational reference and the engine's types, a
counter of coefficient products, a one-variable embedding, an exact view
of a multiseries, and the scale-then-merge route of ms_eval_powers that
its fused sum must reproduce."""

from oracles import qc_project
from morava.coeff import CoeffContext
from morava.series import (MultiSeries, ms_mul, ms_new, ms_one, ms_set,
                           ser_new)


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


def count_coeff_products(monkeypatch):
    """Count coefficient products through both entry points of the kernel,
    CoeffContext.mul and addmul_into; the mul that addmul_into makes for a
    product of several terms is that same product and is not counted
    again.  Returns the list that gets one entry per product."""
    mul, addmul = CoeffContext.mul, CoeffContext.addmul_into
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

    monkeypatch.setattr(CoeffContext, "mul", counted_mul)
    monkeypatch.setattr(CoeffContext, "addmul_into", counted_addmul)
    return calls


def oc_series_to_yseries(ctx, ser, M=None):
    if M is None:
        M = len(ser) - 1
    f = ser_new(ctx, M)
    for d, oc in enumerate(ser[: M + 1]):
        f.c[d] = oc_to_elem(ctx, oc, d - 1)
    return f


def ms_content(A):
    """Everything stored in a multiseries, orders included: its shape, its
    trunc flag, and per key in stored order the coefficient's terms in
    stored order, with each scalar's fields, and its trunc flag."""
    return (A.caps, A.tcap, A.trunc,
            [(k, [(ck, c.val, c.unit, c.prec) for ck, c in e.t.items()],
              e.trunc) for k, e in A.t.items()])


def ms_from_yseries(f, r, caps, var):
    """Embed a one-variable series as a multiseries in variable ``var``;
    terms past the caps set the trunc flag."""
    A = ms_new(f.ctx, r, caps)
    for d, e in enumerate(f.c):
        if not e.is_zero():
            exps = [0] * r
            exps[var] = d
            ms_set(A, exps, e)
    A.trunc = A.trunc or f.trunc
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
    A.trunc = A.trunc or B.trunc
    return A


def ms_scale(e, A):
    """e times A in a new series; a product with no terms is dropped, its
    trunc flag with it."""
    ctx = A.ctx
    t = {}
    for k, a in A.t.items():
        s = ctx.mul(e, a)
        if not s.is_zero():
            t[k] = s
    return MultiSeries(ctx, A.r, A.caps, t, A.trunc, A.tcap)


def ms_eval_by_products(F, powers):
    """ms_eval_powers as it was before key shifts and the fused sum: each
    term of F, in sorted order, is the ms_mul of its argument powers, left
    to right, scaled into a new series and merged into the sum."""
    args = [pw(1) for pw in powers]
    shape = args[0]
    ctx = F.ctx
    out = ms_new(ctx, shape.r, shape.caps, shape.tcap)
    out.trunc = F.trunc or any(A.trunc for A in args)
    for exps in sorted(F.t):
        term = None
        for i, x in enumerate(exps):
            if x:
                px = powers[i](x)
                term = px if term is None else ms_mul(term, px)
        if term is None:
            term = ms_one(ctx, shape.r, shape.caps, shape.tcap)
        ms_add_into(out, ms_scale(F.t[exps], term))
    return out
