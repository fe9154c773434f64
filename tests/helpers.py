"""Glue between the exact-rational reference and the engine's types, a
counter of coefficient products, a one-variable embedding and an exact
view of a multiseries."""

from oracles import qc_project
from morava.coeff import CoeffContext
from morava.series import ms_new, ms_set, ser_new


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
