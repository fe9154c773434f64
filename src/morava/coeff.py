"""Coefficients for height-n formal group computations.

An element lives in Z_p[u, u^-1][[v_1, ..., v_{n-1}]] truncated at total
v-degree D.  Storage is a sparse dict keyed by (u exponent, packed v
multidegree); the v multidegree (b_1, ..., b_{n-1}) is packed in base D+1 as
sum(b_i * (D+1)**(i-1)), so multidegrees add as plain ints whenever the
total degrees fit under the cap.  Scalars are PadicScaled values from the
same context.

Terms whose scalar is settled past the prune horizon (working precision plus
a fixed pad) are dropped: nothing representable at working precision can see
them.  Approximate-zero markers shallower than the horizon are kept, since
their absence would silently upgrade a bounded-depth zero to an exact one.

The ``trunc`` flag records that some product fell off the v-degree cap, and
it is sticky under arithmetic.

Stored scalars keep the PadicScaled invariant of ``padic.py`` (0 <= prec <=
N, a nonzero unit prime to p and below p**prec, a zero with unit 0 and prec
0).  ``mul``, ``_merge`` (behind ``add``, ``add_raw``, ``sub`` and
``sub_raw``) and ``scalar_mul`` read each scalar's fields into locals and
form products from the context's power table, as PadicContext.mul would.
When a term lands on a stored key and both units are nonzero, ``_store``
adds it by PadicContext._add's rule for two nonzero units, then applies the
prune horizon and the floor as ``_acc`` does.  Every other collision (a zero
marker on either side, or a sum reaching past N) goes through ``_acc`` and
PadicContext.add_raw, which stay the definition of the rule.  Terms are
visited in the same order either way, so every stored scalar and every
raised PrecisionError is the one the per-pair calls give.
"""

from .padic import EXACT, PadicContext, PadicScaled, PrecisionError

PRUNE_PAD = 12


def _floor_error(prec, floor):
    return PrecisionError(
        "stored coefficient would keep only %d trusted digits (floor %d)"
        % (prec, floor),
        needed_extra=floor - prec,
    )


class CoeffElem:
    __slots__ = ("ctx", "t", "trunc")

    def __init__(self, ctx, t, trunc=False):
        self.ctx = ctx
        self.t = t
        self.trunc = trunc

    def is_zero(self):
        return not self.t

    def __eq__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self.t == other.t and self.trunc == other.trunc

    def __hash__(self):
        return hash((frozenset(self.t.items()), self.trunc))

    def __repr__(self):
        if not self.t:
            return "CoeffElem(0)"
        bits = []
        for (ue, vc), c in sorted(self.t.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            bits.append("u^%d v~%d: %r" % (ue, vc, c))
        tag = " trunc" if self.trunc else ""
        return "CoeffElem{%s%s}" % ("; ".join(bits), tag)


class CoeffContext:
    """Arithmetic over the truncated coefficient ring at height n."""

    __slots__ = ("p", "n", "D", "padic", "ncodes", "vtotal", "prune_horizon")

    def __init__(self, p, n, N=16, D=8, floor=None):
        if n < 1:
            raise ValueError("height must be at least 1")
        if D < 0:
            raise ValueError("v-degree cap must be nonnegative")
        self.p = p
        self.n = n
        self.D = D
        self.padic = PadicContext(p, N=N, floor=floor)
        self.ncodes = (D + 1) ** (n - 1)
        base = D + 1
        vtotal = []
        for code in range(self.ncodes):
            c, s = code, 0
            while c:
                s += c % base
                c //= base
            vtotal.append(s)
        self.vtotal = vtotal
        self.prune_horizon = N + PRUNE_PAD

    @property
    def N(self):
        return self.padic.N

    def vcode(self, exps):
        """Pack a v multidegree (b_1, ..., b_{n-1})."""
        if len(exps) != self.n - 1:
            raise ValueError("expected %d v-exponents" % (self.n - 1))
        code = 0
        for i, b in enumerate(reversed(exps)):
            if b < 0 or b > self.D:
                raise ValueError("v-exponent out of range")
            code = code * (self.D + 1) + b
        if self.vtotal[code] > self.D:
            raise ValueError("total v-degree exceeds cap")
        return code

    def vexps(self, code):
        out = []
        base = self.D + 1
        for _ in range(self.n - 1):
            out.append(code % base)
            code //= base
        return tuple(out)

    # constructors

    def zero(self):
        return CoeffElem(self, {})

    def one(self):
        return CoeffElem(self, {(0, 0): self.padic.one()})

    def from_int(self, m, uexp=0):
        if m == 0:
            return CoeffElem(self, {})
        return CoeffElem(self, {(uexp, 0): self.padic.from_int(m)})

    def from_scalar(self, c, uexp=0, vcode=0):
        if c.unit == 0 and c.val >= self.prune_horizon:
            return CoeffElem(self, {})
        return CoeffElem(self, {(uexp, vcode): c})

    def u_mono(self, uexp, m=1):
        return self.from_int(m, uexp)

    def v_gen(self, i):
        """The generator v_i, 1 <= i <= n-1."""
        if not 1 <= i <= self.n - 1:
            raise ValueError("v_%d does not exist at height %d" % (i, self.n))
        if self.D < 1:
            return CoeffElem(self, {}, trunc=True)
        return CoeffElem(self, {(0, (self.D + 1) ** (i - 1)): self.padic.one()})

    # helpers

    def prune(self, t):
        horizon = self.prune_horizon
        drop = [k for k, c in t.items() if c.val >= horizon]
        for k in drop:
            del t[k]
        return t

    def coeff_at(self, A, uexp, vcode=0):
        return A.t.get((uexp, vcode)) or self.padic.zero()

    def iter_terms_sorted(self, A):
        return sorted(A.t.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def shift_u(self, A, k):
        """Multiply by u**k."""
        if k == 0 or not A.t:
            return CoeffElem(self, dict(A.t), A.trunc)
        return CoeffElem(self, {(ue + k, vc): c for (ue, vc), c in A.t.items()}, A.trunc)

    # ring operations

    def _acc(self, cur, c, raw):
        """Combine an incoming term with a stored one.  Junk settled past the
        prune horizon is discarded before the floor applies: it cannot reach
        a verdict.  Returns None when nothing should stay stored."""
        s = self.padic.add_raw(cur, c)
        if s.val >= self.prune_horizon:
            return None
        if not raw and s.unit != 0 and s.prec < self.padic.floor:
            raise _floor_error(s.prec, self.padic.floor)
        return s

    def _store(self, t, k, cur, bv, bu, bp, raw):
        """Add the scalar (bv, bu, bp) to the stored nonzero-unit scalar
        ``cur`` at key k of t, as ``_acc`` would, and store or delete the
        result.  This is PadicContext._add's branch for two nonzero units
        with the sum read off the power table; a caller whose sum reaches
        past the working precision gets False back and goes through
        ``_acc`` instead."""
        padic = self.padic
        pows = padic._pows
        cu, cv, cp = cur.unit, cur.val, cur.prec
        if cv <= bv:
            top = cv + cp
            if bv + bp < top:
                top = bv + bp
            v, kk, gap = cv, top - cv, bv - cv
            if kk > padic.N:
                return False
            s = (cu + bu * pows[gap] if gap < kk else cu) % pows[kk]
        else:
            top = bv + bp
            if cv + cp < top:
                top = cv + cp
            v, kk, gap = bv, top - bv, cv - bv
            if kk > padic.N:
                return False
            s = (cu * pows[gap] + bu if gap < kk else bu) % pows[kk]
        if not s:
            if top >= self.prune_horizon:
                del t[k]
            else:
                t[k] = PadicScaled(top, 0, 0)
            return True
        p = padic.p
        while not s % p:
            s //= p
            v += 1
            kk -= 1
        if v >= self.prune_horizon:
            del t[k]
        elif not raw and kk < padic.floor:
            raise _floor_error(kk, padic.floor)
        else:
            t[k] = PadicScaled(v, s, kk)
        return True

    def _merge(self, A, B, raw):
        t = dict(A.t)
        horizon = self.prune_horizon
        for k, c in B.t.items():
            cur = t.get(k)
            if cur is None:
                if c.val < horizon:
                    t[k] = c
                continue
            if cur.unit and c.unit and self._store(t, k, cur, c.val, c.unit,
                                                   c.prec, raw):
                continue
            s = self._acc(cur, c, raw)
            if s is not None:
                t[k] = s
            else:
                del t[k]
        return CoeffElem(self, t, A.trunc or B.trunc)

    def add(self, A, B):
        return self._merge(A, B, False)

    def add_raw(self, A, B):
        return self._merge(A, B, True)

    def neg(self, A):
        pneg = self.padic.neg
        return CoeffElem(self, {k: pneg(c) for k, c in A.t.items()}, A.trunc)

    def sub(self, A, B):
        return self._merge(A, self.neg(B), False)

    def sub_raw(self, A, B):
        return self._merge(A, self.neg(B), True)

    def mul(self, A, B):
        ta, tb = A.t, B.t
        if not ta or not tb:
            return CoeffElem(self, {}, A.trunc or B.trunc)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        trunc = A.trunc or B.trunc
        acc = {}
        get = acc.get
        vtot = self.vtotal
        D = self.D
        padic = self.padic
        pows = padic._pows
        horizon = self.prune_horizon
        for (ua, va), ca in ta.items():
            room = D - vtot[va]
            av, au, ap = ca.val, ca.unit, ca.prec
            if ap >= len(pows):
                padic.ppow(ap)
            for (ub, vb), cb in tb.items():
                if vtot[vb] > room:
                    trunc = True
                    continue
                k = (ua + ub, va + vb)
                # PadicContext.mul, with the power table read directly
                pv = av + cb.val
                bu = cb.unit
                if au and bu:
                    pk = cb.prec
                    if ap < pk:
                        pk = ap
                    pu = au * bu % pows[pk]
                else:
                    if pv > EXACT:
                        pv = EXACT
                    pu = pk = 0
                cur = get(k)
                if cur is None:
                    if pv < horizon:
                        acc[k] = PadicScaled(pv, pu, pk)
                    continue
                if pu and cur.unit and self._store(acc, k, cur, pv, pu, pk,
                                                   False):
                    continue
                s = self._acc(cur, PadicScaled(pv, pu, pk), False)
                if s is not None:
                    acc[k] = s
                else:
                    del acc[k]
        return CoeffElem(self, acc, trunc)

    def scalar_mul(self, c, A):
        if c.unit == 0 and c.val >= EXACT:
            return CoeffElem(self, {}, A.trunc)
        cv, cu, cp = c.val, c.unit, c.prec
        padic = self.padic
        pows = padic._pows
        if cp >= len(pows):
            padic.ppow(cp)
        t = {}
        horizon = self.prune_horizon
        for k, a in A.t.items():
            # PadicContext.mul, with the power table read directly
            v = cv + a.val
            if v >= horizon:
                continue
            au = a.unit
            if cu and au:
                ap = a.prec
                kk = cp if cp < ap else ap
                t[k] = PadicScaled(v, cu * au % pows[kk], kk)
            else:
                t[k] = PadicScaled(v, 0, 0)
        return CoeffElem(self, t, A.trunc)

    def int_mul(self, m, A):
        return self.scalar_mul(self.padic.from_int(m), A)

    # units and inversion

    def reduce_mod_pv(self, A):
        """Image in F_p[u, u^-1]: dict uexp -> nonzero residue mod p.

        Raises PrecisionError if an approximate zero is too shallow to
        settle a residue.
        """
        out = {}
        res = self.padic.residue
        for (ue, vc), c in A.t.items():
            if vc != 0:
                continue
            if c.unit != 0 and c.val < 0:
                raise ValueError("negative scalar valuation in reduction mod p")
            r = res(c, 1)
            if r:
                out[ue] = (out.get(ue, 0) + r) % self.p
                if not out[ue]:
                    del out[ue]
        return out

    def is_unit(self, A):
        try:
            red = self.reduce_mod_pv(A)
        except PrecisionError:
            return False
        return len(red) == 1

    def unit_leading_uexp(self, A):
        red = self.reduce_mod_pv(A)
        if len(red) != 1:
            raise ValueError("not a unit in the truncated coefficient ring")
        return next(iter(red))

    def invert(self, A):
        """Inverse of a unit by Newton iteration seeded at the leading
        monomial; the residual squares its (p, v)-adic depth each step."""
        ue = self.unit_leading_uexp(A)
        lead = A.t.get((ue, 0))
        if lead is None or lead.unit == 0 or lead.val != 0:
            raise ValueError("not a unit in the truncated coefficient ring")
        z = self.from_scalar(self.padic.invert(lead), -ue)
        bound = self.prune_horizon + self.D + 1
        two = self.from_int(2)
        depth = 1
        while depth < bound:
            nz = self.mul(z, self.sub(two, self.mul(A, z)))
            depth *= 2
            if nz.t == z.t:
                return nz
            z = nz
        return z

    # verdicts

    def is_zero_to(self, A, depth):
        # a definitely-nonzero monomial settles the verdict even when some
        # other coordinate only carries a shallow zero marker
        shallow = 0
        for c in A.t.values():
            if c.unit != 0:
                if c.val < depth:
                    return False
            elif c.val < depth:
                shallow = max(shallow, depth - c.val)
        if shallow:
            raise PrecisionError(
                "zero verdict at depth %d exceeds tracked cancellation depth"
                % depth,
                needed_extra=shallow,
            )
        return True

    def eq_to(self, A, B, depth):
        return self.is_zero_to(self.sub_raw(A, B), depth)

    # grading

    def term_degree(self, key):
        ue, vc = key
        d = -2 * ue
        for i, b in enumerate(self.vexps(vc), start=1):
            d -= 2 * (self.p ** i - 1) * b
        return d

    def degrees(self, A):
        return {self.term_degree(k) for k in A.t}

    def homogeneous_degree(self, A):
        """The common degree of all stored terms, or None if mixed/empty."""
        ds = self.degrees(A)
        if len(ds) != 1:
            return None
        return next(iter(ds))
