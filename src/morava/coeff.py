"""Coefficients for height-n formal group computations.

An element lives in E_0 = Z_p[[v_1, ..., v_{n-1}]] truncated at total
v-degree D: the degree-0 part of the even periodic Morava E-theory E_* =
E_0[u, u^-1], with the periodicity generator u set to 1.  Storage is a
sparse dict keyed by the packed v multidegree (b_1, ..., b_{n-1}), packed
in base D+1 as sum(b_i * (D+1)**(i-1)), so multidegrees add as plain ints
whenever the total degrees fit under the cap.  Scalars are the plain
tuples ``(val, unit, prec)`` of ``padic.py``, from the same context.

Setting u = 1 is sound because every stored coefficient is homogeneous:
the coefficient of a monomial of weight w (y^d in a series has weight
d - 1) is a sum of terms u^e v^b with e + sum (p^i - 1) b_i = w, so the
u-exponent of each term follows from its v-code.  ``u_exponent`` restores
it where text is written (the CLI printer and the golden-vector format);
nothing else needs it.  v_n = u^(p^n - 1) is 1.

Terms whose scalar is settled past the prune horizon (working precision plus
a fixed pad) are dropped: nothing representable at working precision can see
them.  Approximate-zero markers shallower than the horizon are kept, since
their absence would silently upgrade a bounded-depth zero to an exact one.

Stored scalars keep the invariant of ``padic.py`` (0 <= prec <= N, a
nonzero unit prime to p and below p**prec, a zero with unit 0 and prec 0).
``mul``, ``addmul_into``, ``addmul_row``, ``_merge_into`` (behind
``add``, ``add_raw``, ``sub`` and ``sub_raw``) and ``scalar_mul`` unpack
each scalar tuple into locals, form products from the context's power
table, as PadicContext.mul would, and build each result as a tuple
literal.  When a term lands on a
stored key, ``_sum``, the one definition of the sum, adds the two scalars
by PadicContext._add's rule, inline, whether they are two nonzero units, a
unit and a zero marker, or two zero markers, then applies the prune
horizon and the floor as ``_acc`` does; it returns the scalar to store, or
None, and the caller stores it or deletes the key.  The preparation over
Z_p in ``series.py`` sums its lists of scalars with it too.  Only a sum
reaching past N, which just scalars outside the invariant can make, goes
through ``_acc`` and PadicContext.add_raw, which stay the definition of
the rule.  Terms are visited in the same order either way, so every stored
scalar and every raised PrecisionError is the one the per-pair calls
give.

Sums of products go through ``addmul_into(t, A, B)``, which leaves a dict
``t`` that the caller owns exactly as ``t = add(CoeffElem(t), mul(A, B)).t``
would: the same stored scalars, the same key insertion order, the same
PrecisionError text and ``needed_extra``.  An empty operand returns at
once.  When the shorter operand has one term, the product's keys
are distinct, so each product term goes straight into ``t`` in ``mul``'s
order, and a term past the prune horizon is skipped as ``mul`` skips it.
Otherwise two pairs can land on one key of the product, and their sum must
be rounded (and floor-checked) before it meets the accumulator, so the
product is formed in full by ``mul`` first and then merged.  ``t`` must
never be the dict of a coefficient someone else holds: callers copy a
shared coefficient before their first in-place write.

Products come in two shapes, and each has its kernel.  A row, one
coefficient A against each coefficient B of an existing list of
(key, B), as in the multiseries product, the evaluation of a multiseries
and the two-variable law, goes through ``addmul_row(T, k0, A, row, bias,
guard)``: one call per row, adding each A*B into T[k0 + key] of a map T
of coefficients.  A new key is stored when its product has terms, as
``mul`` makes it; a stored key takes the product in place, as
``addmul_into`` would, and is deleted when it empties; a pair whose
``(k0 + bias + key) & guard`` is nonzero (a packed key past a cap, see
``series.ms_layout``) is skipped.  A one-term side, A or B, is multiplied
inline, with no call per pair; two several-term sides go through ``mul``
and ``_merge_into``.  A convolution with no fixed operand (solve_log's
power chains, ``ser_mul``, ``ser_invert_unit``, the ring products of
``groupcoh``) meets a new A at every pair, so it stays on ``addmul_into``:
one-pair rows for solve_log's chains cost more than they saved, and a
single kernel fed (key, A, B) triples by every caller spent the saving on
building the triples.  So the one-term loop lives in both kernels.
"""

from .padic import EXACT, PadicContext, PrecisionError, scalar_repr

PRUNE_PAD = 12


def _floor_error(prec, floor):
    return PrecisionError(
        "stored coefficient would keep only %d trusted digits (floor %d)"
        % (prec, floor),
        needed_extra=floor - prec,
    )


class CoeffElem:
    __slots__ = ("ctx", "t")

    def __init__(self, ctx, t):
        self.ctx = ctx
        self.t = t

    def is_zero(self):
        return not self.t

    def __eq__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self.t == other.t

    def __repr__(self):
        if not self.t:
            return "CoeffElem(0)"
        bits = []
        for vc, c in sorted(self.t.items()):
            bits.append("v~%d: %s" % (vc, scalar_repr(c)))
        return "CoeffElem{%s}" % "; ".join(bits)


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
        return CoeffElem(self, {0: self.padic.one()})

    def from_int(self, m):
        if m == 0:
            return CoeffElem(self, {})
        return CoeffElem(self, {0: self.padic.from_int(m)})

    def from_scalar(self, c, vcode=0):
        if c[1] == 0 and c[0] >= self.prune_horizon:
            return CoeffElem(self, {})
        return CoeffElem(self, {vcode: c})

    def v_gen(self, i):
        """The generator v_i, 1 <= i <= n-1."""
        if not 1 <= i <= self.n - 1:
            raise ValueError("v_%d does not exist at height %d" % (i, self.n))
        if self.D < 1:
            return self.zero()
        return CoeffElem(self, {(self.D + 1) ** (i - 1): self.padic.one()})

    # helpers

    def prune(self, t):
        horizon = self.prune_horizon
        drop = [k for k, c in t.items() if c[0] >= horizon]
        for k in drop:
            del t[k]
        return t

    # ring operations

    def _acc(self, cur, c, raw):
        """Combine an incoming term with a stored one by add_raw, the rule
        ``_sum`` reproduces.  Junk settled past the prune horizon is
        discarded before the floor applies: it cannot reach a verdict.
        Returns None when nothing should stay stored."""
        s = self.padic.add_raw(cur, c)
        sv, su, sk = s
        if sv >= self.prune_horizon:
            return None
        if not raw and su != 0 and sk < self.padic.floor:
            raise _floor_error(sk, self.padic.floor)
        return s

    def _sum(self, cur, bv, bu, bp, raw):
        """The sum of the stored scalar ``cur`` and the scalar (bv, bu, bp),
        or None when nothing should stay stored, as ``_acc`` gives it.
        This is PadicContext._add with the power table read directly, for
        scalars that keep the invariant of ``padic.py``: the sum is pinned to
        the lesser absolute precision (a zero marker's is its depth), and
        a unit meeting a zero marker keeps its digits below that depth.
        Only a sum reaching past the working precision, which scalars
        outside the invariant can make, goes through ``_acc``."""
        padic = self.padic
        cv, cu, cp = cur
        top = cv + cp
        if bv + bp < top:
            top = bv + bp
        if cu and bu:
            if cv <= bv:
                v, lo, hi, gap = cv, cu, bu, bv - cv
            else:
                v, lo, hi, gap = bv, bu, cu, cv - bv
        elif cu:
            v, lo, hi, gap = cv, cu, 0, 0
        elif bu:
            v, lo, hi, gap = bv, bu, 0, 0
        else:
            # two zero markers: the sum is the shallower one
            v = top
        kk = top - v
        if kk > padic.N:
            return self._acc(cur, (bv, bu, bp), raw)
        if kk > 0:
            pows = padic._pows
            s = (lo + hi * pows[gap] if gap < kk else lo) % pows[kk]
        else:
            s = 0
        if not s:
            return None if top >= self.prune_horizon else (top, 0, 0)
        p = padic.p
        while not s % p:
            s //= p
            v += 1
            kk -= 1
        if v >= self.prune_horizon:
            return None
        if not raw and kk < padic.floor:
            raise _floor_error(kk, padic.floor)
        return (v, s, kk)

    def _merge_into(self, t, tb, raw):
        horizon = self.prune_horizon
        for k, c in tb.items():
            cur = t.get(k)
            if cur is None:
                if c[0] < horizon:
                    t[k] = c
            else:
                bv, bu, bk = c
                s = self._sum(cur, bv, bu, bk, raw)
                if s is None:
                    del t[k]
                else:
                    t[k] = s

    def _merge(self, A, B, raw):
        t = dict(A.t)
        self._merge_into(t, B.t, raw)
        return CoeffElem(self, t)

    def add(self, A, B):
        return self._merge(A, B, False)

    def add_raw(self, A, B):
        return self._merge(A, B, True)

    def neg(self, A):
        pneg = self.padic.neg
        return CoeffElem(self, {k: pneg(c) for k, c in A.t.items()})

    def sub(self, A, B):
        return self._merge(A, self.neg(B), False)

    def sub_raw(self, A, B):
        return self._merge(A, self.neg(B), True)

    def mul(self, A, B):
        ta, tb = A.t, B.t
        if not ta or not tb:
            return CoeffElem(self, {})
        if len(ta) > len(tb):
            ta, tb = tb, ta
        acc = {}
        get = acc.get
        vtot = self.vtotal
        D = self.D
        padic = self.padic
        pows = padic._pows
        horizon = self.prune_horizon
        for va, (av, au, ap) in ta.items():
            room = D - vtot[va]
            if ap >= len(pows):
                padic.ppow(ap)
            for vb, cb in tb.items():
                if vtot[vb] > room:
                    continue
                k = va + vb
                # PadicContext.mul, with the power table read directly
                bv, bu, pk = cb
                pv = av + bv
                if au and bu:
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
                        acc[k] = (pv, pu, pk)
                    continue
                s = self._sum(cur, pv, pu, pk, False)
                if s is None:
                    del acc[k]
                else:
                    acc[k] = s
        return CoeffElem(self, acc)

    def addmul_into(self, t, A, B):
        """Add A*B into t, a dict the caller owns, leaving it as
        ``add(CoeffElem(t), mul(A, B)).t`` would.  The module docstring
        states the contract."""
        ta, tb = A.t, B.t
        if not ta or not tb:
            return
        if len(ta) > len(tb):
            ta, tb = tb, ta
        if len(ta) > 1:
            self._merge_into(t, self.mul(A, B).t, False)
            return
        (va, ca), = ta.items()
        get = t.get
        vtot = self.vtotal
        room = self.D - vtot[va]
        padic = self.padic
        pows = padic._pows
        horizon = self.prune_horizon
        av, au, ap = ca
        if ap >= len(pows):
            padic.ppow(ap)
        for vb, cb in tb.items():
            if vtot[vb] > room:
                continue
            # mul's product term, which mul keeps exactly when it lies
            # inside the prune horizon: one term on the short side makes
            # every product key distinct
            bv, bu, pk = cb
            pv = av + bv
            if pv >= horizon:
                continue
            if au and bu:
                if ap < pk:
                    pk = ap
                pu = au * bu % pows[pk]
            else:
                pu = pk = 0
            k = va + vb
            cur = get(k)
            if cur is None:
                t[k] = (pv, pu, pk)
                continue
            s = self._sum(cur, pv, pu, pk, False)
            if s is None:
                del t[k]
            else:
                t[k] = s

    def addmul_row(self, T, k0, A, row, bias=None, guard=0):
        """For each (kb, B) of row, in order, add A*B into the coefficient
        T[k0 + kb] of the map T, skipping a pair whose (k0 + bias + kb) &
        guard is nonzero.  A new key is stored when the product has terms;
        a stored key takes the product in place, as addmul_into, and is
        deleted when it empties.  The module docstring states the
        contract."""
        ta = A.t
        if not ta:
            return
        sb = k0 + bias if guard else 0
        get = T.get
        vtot = self.vtotal
        D = self.D
        padic = self.padic
        pows = padic._pows
        horizon = self.prune_horizon
        _sum = self._sum
        one = len(ta) == 1
        if one:
            (va, (av, au, ap)), = ta.items()
            if ap >= len(pows):
                padic.ppow(ap)
            room = D - vtot[va]
        for kb, B in row:
            if guard and (sb + kb) & guard:
                continue
            tb = B.t
            if not tb:
                continue
            k = k0 + kb
            cur = get(k)
            if one:
                many = tb
            elif len(tb) == 1:
                many = ta
                (va, (av, au, ap)), = tb.items()
                if ap >= len(pows):
                    padic.ppow(ap)
                room = D - vtot[va]
            else:
                # two pairs can land on one key of the product: form it in
                # full, as addmul_into does
                P = self.mul(A, B)
                if cur is None:
                    if P.t:
                        T[k] = P
                    continue
                t = cur.t
                self._merge_into(t, P.t, False)
                if not t:
                    del T[k]
                continue
            # one term on the short side: every product key is distinct,
            # and each term goes straight into t in mul's order
            t = {} if cur is None else cur.t
            tget = t.get
            for vb, (bv, bu, pk) in many.items():
                if vtot[vb] > room:
                    continue
                pv = av + bv
                if pv >= horizon:
                    continue
                if au and bu:
                    if ap < pk:
                        pk = ap
                    pu = au * bu % pows[pk]
                else:
                    pu = pk = 0
                kv = va + vb
                c = tget(kv)
                if c is None:
                    t[kv] = (pv, pu, pk)
                    continue
                s = _sum(c, pv, pu, pk, False)
                if s is None:
                    del t[kv]
                else:
                    t[kv] = s
            if cur is None:
                if t:
                    T[k] = CoeffElem(self, t)
            elif not t:
                del T[k]

    def scalar_mul(self, c, A):
        cv, cu, cp = c
        if cu == 0 and cv >= EXACT:
            return CoeffElem(self, {})
        padic = self.padic
        pows = padic._pows
        if cp >= len(pows):
            padic.ppow(cp)
        t = {}
        horizon = self.prune_horizon
        for k, (av, au, ap) in A.t.items():
            # PadicContext.mul, with the power table read directly
            v = cv + av
            if v >= horizon:
                continue
            if cu and au:
                kk = cp if cp < ap else ap
                t[k] = (v, cu * au % pows[kk], kk)
            else:
                t[k] = (v, 0, 0)
        return CoeffElem(self, t)

    def int_mul(self, m, A):
        return self.scalar_mul(self.padic.from_int(m), A)

    # units and inversion

    def reduce_mod_pv(self, A):
        """Residue mod p of the v-free term: the image in the residue field
        F_p, nonzero exactly when A is a unit.

        Raises PrecisionError if an approximate zero is too shallow to
        settle a residue, ValueError on a negative valuation.
        """
        c = A.t.get(0)
        return 0 if c is None else self.padic.residue(c, 1)

    def is_unit(self, A):
        try:
            return self.reduce_mod_pv(A) != 0
        except PrecisionError:
            return False

    def invert(self, A):
        """Inverse of a unit by Newton iteration seeded at the inverse of
        its v-free term; the residual squares its (p, v)-adic depth each
        step."""
        if not self.reduce_mod_pv(A):
            raise ValueError("not a unit in the truncated coefficient ring")
        z = self.from_scalar(self.padic.invert(A.t[0]))
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
        for v, u, _ in A.t.values():
            if u != 0:
                if v < depth:
                    return False
            elif v < depth:
                shallow = max(shallow, depth - v)
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

    def u_exponent(self, weight, vcode):
        """The exponent of u that the term at ``vcode`` of a homogeneous
        coefficient of this weight carries: weight - sum (p^i - 1) b_i."""
        e = weight
        for i, b in enumerate(self.vexps(vcode), start=1):
            e -= (self.p ** i - 1) * b
        return e
