"""Floating-precision p-adic scalars.

A scalar is the plain tuple ``(val, unit, prec)``.  A nonzero one is
p**val * unit with p coprime to unit.  ``prec`` counts the trusted base-p
digits of the unit, and the unit is stored reduced modulo p**prec, so the
scalar is pinned exactly modulo p**(val + prec).  The valuation itself is
always exact.  A zero keeps ``unit == 0`` and records in ``val`` the depth
to which the vanishing is certain: the zero marker ``(depth, 0, 0)``; a
true zero uses the EXACT sentinel.  Kernels read a scalar by unpacking it
(``v, u, k = c``) and build one as a tuple literal; ``scalar_repr`` gives
its text.

The stored-scalar invariant: 0 <= prec <= N; a nonzero unit is prime to p
and lies in 1 .. p**prec - 1; a zero has unit 0 and prec 0.  PadicContext
keeps it for every scalar it makes from scalars that keep it.  Scalars read
from outside must meet it too (``series.golden_load`` checks them), since
the kernels index the power table ``_pows`` by ``prec``.

Addition is the only lossy operation: cancellation of leading digits lowers
prec.  A result that would retain fewer than ``floor`` trusted digits raises
PrecisionError instead of flowing onward, and the exception says how many
extra working digits would have been enough, so callers can rerun with a
larger N.

``_add`` is the one definition of the sum rule.  The coefficient kernel in
``coeff.py`` carries its own copy of ``mul`` and of ``_add``, reading
``_pows`` directly; only sums that reach past N, from scalars outside the
invariant, still come here from it.
"""

EXACT = 10 ** 9


class PrecisionError(ArithmeticError):
    """Raised when tracked precision cannot support the requested result."""

    def __init__(self, message, needed_extra=0):
        super().__init__(message)
        self.needed_extra = needed_extra


def scalar_repr(c):
    """The text of a scalar: ``0`` for the exact zero, ``0(mod^d)`` for a
    zero marker of depth d, ``p^val*unit(prec)`` otherwise."""
    v, u, k = c
    if u == 0:
        return "0" if v >= EXACT else "0(mod^%d)" % v
    return "p^%d*%d(%d)" % (v, u, k)


class PadicContext:
    """Arithmetic on (val, unit, prec) scalars at working precision N
    digits."""

    __slots__ = ("p", "N", "floor", "pN", "_pows")

    def __init__(self, p, N=16, floor=None):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        if N < 1:
            raise ValueError("working precision must be positive")
        if floor is None:
            floor = min(8, N)
        if floor < 1 or floor > N:
            raise ValueError("precision floor must lie in 1..N")
        self.p = p
        self.N = N
        self.floor = floor
        self.pN = p ** N
        self._pows = [p ** i for i in range(N + 1)]

    def ppow(self, k):
        pows = self._pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.p)
        return pows[k]

    # constructors

    def zero(self):
        return (EXACT, 0, 0)

    def one(self):
        return (0, 1, self.N)

    def from_int(self, m):
        if m == 0:
            return (EXACT, 0, 0)
        v = 0
        p = self.p
        while m % p == 0:
            m //= p
            v += 1
        return (v, m % self.pN, self.N)

    def from_fraction(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        if num == 0:
            return (EXACT, 0, 0)
        return self.mul(self.from_int(num), self.invert(self.from_int(den)))

    # arithmetic

    def _trim(self, val, unit, prec, check):
        if prec > self.N:
            unit %= self.pN
            prec = self.N
        if check and prec < self.floor:
            raise PrecisionError(
                "result would keep only %d trusted digits (floor %d)"
                % (prec, self.floor),
                needed_extra=self.floor - prec,
            )
        return (val, unit, prec)

    def _add(self, a, b, check):
        av, au, ak = a
        bv, bu, bk = b
        if au == 0:
            if bu == 0:
                return (min(av, bv), 0, 0)
            absprec = min(av, bv + bk)
            if bv >= absprec:
                return (absprec, 0, 0)
            k = absprec - bv
            return self._trim(bv, bu % self.ppow(k), k, check)
        if bu == 0:
            return self._add(b, a, check)
        v = av if av < bv else bv
        absprec = min(av + ak, bv + bk)
        k = absprec - v
        s = (au * self.ppow(av - v) + bu * self.ppow(bv - v)) % self.ppow(k)
        if s == 0:
            return (absprec, 0, 0)
        p = self.p
        w = 0
        while s % p == 0:
            s //= p
            w += 1
        return self._trim(v + w, s % self.ppow(k - w), k - w, check)

    def add(self, a, b):
        return self._add(a, b, True)

    def add_raw(self, a, b):
        # verdict-path addition: full cancellation and exact valuations are
        # still sound below the floor, so no floor check here
        return self._add(a, b, False)

    def neg(self, a):
        v, u, k = a
        if u == 0:
            return a
        return (v, self.ppow(k) - u, k)

    def sub(self, a, b):
        return self._add(a, self.neg(b), True)

    def mul(self, a, b):
        av, au, ak = a
        bv, bu, bk = b
        if au == 0 or bu == 0:
            return (min(av + bv, EXACT), 0, 0)
        k = ak if ak < bk else bk
        return (av + bv, (au * bu) % self.ppow(k), k)

    def invert(self, a):
        v, u, k = a
        if u == 0:
            if v >= EXACT:
                raise ZeroDivisionError("inversion of zero")
            raise PrecisionError(
                "cannot invert a value known only to be divisible by p^%d" % v
            )
        return (-v, pow(u, -1, self.ppow(k)), k)

    # verdicts

    def is_zero_to(self, a, depth):
        """Whether a is 0 modulo p**depth.  Exact: valuations are exact and
        a nonzero unit has a genuinely nonzero leading digit."""
        v, u, _ = a
        if u == 0:
            if v >= depth:
                return True
            raise PrecisionError(
                "zero known only modulo p^%d, verdict needs p^%d" % (v, depth),
                needed_extra=depth - v,
            )
        return v >= depth

    def eq_to(self, a, b, depth):
        return self.is_zero_to(self.add_raw(a, self.neg(b)), depth)

    def residue(self, a, depth=1):
        """Integer representative modulo p**depth (requires val >= 0)."""
        v, u, k = a
        if u == 0:
            if v >= depth:
                return 0
            raise PrecisionError(
                "zero known only modulo p^%d" % v, needed_extra=depth - v
            )
        if v < 0:
            raise ValueError("negative valuation has no residue")
        if v >= depth:
            return 0
        if v + k < depth:
            raise PrecisionError(
                "value pinned only modulo p^%d" % (v + k),
                needed_extra=depth - v - k,
            )
        return (u * self.ppow(v)) % self.ppow(depth)
