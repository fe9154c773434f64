"""Floating-precision p-adic scalars.

A nonzero scalar is p**val * unit with p coprime to unit.  ``prec`` counts
the trusted base-p digits of the unit, and the unit is stored reduced modulo
p**prec, so the scalar is pinned exactly modulo p**(val + prec).  The
valuation itself is always exact.  A zero keeps ``unit == 0`` and records in
``val`` the depth to which the vanishing is certain; a true zero uses the
EXACT sentinel.

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


class PadicScaled:
    __slots__ = ("val", "unit", "prec")

    def __init__(self, val, unit, prec):
        self.val = val
        self.unit = unit
        self.prec = prec

    def is_zero(self):
        return self.unit == 0

    def __repr__(self):
        if self.unit == 0:
            if self.val >= EXACT:
                return "0"
            return "0(mod^%d)" % self.val
        return "p^%d*%d(%d)" % (self.val, self.unit, self.prec)

    def __eq__(self, other):
        if not isinstance(other, PadicScaled):
            return NotImplemented
        return (self.val, self.unit, self.prec) == (other.val, other.unit, other.prec)

    def __hash__(self):
        return hash((self.val, self.unit, self.prec))


class PadicContext:
    """Arithmetic on PadicScaled values at working precision N digits."""

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
        return PadicScaled(EXACT, 0, 0)

    def zero_known_to(self, absprec):
        return PadicScaled(min(absprec, EXACT), 0, 0)

    def one(self):
        return PadicScaled(0, 1, self.N)

    def from_int(self, m):
        if m == 0:
            return PadicScaled(EXACT, 0, 0)
        v = 0
        p = self.p
        while m % p == 0:
            m //= p
            v += 1
        return PadicScaled(v, m % self.pN, self.N)

    def from_fraction(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        if num == 0:
            return PadicScaled(EXACT, 0, 0)
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
        return PadicScaled(val, unit, prec)

    def _add(self, a, b, check):
        if a.unit == 0:
            if b.unit == 0:
                return PadicScaled(min(a.val, b.val), 0, 0)
            absprec = min(a.val, b.val + b.prec)
            if b.val >= absprec:
                return PadicScaled(absprec, 0, 0)
            k = absprec - b.val
            return self._trim(b.val, b.unit % self.ppow(k), k, check)
        if b.unit == 0:
            return self._add(b, a, check)
        v = a.val if a.val < b.val else b.val
        absprec = min(a.val + a.prec, b.val + b.prec)
        k = absprec - v
        s = (a.unit * self.ppow(a.val - v) + b.unit * self.ppow(b.val - v)) % self.ppow(k)
        if s == 0:
            return PadicScaled(absprec, 0, 0)
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
        if a.unit == 0:
            return a
        return PadicScaled(a.val, self.ppow(a.prec) - a.unit, a.prec)

    def sub(self, a, b):
        return self._add(a, self.neg(b), True)

    def mul(self, a, b):
        if a.unit == 0 or b.unit == 0:
            return PadicScaled(min(a.val + b.val, EXACT), 0, 0)
        k = a.prec if a.prec < b.prec else b.prec
        return PadicScaled(a.val + b.val, (a.unit * b.unit) % self.ppow(k), k)

    def invert(self, a):
        if a.unit == 0:
            if a.val >= EXACT:
                raise ZeroDivisionError("inversion of zero")
            raise PrecisionError(
                "cannot invert a value known only to be divisible by p^%d" % a.val
            )
        return PadicScaled(-a.val, pow(a.unit, -1, self.ppow(a.prec)), a.prec)

    # verdicts

    def is_zero_to(self, a, depth):
        """Whether a is 0 modulo p**depth.  Exact: valuations are exact and
        a nonzero unit has a genuinely nonzero leading digit."""
        if a.unit == 0:
            if a.val >= depth:
                return True
            raise PrecisionError(
                "zero known only modulo p^%d, verdict needs p^%d" % (a.val, depth),
                needed_extra=depth - a.val,
            )
        return a.val >= depth

    def eq_to(self, a, b, depth):
        return self.is_zero_to(self.add_raw(a, self.neg(b)), depth)

    def residue(self, a, depth=1):
        """Integer representative modulo p**depth (requires val >= 0)."""
        if a.unit == 0:
            if a.val >= depth:
                return 0
            raise PrecisionError(
                "zero known only modulo p^%d" % a.val, needed_extra=depth - a.val
            )
        if a.val < 0:
            raise ValueError("negative valuation has no residue")
        if a.val >= depth:
            return 0
        if a.val + a.prec < depth:
            raise PrecisionError(
                "value pinned only modulo p^%d" % (a.val + a.prec),
                needed_extra=depth - a.val - a.prec,
            )
        return (a.unit * self.ppow(a.val)) % self.ppow(depth)
