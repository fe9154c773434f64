from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from morava.padic import EXACT, PadicContext, PrecisionError


def test_invert_three_five_digits():
    # frozen: 3^{-1} mod 2^5 is 11, since 3*11 = 33 = 1 + 32
    ctx = PadicContext(2, N=5, floor=1)
    v, u, _ = ctx.invert(ctx.from_int(3))
    assert v == 0
    assert u == 11
    assert (3 * u) % 32 == 1


def test_one_plus_one():
    ctx = PadicContext(2, N=8, floor=2)
    v, u, _ = ctx.add(ctx.one(), ctx.one())
    assert v == 1 and u == 1


def test_exact_cancellation():
    ctx = PadicContext(3, N=10, floor=4)
    x = ctx.from_int(7)
    v, u, _ = ctx.add(x, ctx.neg(x))
    assert u == 0
    assert v == 10  # pinned through the full working window


def test_true_zero_marker():
    ctx = PadicContext(5, N=6)
    z = ctx.from_int(0)
    assert z[1] == 0 and z[0] == EXACT
    assert ctx.is_zero_to(z, 10 ** 6)


def test_partial_cancellation_floor():
    ctx = PadicContext(2, N=8, floor=6)
    a = ctx.from_int(1)
    b = ctx.from_int(-1 + 2 ** 5)  # agree through 5 digits, 3 would survive
    with pytest.raises(PrecisionError) as ei:
        ctx.add(a, b)
    assert ei.value.needed_extra == 3
    # the raw path still reports the exact valuation
    v, _, k = ctx.add_raw(a, b)
    assert v == 5 and k == 3


def test_from_fraction():
    ctx = PadicContext(2, N=8)
    v, u, _ = ctx.from_fraction(3, 4)
    # 3/4 = 2^{-2} * 3
    assert v == -2 and u == 3
    y = ctx.from_fraction(1, 3)
    assert ctx.residue(ctx.mul(y, ctx.from_int(3)), 8) == 1


def test_invert_zero_raises():
    ctx = PadicContext(2, N=6)
    with pytest.raises(ZeroDivisionError):
        ctx.invert(ctx.zero())
    with pytest.raises(PrecisionError):
        ctx.invert((4, 0, 0))


def test_is_zero_to_approximate_zero():
    ctx = PadicContext(2, N=8)
    z = (5, 0, 0)
    assert ctx.is_zero_to(z, 5)
    with pytest.raises(PrecisionError) as ei:
        ctx.is_zero_to(z, 9)
    assert ei.value.needed_extra == 4


def test_residue():
    ctx = PadicContext(3, N=6)
    assert ctx.residue(ctx.from_int(14), 2) == 14 % 9
    assert ctx.residue(ctx.from_int(27), 2) == 0
    with pytest.raises(ValueError):
        ctx.residue(ctx.from_fraction(1, 3), 1)


def test_units_stored_reduced():
    ctx = PadicContext(2, N=4)
    _, xu, _ = ctx.from_int(3 + 2 ** 7)
    assert xu == (3 + 128) % 16
    _, yu, _ = ctx.mul(ctx.from_int(35), ctx.from_int(11))
    assert yu == (35 * 11) % 16


nz = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda m: m != 0)


def _val(p, m):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


@settings(derandomize=True, max_examples=200)
@given(a=nz, b=nz, p=st.sampled_from([2, 3, 5]))
def test_valuation_multiplicative(a, b, p):
    ctx = PadicContext(p, N=40)
    v, u, _ = ctx.mul(ctx.from_int(a), ctx.from_int(b))
    assert v == _val(p, a * b)
    if 0 <= v <= 40:
        assert (u * ctx.ppow(v)) % ctx.pN == (a * b) % ctx.pN


@settings(derandomize=True, max_examples=200)
@given(a=nz, b=nz, p=st.sampled_from([2, 3, 5]))
def test_valuation_ultrametric(a, b, p):
    ctx = PadicContext(p, N=40, floor=1)
    v, u, _ = ctx.add_raw(ctx.from_int(a), ctx.from_int(b))
    lo = min(_val(p, a), _val(p, b))
    if a + b == 0:
        assert u == 0
    else:
        assert v == _val(p, a + b)
        assert v >= lo
        if _val(p, a) != _val(p, b):
            assert v == lo


@settings(derandomize=True, max_examples=150)
@given(a=nz, p=st.sampled_from([2, 3, 5]))
def test_invert_roundtrip(a, p):
    ctx = PadicContext(p, N=30)
    x = ctx.from_int(a)
    v, u, _ = ctx.mul(x, ctx.invert(x))
    assert v == 0 and u == 1


@settings(derandomize=True, max_examples=150)
@given(num=nz, den=nz, p=st.sampled_from([2, 3]))
def test_from_fraction_agrees_with_exact(num, den, p):
    # multiply the approximate fraction by den: must recover num mod p^N
    ctx = PadicContext(p, N=25, floor=1)
    f = Fraction(num, den)
    x = ctx.from_fraction(f.numerator, f.denominator)
    back = ctx.mul(x, ctx.from_int(f.denominator))
    d = ctx.add_raw(back, ctx.neg(ctx.from_int(f.numerator)))
    # numerator has nonnegative valuation, so 25 digits survive the roundtrip
    assert ctx.is_zero_to(d, 25)
