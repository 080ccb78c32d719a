"""Scalar interval kernel tests against exact rational arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbody.interval import (
    ComplexInterval,
    Interval,
    IntervalDomainError,
    add_down,
    add_up,
    div_down,
    div_up,
    mul_down,
    mul_up,
    sqrt_down,
    sqrt_up,
)

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e120, max_value=1e120
)
small = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def ivs(strategy=finite):
    return st.tuples(strategy, strategy).map(lambda t: Interval(min(t), max(t)))


def rational_points(iv: Interval):
    pts = [Fraction(iv.lo), Fraction(iv.hi)]
    pts.append((pts[0] + pts[1]) / 2)
    return pts


def test_exact_endpoint_addition():
    r = Interval(1.0, 2.0) + Interval(3.0, 4.0)
    assert r == Interval(4.0, 6.0)


def test_exact_endpoint_product():
    r = Interval(2.0, 3.0) * Interval(4.0, 8.0)
    assert r == Interval(8.0, 24.0)


def test_division_by_zero_containing_interval_is_an_error():
    with pytest.raises(IntervalDomainError):
        Interval(1.0) / Interval(-1.0, 1.0)
    with pytest.raises(IntervalDomainError):
        Interval(1.0) / Interval(0.0, 0.0)


def test_sqrt_domain_error():
    with pytest.raises(IntervalDomainError):
        Interval(-1e-300, 1.0).sqrt()


def test_non_finite_rejected():
    with pytest.raises(IntervalDomainError):
        Interval(math.inf)
    with pytest.raises(IntervalDomainError):
        Interval(0.0, math.nan)


@given(ivs(), ivs())
@settings(max_examples=300, deadline=None)
def test_add_contains_exact(a, b):
    r = a + b
    for x in rational_points(a):
        for y in rational_points(b):
            s = x + y
            assert Fraction(r.lo) <= s <= Fraction(r.hi)


@given(ivs(), ivs())
@settings(max_examples=300, deadline=None)
def test_sub_contains_exact(a, b):
    r = a - b
    for x in rational_points(a):
        for y in rational_points(b):
            s = x - y
            assert Fraction(r.lo) <= s <= Fraction(r.hi)


@given(ivs(small), ivs(small))
@settings(max_examples=300, deadline=None)
def test_mul_contains_exact(a, b):
    r = a * b
    for x in rational_points(a):
        for y in rational_points(b):
            s = x * y
            assert Fraction(r.lo) <= s <= Fraction(r.hi)


@given(ivs(small), ivs(small))
@settings(max_examples=300, deadline=None)
def test_div_contains_exact(a, b):
    if b.straddles_zero():
        with pytest.raises(IntervalDomainError):
            a / b
        return
    try:
        r = a / b
    except IntervalDomainError:
        # legitimate only when an endpoint quotient overflows binary64
        assert a.mag() / b.mig() > 1e300
        return
    for x in rational_points(a):
        for y in rational_points(b):
            s = x / y
            assert Fraction(r.lo) <= s <= Fraction(r.hi)


@given(small, small)
@settings(max_examples=300, deadline=None)
def test_directed_endpoint_ops(a, b):
    assert Fraction(add_down(a, b)) <= Fraction(a) + Fraction(b) <= Fraction(add_up(a, b))
    assert Fraction(mul_down(a, b)) <= Fraction(a) * Fraction(b) <= Fraction(mul_up(a, b))
    if b != 0.0:
        qt = Fraction(a) / Fraction(b)
        try:
            lo, hi = div_down(a, b), div_up(a, b)
        except IntervalDomainError:
            assert abs(qt) > Fraction(10) ** 300
            return
        assert Fraction(lo) <= qt <= Fraction(hi)


@given(st.floats(min_value=0.0, max_value=1e120, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_directed_sqrt(a):
    lo, hi = sqrt_down(a), sqrt_up(a)
    assert Fraction(lo) ** 2 <= Fraction(a) <= Fraction(hi) ** 2
    assert lo <= hi


@given(ivs(small), st.integers(min_value=0, max_value=7))
@settings(max_examples=200, deadline=None)
def test_pow_int_contains_exact(a, n):
    r = a.pow_int(n)
    for x in rational_points(a):
        assert Fraction(r.lo) <= x**n <= Fraction(r.hi)
    if n % 2 == 0:
        assert r.lo >= 0.0


def test_mag_mig():
    iv = Interval(-3.0, 2.0)
    assert iv.mag() == 3.0
    assert iv.mig() == 0.0
    assert Interval(1.0, 2.0).mig() == 1.0
    assert Interval(-5.0, -4.0).mig() == 4.0


@given(ivs(small), ivs(small), ivs(small), ivs(small))
@settings(max_examples=200, deadline=None)
def test_complex_mul_contains_exact(ar, ai, br, bi):
    a = ComplexInterval(ar, ai)
    b = ComplexInterval(br, bi)
    r = a * b
    for xr in rational_points(ar):
        for xi in rational_points(ai):
            for yr in rational_points(br):
                for yi in rational_points(bi):
                    zr = xr * yr - xi * yi
                    zi = xr * yi + xi * yr
                    assert Fraction(r.re.lo) <= zr <= Fraction(r.re.hi)
                    assert Fraction(r.im.lo) <= zi <= Fraction(r.im.hi)


def test_complex_mag():
    z = ComplexInterval(Interval(3.0), Interval(4.0))
    assert z.mag() >= 5.0
    assert z.mag() <= math.nextafter(5.0, 10.0)


def test_hex_roundtrip():
    iv = Interval(-1.234567890123456e-7, 9.87654321e12)
    assert Interval.from_hex_pair(iv.hex_pair()) == iv
    z = ComplexInterval(iv, Interval(0.5, 0.75))
    assert ComplexInterval.from_hex_quad(z.hex_quad()) == z

