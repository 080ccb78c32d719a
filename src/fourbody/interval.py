"""Scalar interval arithmetic with outward (directed) rounding.

Real intervals are closed [lo, hi] with finite binary64 endpoints.
Complex intervals are axis-aligned rectangles (a real interval for each of
the real and imaginary parts).  Every operation returns an interval that
contains the exact set image; endpoint arithmetic uses error-free
transforms where cheap (add, sub, mul) and a one-ulp outward nudge
elsewhere, so tightness is within an ulp or two per operation.

Division by an interval containing zero, and square roots of intervals
reaching below zero, raise IntervalDomainError.  There is no silent
widening to infinity: every constructor rejects NaN and infinite
endpoints.
"""

from __future__ import annotations

import math

import mpmath

_INF = math.inf
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant
# Outside this magnitude window the Dekker error term may be contaminated by
# underflow/overflow of partial products, so endpoint ops fall back to a
# crude one-ulp nudge (still sound, one ulp looser).
_EFT_MAX = 1e250
_EFT_MIN = 1e-250

mpmath.iv.prec = 113


class IntervalDomainError(ArithmeticError):
    """Operation left the domain where a rigorous enclosure exists."""


def _prev(x: float) -> float:
    return math.nextafter(x, -_INF)


def _next(x: float) -> float:
    return math.nextafter(x, _INF)


def _two_sum(a: float, b: float):
    s = a + b
    bp = s - a
    e = (a - (s - bp)) + (b - bp)
    return s, e


def _two_prod(a: float, b: float):
    # Dekker product; caller guarantees no overflow/underflow.
    p = a * b
    ah = a * _SPLITTER
    ah = ah - (ah - a)
    al = a - ah
    bh = b * _SPLITTER
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def add_down(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    if not math.isfinite(s):
        raise IntervalDomainError("overflow in interval endpoint addition")
    return _prev(s) if e < 0.0 else s


def add_up(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    if not math.isfinite(s):
        raise IntervalDomainError("overflow in interval endpoint addition")
    return _next(s) if e > 0.0 else s


def mul_down(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        raise IntervalDomainError("overflow in interval endpoint product")
    m = abs(p)
    if (m > _EFT_MAX or m < _EFT_MIN) and p != 0.0:
        return _prev(p)
    if p == 0.0 and (a != 0.0 and b != 0.0):
        return _prev(p)
    _, e = _two_prod(a, b)
    return _prev(p) if e < 0.0 else p


def mul_up(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        raise IntervalDomainError("overflow in interval endpoint product")
    m = abs(p)
    if (m > _EFT_MAX or m < _EFT_MIN) and p != 0.0:
        return _next(p)
    if p == 0.0 and (a != 0.0 and b != 0.0):
        return _next(p)
    _, e = _two_prod(a, b)
    return _next(p) if e > 0.0 else p


def div_down(a: float, b: float) -> float:
    q = a / b
    if not math.isfinite(q):
        raise IntervalDomainError("overflow in interval endpoint division")
    if q == 0.0 and a != 0.0:
        return _prev(q)
    return q if _exact_quotient(a, b, q) else _prev(q)


def div_up(a: float, b: float) -> float:
    q = a / b
    if not math.isfinite(q):
        raise IntervalDomainError("overflow in interval endpoint division")
    if q == 0.0 and a != 0.0:
        return _next(q)
    return q if _exact_quotient(a, b, q) else _next(q)


def _exact_quotient(a: float, b: float, q: float) -> bool:
    m = abs(q)
    if (m > _EFT_MAX or m < _EFT_MIN) and q != 0.0:
        return False
    mb = abs(b)
    if mb > _EFT_MAX or mb < _EFT_MIN:
        return False
    if a != 0.0 and not (_EFT_MIN <= abs(a) <= _EFT_MAX):
        return False
    p, e = _two_prod(q, b)
    return p == a and e == 0.0


def sqrt_down(a: float) -> float:
    r = math.sqrt(a)
    if a != 0.0 and not (_EFT_MIN <= a <= _EFT_MAX):
        return _prev(r)
    p, e = _two_prod(r, r)
    if p == a and e == 0.0:
        return r
    return _prev(r)


def sqrt_up(a: float) -> float:
    r = math.sqrt(a)
    if a != 0.0 and not (_EFT_MIN <= a <= _EFT_MAX):
        return _next(r)
    p, e = _two_prod(r, r)
    if p == a and e == 0.0:
        return r
    return _next(r)


class Interval:
    """Closed real interval with finite float endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalDomainError("non-finite interval endpoint")
        if lo > hi:
            raise IntervalDomainError(f"inverted interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, *_):
        raise AttributeError("Interval is immutable")

    def __reduce__(self):
        # slotted + immutable, so spell out reconstruction for pickle
        return (Interval, (self.lo, self.hi))

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def hull(items) -> "Interval":
        lo = _INF
        hi = -_INF
        for it in items:
            iv = it if isinstance(it, Interval) else Interval(float(it))
            lo = min(lo, iv.lo)
            hi = max(hi, iv.hi)
        return Interval(lo, hi)

    @staticmethod
    def from_midrad(mid: float, rad: float) -> "Interval":
        if rad < 0.0:
            raise IntervalDomainError("negative radius")
        return Interval(add_down(mid, -rad), add_up(mid, rad))

    # -- predicates ---------------------------------------------------

    def contains(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= x <= self.hi

    def interior_contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def is_subset(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    # -- scalar views -------------------------------------------------

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    @property
    def rad(self) -> float:
        m = self.mid
        return max(add_up(self.hi, -m), add_up(m, -self.lo), 0.0)

    @property
    def width(self) -> float:
        return add_up(self.hi, -self.lo)

    def mag(self) -> float:
        """sup |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """inf |x| over the interval."""
        if self.straddles_zero():
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = _as_iv(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(add_down(self.lo, o.lo), add_up(self.hi, o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = _as_iv(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(add_down(self.lo, -o.hi), add_up(self.hi, -o.lo))

    def __rsub__(self, other):
        o = _as_iv(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _as_iv(other)
        if o is NotImplemented:
            return NotImplemented
        pairs = ((self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi))
        return Interval(
            min(mul_down(a, b) for a, b in pairs),
            max(mul_up(a, b) for a, b in pairs),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_iv(other)
        if o is NotImplemented:
            return NotImplemented
        if o.straddles_zero():
            raise IntervalDomainError("division by interval containing zero")
        pairs = ((self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi))
        return Interval(
            min(div_down(a, b) for a, b in pairs),
            max(div_up(a, b) for a, b in pairs),
        )

    def __rtruediv__(self, other):
        o = _as_iv(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def pow_int(self, n: int) -> "Interval":
        if n < 0:
            return Interval(1.0) / self.pow_int(-n)
        if n == 0:
            return Interval(1.0)
        if n == 1:
            return self
        if n % 2 == 0 and self.straddles_zero():
            m = self.mag()
            half = self.pow_int(n // 2)
            sq = half * half
            return Interval(0.0, sq.hi)
        out = self
        for _ in range(n - 1):
            out = out * self
        if n % 2 == 0:
            out = Interval(max(out.lo, 0.0), out.hi)
        return out

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise IntervalDomainError("sqrt of interval reaching below zero")
        return Interval(sqrt_down(self.lo), sqrt_up(self.hi))

    def __abs__(self) -> "Interval":
        return Interval(self.mig(), self.mag())

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise IntervalDomainError("empty intersection")
        return Interval(lo, hi)

    # -- io -------------------------------------------------------------

    def hex_pair(self):
        return (self.lo.hex(), self.hi.hex())

    @staticmethod
    def from_hex_pair(pair) -> "Interval":
        return Interval(float.fromhex(pair[0]), float.fromhex(pair[1]))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))


def _as_iv(x):
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, float)):
        return Interval(float(x))
    return NotImplemented


ZERO = Interval(0.0)
ONE = Interval(1.0)


class ComplexInterval:
    """Rectangular complex interval: independent real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        if isinstance(re, complex) and im is None:
            im = re.imag
            re = re.real
        if im is None:
            im = ZERO
        object.__setattr__(self, "re", re if isinstance(re, Interval) else Interval(float(re)))
        object.__setattr__(self, "im", im if isinstance(im, Interval) else Interval(float(im)))

    def __setattr__(self, *_):
        raise AttributeError("ComplexInterval is immutable")

    def __reduce__(self):
        return (ComplexInterval, (self.re, self.im))

    @staticmethod
    def point(z: complex) -> "ComplexInterval":
        return ComplexInterval(Interval(z.real), Interval(z.imag))

    def contains(self, z) -> bool:
        if isinstance(z, ComplexInterval):
            return self.re.contains(z.re) and self.im.contains(z.im)
        z = complex(z)
        return self.re.contains(z.real) and self.im.contains(z.imag)

    @property
    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    def conj(self) -> "ComplexInterval":
        return ComplexInterval(self.re, -self.im)

    def __add__(self, other):
        o = _as_civ(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexInterval(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __sub__(self, other):
        o = _as_civ(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexInterval(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_civ(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _as_civ(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexInterval(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_civ(other)
        if o is NotImplemented:
            return NotImplemented
        den = o.re.pow_int(2) + o.im.pow_int(2)
        if den.straddles_zero():
            raise IntervalDomainError("division by complex interval containing zero")
        num = self * o.conj()
        return ComplexInterval(num.re / den, num.im / den)

    def __rtruediv__(self, other):
        o = _as_civ(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def mag(self) -> float:
        """Upper bound on sup |z|."""
        s = add_up(mul_up(self.re.mag(), self.re.mag()), mul_up(self.im.mag(), self.im.mag()))
        return sqrt_up(s)

    def mig(self) -> float:
        """Lower bound on inf |z|."""
        r = self.re.mig()
        i = self.im.mig()
        s = add_down(mul_down(r, r), mul_down(i, i))
        return sqrt_down(max(s, 0.0))

    def abs2(self) -> Interval:
        return self.re.pow_int(2) + self.im.pow_int(2)

    def hex_quad(self):
        return self.re.hex_pair() + self.im.hex_pair()

    @staticmethod
    def from_hex_quad(quad) -> "ComplexInterval":
        return ComplexInterval(
            Interval.from_hex_pair(quad[0:2]), Interval.from_hex_pair(quad[2:4])
        )

    def __repr__(self):
        return f"ComplexInterval({self.re!r}, {self.im!r})"

    def __eq__(self, other):
        return (
            isinstance(other, ComplexInterval)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))


def _as_civ(x):
    if isinstance(x, ComplexInterval):
        return x
    if isinstance(x, Interval):
        return ComplexInterval(x, ZERO)
    if isinstance(x, (int, float)):
        return ComplexInterval(Interval(float(x)), ZERO)
    if isinstance(x, complex):
        return ComplexInterval.point(x)
    return NotImplemented


CZERO = ComplexInterval(ZERO, ZERO)
CONE = ComplexInterval(ONE, ZERO)


# -- transcendental enclosures (mpmath.iv backed, scalar use only) -----


def _from_mpiv(x) -> Interval:
    lo = float(mpmath.mpf(x.a))
    hi = float(mpmath.mpf(x.b))
    return Interval(_prev(lo), _next(hi))


def _to_mpiv(x: Interval):
    return mpmath.iv.mpf((x.lo, x.hi))


def iv_exp(x: Interval) -> Interval:
    return _from_mpiv(mpmath.iv.exp(_to_mpiv(x)))


def iv_log(x: Interval) -> Interval:
    if x.lo <= 0.0:
        raise IntervalDomainError("log of interval reaching below zero")
    return _from_mpiv(mpmath.iv.log(_to_mpiv(x)))


def iv_sin(x: Interval) -> Interval:
    return _from_mpiv(mpmath.iv.sin(_to_mpiv(x)))


def iv_cos(x: Interval) -> Interval:
    return _from_mpiv(mpmath.iv.cos(_to_mpiv(x)))


def iv_expi(x: Interval) -> ComplexInterval:
    """Enclosure of exp(i x) for real interval x."""
    return ComplexInterval(iv_cos(x), iv_sin(x))

