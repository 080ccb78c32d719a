"""Vectorized interval kernels on numpy arrays.

Two representations are used:

* endpoint form for 1-D coefficient data: real interval arrays are (lo, hi)
  float64 pairs, complex interval arrays are the 4-tuple (rl, rh, il, ih)
  wrapped in CArr.  Every elementary operation rounds outward by one ulp
  (numpy.nextafter), which is sound because binary64 arithmetic rounds to
  nearest.

* midpoint-radius form for matrices: real matrices as (mid, rad), complex
  matrices as (mid complex128, rad float64) where rad bounds the complex
  modulus of the error (disc enclosure).  Products use the standard
  floating-point gemm error bound; the inflation constants below are
  deliberately generous.

The scalar module (interval.py) is the reference semantics; tests compare
these kernels against it entry by entry.
"""

from __future__ import annotations

import math

import numpy as np

from .interval import ComplexInterval, Interval, IntervalDomainError

_INF = np.inf
_U = 2.0**-53
# additive slack absorbing underflow of individual products inside a gemm
_ETA = 1e-320


def _dn(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


def zero_masked_up(prod, mags):
    """_up(prod) except where mags is exactly 0 (those products are exact)."""
    out = _up(prod)
    out[mags == 0.0] = 0.0
    return out


def up_sum(values) -> float:
    """Upper bound for the exact sum of a 1-D array of floats."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not arr.any():
        return 0.0
    s = math.fsum(arr.tolist())
    return math.nextafter(s, math.inf)


def down_sum(values) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not arr.any():
        return 0.0
    s = math.fsum(arr.tolist())
    return math.nextafter(s, -math.inf)


# -- real interval arrays (lo, hi) -------------------------------------


def ri_add(alo, ahi, blo, bhi):
    lo, hi = _dn(alo + blo), _up(ahi + bhi)
    # the point zero is a neutral element; keep those rows exact
    az = np.equal(alo, 0.0) & np.equal(ahi, 0.0)
    bz = np.equal(blo, 0.0) & np.equal(bhi, 0.0)
    lo = np.where(bz, alo, np.where(az, blo, lo))
    hi = np.where(bz, ahi, np.where(az, bhi, hi))
    return lo, hi


def ri_sub(alo, ahi, blo, bhi):
    lo, hi = _dn(alo - bhi), _up(ahi - blo)
    az = np.equal(alo, 0.0) & np.equal(ahi, 0.0)
    bz = np.equal(blo, 0.0) & np.equal(bhi, 0.0)
    nlo = np.negative(np.asarray(bhi, dtype=float))
    nhi = np.negative(np.asarray(blo, dtype=float))
    lo = np.where(bz, alo, np.where(az, nlo, lo))
    hi = np.where(bz, ahi, np.where(az, nhi, hi))
    return lo, hi


def ri_mul(alo, ahi, blo, bhi):
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    lo, hi = _dn(lo), _up(hi)
    # the point zero annihilates any finite interval exactly; a blanket
    # zero-preserving nudge would be unsound (underflow), this mask is not
    zz = (np.equal(alo, 0.0) & np.equal(ahi, 0.0)) | (
        np.equal(blo, 0.0) & np.equal(bhi, 0.0)
    )
    return np.where(zz, 0.0, lo), np.where(zz, 0.0, hi)


def ri_scale(alo, ahi, c: float):
    if c >= 0.0:
        return _dn(alo * c), _up(ahi * c)
    return _dn(ahi * c), _up(alo * c)


def ri_mag(alo, ahi):
    return np.maximum(np.abs(alo), np.abs(ahi))


def ri_mig(alo, ahi):
    """Entrywise lower bound on |x| over the interval (0 when it straddles 0)."""
    m = np.minimum(np.abs(alo), np.abs(ahi))
    return np.where((alo <= 0.0) & (0.0 <= ahi), 0.0, m)


class RArr:
    """1-D array of real intervals in endpoint form."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape:
            raise ValueError("endpoint shape mismatch")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise IntervalDomainError("non-finite endpoints in RArr")
        if (self.lo > self.hi).any():
            raise IntervalDomainError("inverted interval in RArr")

    @classmethod
    def point(cls, x):
        x = np.asarray(x, dtype=float)
        return cls(x.copy(), x.copy())

    @classmethod
    def zeros(cls, n: int):
        z = np.zeros(n)
        return cls(z, z.copy())

    def __len__(self):
        return self.lo.shape[0]

    def copy(self):
        return RArr(self.lo.copy(), self.hi.copy())

    def at(self, i: int) -> Interval:
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def slice(self, sl) -> "RArr":
        return RArr(self.lo[sl], self.hi[sl])

    def add(self, o: "RArr") -> "RArr":
        return RArr(*ri_add(self.lo, self.hi, o.lo, o.hi))

    def sub(self, o: "RArr") -> "RArr":
        return RArr(*ri_sub(self.lo, self.hi, o.lo, o.hi))

    def neg(self) -> "RArr":
        return RArr(-self.hi, -self.lo)

    def mul(self, o: "RArr") -> "RArr":
        return RArr(*ri_mul(self.lo, self.hi, o.lo, o.hi))

    def scale(self, c: float) -> "RArr":
        return RArr(*ri_scale(self.lo, self.hi, float(c)))

    def mag(self):
        return ri_mag(self.lo, self.hi)

    def widen(self, r) -> "RArr":
        r = np.asarray(r, dtype=float)
        return RArr(_dn(self.lo - r), _up(self.hi + r))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((self.lo <= x).all() and (x <= self.hi).all())


def rarr_conv(a: RArr, b: RArr) -> RArr:
    """Full convolution of two real interval arrays."""
    n, m = len(a), len(b)
    if n > m:
        a, b = b, a
        n, m = m, n
    out = RArr.zeros(n + m - 1)
    if not (b.lo.any() or b.hi.any()):
        return out
    lo, hi = out.lo, out.hi
    for i in range(n):
        if a.lo[i] == 0.0 and a.hi[i] == 0.0:
            # the point zero annihilates; skipping keeps exact zeros exact
            continue
        plo, phi = ri_mul(
            np.full(m, a.lo[i]), np.full(m, a.hi[i]), b.lo, b.hi
        )
        seg = slice(i, i + m)
        lo[seg], hi[seg] = ri_add(lo[seg], hi[seg], plo, phi)
    return RArr(lo, hi)


# -- complex interval arrays (rl, rh, il, ih) ---------------------------


class CArr:
    """1-D array of rectangular complex intervals in endpoint form."""

    __slots__ = ("rl", "rh", "il", "ih")

    def __init__(self, rl, rh, il, ih):
        self.rl = np.asarray(rl, dtype=float)
        self.rh = np.asarray(rh, dtype=float)
        self.il = np.asarray(il, dtype=float)
        self.ih = np.asarray(ih, dtype=float)
        for a in (self.rl, self.rh, self.il, self.ih):
            if a.shape != self.rl.shape:
                raise ValueError("endpoint shape mismatch")
            if not np.isfinite(a).all():
                raise IntervalDomainError("non-finite endpoints in CArr")
        if (self.rl > self.rh).any() or (self.il > self.ih).any():
            raise IntervalDomainError("inverted interval in CArr")

    @classmethod
    def point(cls, z):
        z = np.asarray(z, dtype=complex)
        return cls(z.real.copy(), z.real.copy(), z.imag.copy(), z.imag.copy())

    @classmethod
    def zeros(cls, n: int):
        return cls(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))

    @classmethod
    def from_civ_list(cls, items):
        rl = np.array([c.re.lo for c in items])
        rh = np.array([c.re.hi for c in items])
        il = np.array([c.im.lo for c in items])
        ih = np.array([c.im.hi for c in items])
        return cls(rl, rh, il, ih)

    def __len__(self):
        return self.rl.shape[0]

    def copy(self):
        return CArr(self.rl.copy(), self.rh.copy(), self.il.copy(), self.ih.copy())

    def at(self, i: int) -> ComplexInterval:
        return ComplexInterval(
            Interval(float(self.rl[i]), float(self.rh[i])),
            Interval(float(self.il[i]), float(self.ih[i])),
        )

    def slice(self, sl) -> "CArr":
        return CArr(self.rl[sl], self.rh[sl], self.il[sl], self.ih[sl])

    def add(self, o: "CArr") -> "CArr":
        rlo, rhi = ri_add(self.rl, self.rh, o.rl, o.rh)
        ilo, ihi = ri_add(self.il, self.ih, o.il, o.ih)
        return CArr(rlo, rhi, ilo, ihi)

    def sub(self, o: "CArr") -> "CArr":
        rlo, rhi = ri_sub(self.rl, self.rh, o.rl, o.rh)
        ilo, ihi = ri_sub(self.il, self.ih, o.il, o.ih)
        return CArr(rlo, rhi, ilo, ihi)

    def neg(self) -> "CArr":
        return CArr(-self.rh, -self.rl, -self.ih, -self.il)

    def conj(self) -> "CArr":
        return CArr(self.rl, self.rh, -self.ih, -self.il)

    def reverse(self) -> "CArr":
        return CArr(self.rl[::-1], self.rh[::-1], self.il[::-1], self.ih[::-1])

    def mul(self, o: "CArr") -> "CArr":
        t1lo, t1hi = ri_mul(self.rl, self.rh, o.rl, o.rh)
        t2lo, t2hi = ri_mul(self.il, self.ih, o.il, o.ih)
        rlo, rhi = ri_sub(t1lo, t1hi, t2lo, t2hi)
        t3lo, t3hi = ri_mul(self.rl, self.rh, o.il, o.ih)
        t4lo, t4hi = ri_mul(self.il, self.ih, o.rl, o.rh)
        ilo, ihi = ri_add(t3lo, t3hi, t4lo, t4hi)
        return CArr(rlo, rhi, ilo, ihi)

    def mul_scalar(self, c: complex) -> "CArr":
        n = len(self)
        cr = np.full(n, c.real)
        ci = np.full(n, c.imag)
        other = CArr(cr, cr.copy(), ci, ci.copy())
        return self.mul(other)

    def mul_civ(self, c: ComplexInterval) -> "CArr":
        n = len(self)
        other = CArr(
            np.full(n, c.re.lo), np.full(n, c.re.hi),
            np.full(n, c.im.lo), np.full(n, c.im.hi),
        )
        return self.mul(other)

    def mag(self):
        """Entrywise upper bound on |z|."""
        mr = np.maximum(np.abs(self.rl), np.abs(self.rh))
        mi = np.maximum(np.abs(self.il), np.abs(self.ih))
        s = _up(_up(mr * mr) + _up(mi * mi))
        out = _up(np.sqrt(s))
        out[(mr == 0.0) & (mi == 0.0)] = 0.0
        return out

    def mig(self):
        """Entrywise lower bound on |z|."""
        mr = ri_mig(self.rl, self.rh)
        mi = ri_mig(self.il, self.ih)
        s = _dn(_dn(mr * mr) + _dn(mi * mi))
        return np.maximum(_dn(np.sqrt(np.maximum(s, 0.0))), 0.0)

    def mid(self):
        return 0.5 * (self.rl + self.rh) + 1j * 0.5 * (self.il + self.ih)

    def rad(self):
        """Entrywise upper bound on the complex-modulus radius around mid()."""
        m = self.mid()
        rr = np.maximum(_up(self.rh - m.real), _up(m.real - self.rl))
        ri = np.maximum(_up(self.ih - m.imag), _up(m.imag - self.il))
        return _up(np.sqrt(_up(_up(rr * rr) + _up(ri * ri))))

    def widen(self, r) -> "CArr":
        """Inflate both components outward by r (entrywise nonnegative)."""
        r = np.asarray(r, dtype=float)
        return CArr(_dn(self.rl - r), _up(self.rh + r), _dn(self.il - r), _up(self.ih + r))

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=complex)
        return bool(
            (self.rl <= z.real).all()
            and (z.real <= self.rh).all()
            and (self.il <= z.imag).all()
            and (z.imag <= self.ih).all()
        )

    def pad(self, left: int, right: int) -> "CArr":
        z = np.zeros(left)
        z2 = np.zeros(right)
        return CArr(
            np.concatenate([z, self.rl, z2]),
            np.concatenate([z, self.rh, z2]),
            np.concatenate([z, self.il, z2]),
            np.concatenate([z, self.ih, z2]),
        )


def carr_conv(a: CArr, b: CArr) -> CArr:
    """Full convolution: out_k = sum_i a_i b_{k-i}."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return CArr.zeros(0)
    if n > m:
        a, b = b, a
        n, m = m, n
    out = CArr.zeros(n + m - 1)
    if not (b.rl.any() or b.rh.any() or b.il.any() or b.ih.any()):
        return out
    for i in range(n):
        if a.rl[i] == 0.0 and a.rh[i] == 0.0 and a.il[i] == 0.0 and a.ih[i] == 0.0:
            # the point zero annihilates; skipping keeps exact zeros exact
            continue
        term = b.mul(
            CArr(
                np.full(m, a.rl[i]), np.full(m, a.rh[i]),
                np.full(m, a.il[i]), np.full(m, a.ih[i]),
            )
        )
        seg = slice(i, i + m)
        rlo, rhi = ri_add(out.rl[seg], out.rh[seg], term.rl, term.rh)
        ilo, ihi = ri_add(out.il[seg], out.ih[seg], term.il, term.ih)
        out.rl[seg], out.rh[seg] = rlo, rhi
        out.il[seg], out.ih[seg] = ilo, ihi
    return out


# -- midpoint-radius matrices -------------------------------------------


def _gemm_gamma(n: int) -> float:
    return (n + 4) * _U


def _up_factor(n: int) -> float:
    return 1.0 + (4.0 * n + 64.0) * 2.0**-50


def mm_up_nonneg(a, b):
    """Upper bound for the product of nonnegative matrices/vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[-1]
    p = a @ b
    return p * _up_factor(n) + _ETA * n


def rmm(am, ar, bm, br):
    """Real midpoint-radius matrix product enclosure."""
    am = np.asarray(am, dtype=float)
    bm = np.asarray(bm, dtype=float)
    n = am.shape[-1]
    g = _gemm_gamma(n)
    cm = am @ bm
    absa = np.abs(am)
    absb = np.abs(bm)
    p = absa @ absb
    if ar is None and br is None:
        cr = g * p
    else:
        if ar is None:
            ar = np.zeros_like(am)
        if br is None:
            br = np.zeros_like(bm)
        cr = g * p + absa @ br + ar @ absb + ar @ br
    cr = cr * _up_factor(n) + _ETA * n
    if not (np.isfinite(cm).all() and np.isfinite(cr).all()):
        raise IntervalDomainError("overflow in interval matrix product")
    return cm, cr


def cmm(am, ar, bm, br):
    """Complex disc midpoint-radius matrix product enclosure.

    Radii bound the complex modulus of the entrywise error.  The gemm
    constant is doubled because a complex multiply is 4 real multiplies
    and 2 additions.
    """
    am = np.asarray(am, dtype=complex)
    bm = np.asarray(bm, dtype=complex)
    n = am.shape[-1]
    g = 2.0 * _gemm_gamma(n)
    cm = am @ bm
    absa = np.abs(am) * (1.0 + 4.0 * _U)
    absb = np.abs(bm) * (1.0 + 4.0 * _U)
    p = absa @ absb
    if ar is None and br is None:
        cr = g * p
    else:
        if ar is None:
            ar = np.zeros(am.shape)
        if br is None:
            br = np.zeros(bm.shape)
        cr = g * p + absa @ br + ar @ absb + ar @ br
    cr = cr * _up_factor(n) + _ETA * n
    if not (np.isfinite(cm).all() and np.isfinite(cr).all()):
        raise IntervalDomainError("overflow in interval matrix product")
    return cm, cr


def cmat_abs_up(am, ar):
    """Entrywise upper bound |A| for a complex disc matrix."""
    base = np.abs(np.asarray(am, dtype=complex)) * (1.0 + 4.0 * _U)
    if ar is None:
        return base
    return base + ar


# -- verified convolutions at BLAS speed --------------------------------


def conv_up_nonneg(a, b):
    """Upper bound for the full convolution of nonnegative vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        return np.zeros(max(a.size + b.size - 1, 0))
    n = min(a.size, b.size)
    p = np.convolve(a, b)
    return p * _up_factor(n) + _ETA * n


def cconv_mr(am, ar, bm, br):
    """Complex disc midpoint-radius enclosure of the full convolution.

    Each output coefficient is a dot product of length <= min(len a, len b),
    so the same gemm-style constants as cmm apply (doubled for complex).
    """
    am = np.asarray(am, dtype=complex)
    bm = np.asarray(bm, dtype=complex)
    n = min(am.size, bm.size)
    g = 2.0 * _gemm_gamma(n)
    cm = np.convolve(am, bm)
    absa = np.abs(am) * (1.0 + 4.0 * _U)
    absb = np.abs(bm) * (1.0 + 4.0 * _U)
    p = np.convolve(absa, absb)
    cr = g * p
    if ar is not None or br is not None:
        if ar is None:
            ar = np.zeros(am.shape)
        if br is None:
            br = np.zeros(bm.shape)
        cr = cr + np.convolve(absa, br) + np.convolve(ar, absb) + np.convolve(ar, br)
    cr = cr * _up_factor(n) + _ETA * n
    if not (np.isfinite(cm).all() and np.isfinite(cr).all()):
        raise IntervalDomainError("overflow in interval convolution")
    return cm, cr
