"""Vectorized interval kernels on numpy arrays.

Two representations are used:

* endpoint form for 1-D coefficient data: complex interval arrays are the
  4-tuple (rl, rh, il, ih) wrapped in CArr, and the ri_* kernels act on
  the (lo, hi) float64 lane pairs of its real and imaginary parts.  Every
  elementary operation rounds outward by one ulp (`_up`/`_dn`,
  numpy.nextafter), which is sound because binary64 arithmetic rounds to
  nearest.  The endpoint convolution, carr_conv, serves only
  `seqspace.conv` (order 0 and the tests): it forms the products of a
  block of shifts at once and adds them into each output coefficient in
  increasing shift order, so the result is bit for bit that of a loop over
  one coefficient at a time.  It holds products and sums in one direction,
  as [-lo, hi], so that dn(x + y) is -up((-x) + (-y)) and every rounding is
  one upward step, taken as an integer step on the int64 view:
  nextafter's result, bit for bit.  Its temporaries are bounded by a fixed
  block size.

* midpoint-radius form for matrices and convolutions: complex data as
  (mid complex128, rad float64) where rad bounds the complex modulus of
  the error (disc enclosure).  Products use the standard
  floating-point gemm error bound; the inflation constants below are
  deliberately generous.  cconv_mr, one convolution with one or two real
  convolutions for the radius, and mr_add carry `model.DF0.apply`;
  CArr.from_disc turns its discs back into endpoint boxes.  The jets'
  remainder fields are floats with norm bounds, not discs (`stages`).

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


# -- real interval lanes (lo, hi) --------------------------------------


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
    az = np.equal(alo, 0.0) & np.equal(ahi, 0.0)
    bz = np.equal(blo, 0.0) & np.equal(bhi, 0.0)
    if not (az.any() or bz.any()):
        return lo, hi
    zz = az | bz
    return np.where(zz, 0.0, lo), np.where(zz, 0.0, hi)


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
    def from_disc(cls, m, r):
        """Endpoint boxes of the discs |z - m_k| <= r_k, rounded outward; a
        disc with r_k = 0 is the point m_k, without widening."""
        m = np.asarray(m, dtype=complex)
        r = np.asarray(r, dtype=float)
        exact = r == 0.0
        return cls(np.where(exact, m.real, _dn(m.real - r)),
                   np.where(exact, m.real, _up(m.real + r)),
                   np.where(exact, m.imag, _dn(m.imag - r)),
                   np.where(exact, m.imag, _up(m.imag + r)))

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

    def mid(self):
        return 0.5 * (self.rl + self.rh) + 1j * 0.5 * (self.il + self.ih)

    def rad(self):
        """Entrywise upper bound on the complex-modulus radius around mid();
        exactly 0 on a point box, whose midpoint is exact."""
        m = self.mid()
        rr = np.maximum(_up(self.rh - m.real), _up(m.real - self.rl))
        ri = np.maximum(_up(self.ih - m.imag), _up(m.imag - self.il))
        out = _up(np.sqrt(_up(_up(rr * rr) + _up(ri * ri))))
        out[(self.rl == self.rh) & (self.il == self.ih)] = 0.0
        return out

    def pad(self, left: int, right: int) -> "CArr":
        z = np.zeros(left)
        z2 = np.zeros(right)
        return CArr(
            np.concatenate([z, self.rl, z2]),
            np.concatenate([z, self.rh, z2]),
            np.concatenate([z, self.il, z2]),
            np.concatenate([z, self.ih, z2]),
        )


# products per lane in one block of carr_conv: about a dozen
# temporaries of 4 * _CONV_BLOCK floats, near 12 MB, are live at a time
_CONV_BLOCK = 1 << 15

# the four real products of b a_i in the order t1 = re b re a, t3 = re b im a,
# t2 = im b im a, t4 = im b re a: the lanes of b and of a that each one takes
_B_LANES = [0, 0, 2, 2]
_A_LANES = [0, 2, 2, 0]


def _step_up_in_place(bits, inc):
    """x = up(x) for the int64 view bits of a float64 array x that is finite
    and has no -0.0; inc is scratch like bits.

    Adding (bits >> 63) | 1 to the bits of a finite x moves it one ulp up:
    +1 on the magnitude of a positive entry or +0.0 (whose successor is the
    least subnormal), -1 on that of a negative one.  That is
    numpy.nextafter(x, inf) bit for bit, and +max steps to +inf."""
    np.right_shift(bits, 63, out=inc)
    inc |= 1
    bits += inc


def _up_in_place(x):
    """x = up(x), in place, for a C-contiguous float64 array; -0.0 is first
    made +0.0.  It does not look for non-finite entries: +inf comes out as
    a NaN, -inf as -max (as from nextafter), and a NaN stays a NaN."""
    np.add(x, 0.0, out=x)  # -0.0 to +0.0
    bits = x.view(np.int64)
    _step_up_in_place(bits, np.empty_like(bits))


def _shift_products(B, A, pz_b, pz_a):
    """[-lo, hi] of b a_i for a block of shifts i, rounded as CArr.mul rounds.

    B has lanes (4, 1, M) and A (4, s, 1), both in endpoint order rl, rh,
    il, ih, and pz_b and pz_a mark their point-zero lanes (2, ., .).
    Returns the products (2, 2, s, M), [-lo, hi] x [re, im], and where they
    are the point zero (2, s, M).  Where a product is the point zero
    its entries are left unspecified: a sum neither adds nor takes it.

    ri_mul gives lo = dn(min p), hi = up(max p) over the four endpoint
    products p, or the exact 0 on a point-zero lane.  Held as [-min, max]
    and stepped up together, that is [-lo, hi].  Then ri_sub(t1, t2) and
    ri_add(t3, t4) are up([-lo1, hi1] + [hi2, -lo2]) and up([-lo3, hi3] +
    [-lo4, hi4]), with ri_add's point-zero rules: where one of the two real
    products is the point zero, the sum is the other one, and where both
    are, the sum is the point zero too.  So no point-zero real product is
    read.  Holding t2 as [hi, -lo] makes both sums one add.  A non-finite
    product comes out as a NaN.
    """
    blo, bhi = B[_B_LANES], B[[k + 1 for k in _B_LANES]]
    alo, ahi = A[_A_LANES], A[[k + 1 for k in _A_LANES]]
    shape = np.broadcast_shapes(blo.shape, alo.shape)
    t = np.empty((2,) + shape)
    p, q = blo * alo, blo * ahi
    r, u = bhi * alo, bhi * ahi
    np.maximum(r, u, out=t[1])
    np.minimum(r, u, out=r)
    np.maximum(t[1], np.maximum(p, q), out=t[1])
    np.minimum(r, np.minimum(p, q), out=t[0])
    np.negative(t[0], out=t[0])
    # t2 as [hi, -lo]
    t[:, 2] = t[::-1, 2].copy()
    _up_in_place(t)
    x, y = t[:, 0:2], t[:, 2:4]
    prod = np.add(x, y)
    _up_in_place(prod)
    zz = pz_b[[0, 0, 1, 1]] | pz_a[[0, 1, 1, 0]]
    zx, zy = zz[0:2], zz[2:4]
    if zz.any():
        np.copyto(prod, y, where=zx)
        np.copyto(prod, x, where=zy)
    return prod, zx & zy


def carr_conv(a: CArr, b: CArr) -> CArr:
    """Full convolution out_k = sum_i a_i b_{k-i}.

    The operands are ordered so that a is the shorter one.  The products
    b_j a_i come for a block of shifts i at a time, by `_shift_products`:
    bit for bit CArr.mul's.  Each shift's row is then added into the output
    in increasing i, with the IEEE operations and point-zero rules of
    ri_add: a point-zero product leaves the sum as it is, a point-zero sum
    takes the product, and otherwise lo = dn(lo + p_lo) and hi = up(hi +
    p_hi).  So every output coefficient is bit for bit that of a loop over
    i; a point-zero a_i gives point-zero products.

    Products and sums are held in one direction, as [-lo, hi]: dn(x + y)
    equals -up((-x) + (-y)) exactly, so each shift is one add, one upward
    integer step (`_step_up_in_place`) and two masked copies.  The addends are
    the products with -0.0 made +0.0, so that no sum is -0.0, as the step
    needs; a sum that takes a product takes its bits.  The -lo lanes start
    at -0.0, so an untouched lower end reads back as +0.0.  A sum stops
    being the point zero at its first product that is not, and never
    becomes it again, so that mask is kept rather than recomputed.  A block
    holds at most _CONV_BLOCK products per lane (a single shift when one
    shift has more), which bounds the temporaries.  Raises
    IntervalDomainError when a product or a sum is not finite.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return CArr.zeros(0)
    if n > m:
        a, b = b, a
        n, m = m, n
    if not (b.rl.any() or b.rh.any() or b.il.any() or b.ih.any()):
        return CArr.zeros(n + m - 1)
    # lanes rl, rh, il, ih, and the point-zero lanes [re, im]
    A = np.array((a.rl, a.rh, a.il, a.ih))
    B = np.array((b.rl, b.rh, b.il, b.ih))
    pz_a = np.equal(A[0::2], 0.0) & np.equal(A[1::2], 0.0)
    pz_b = np.equal(B[0::2], 0.0) & np.equal(B[1::2], 0.0)
    # sums [-lo, hi] x [re, im], and which are still the point zero
    acc = np.empty((2, 2, n + m - 1))
    acc[0] = -0.0
    acc[1] = 0.0
    zero = np.ones((2, n + m - 1), dtype=bool)
    new = np.empty((2, 2, m))
    bits = new.view(np.int64)
    inc = np.empty_like(bits)
    step = max(1, _CONV_BLOCK // m)
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        prod, pzero = _shift_products(
            B[:, None, :], A[:, i0:i1, None], pz_b[:, None, :], pz_a[:, i0:i1, None])
        if not np.isfinite(prod).all():
            raise IntervalDomainError("non-finite product in carr_conv")
        if (np.add(prod[0], prod[1]) < 0.0).any():  # hi - lo, sign exact
            raise IntervalDomainError("inverted product in carr_conv")
        nonzero = ~pzero
        # the products as addends, -0.0 made +0.0: then no sum is -0.0, as
        # the integer step needs; a sum that takes a product takes its bits
        addend = prod + 0.0
        for t in range(i1 - i0):
            seg = slice(i0 + t, i0 + t + m)
            sums = acc[:, :, seg]
            np.add(sums, addend[:, :, t], out=new)
            _step_up_in_place(bits, inc)
            np.copyto(new, prod[:, :, t], where=zero[:, seg])
            np.copyto(sums, new, where=nonzero[:, t])
            zero[:, seg] &= pzero[:, t]
    return CArr(-acc[0, 0], acc[1, 0], -acc[0, 1], acc[1, 1])


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


def cmm(am, ar, bm, br):
    """Midpoint-radius matrix product enclosure (cm, cr) of (am, ar)(bm, br).

    Radii bound the modulus of the entrywise error.  When am and bm are both
    real the product stays float64 and takes the real gemm constant
    gamma(n).  Otherwise it is complex and the constant is doubled, because a
    complex multiply is 4 real multiplies and 2 additions; |.| of a complex
    entry is rounded up by 1 + 4u, of a real one it is exact.
    """
    real = not (np.iscomplexobj(am) or np.iscomplexobj(bm))
    dtype = float if real else complex
    am = np.asarray(am, dtype=dtype)
    bm = np.asarray(bm, dtype=dtype)
    n = am.shape[-1]
    g = _gemm_gamma(n) if real else 2.0 * _gemm_gamma(n)
    # the radius first and scaled in place, so that |am| and |bm| are gone
    # before the midpoint is made: fresh N x N arrays cost their page faults
    absa, absb = np.abs(am), np.abs(bm)
    if not real:
        absa *= 1.0 + 4.0 * _U
        absb *= 1.0 + 4.0 * _U
    cr = absa @ absb
    cr *= g
    # only the radius lanes that are given: a missing one is zero
    if br is not None:
        cr += absa @ br
    if ar is not None:
        cr += ar @ absb
        if br is not None:
            cr += ar @ br
    del absa, absb
    cr *= _up_factor(n)
    cr += _ETA * n
    cm = am @ bm
    if not (np.isfinite(cm).all() and np.isfinite(cr).all()):
        raise IntervalDomainError("overflow in interval matrix product")
    return cm, cr


def cmat_abs_up(am, ar):
    """Entrywise upper bound |A| for a complex disc matrix."""
    base = np.abs(np.asarray(am, dtype=complex))
    base *= 1.0 + 4.0 * _U
    if ar is None:
        return base
    return _up(base + ar)


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


def _lane(g: float, mag, r):
    """up(g mag + r), elementwise, r None read as zero; exactly 0 where
    mag + r is (a point-zero entry)."""
    if r is None:
        return zero_masked_up(g * mag, mag)
    return zero_masked_up(g * mag + r, mag + r)


def cconv_mr(am, ar, bm, br):
    """Complex disc midpoint-radius enclosure [mid, rad] of the full
    convolution of (am, ar) and (bm, br); a radius lane that is None or all
    zero is read as exactly zero.

    The midpoint is np.convolve(am, bm).  The radius is
    |a|(g |b| + r_b) + r_a (|b| + r_b): the gemm bound g |a||b| (g = 2
    gamma(n), n the shorter length, doubled for complex) plus |a| r_b +
    r_a |b| + r_a r_b, with |.| rounded up by 1 + 4u and the bracketed lanes
    rounded up.  That is one real convolution when either radius lane is
    exactly zero and two otherwise.  Every term is nonnegative and passes
    at most n + 3 roundings, which one factor _up_factor(n + 3) covers, and
    _ETA n absorbs underflow.
    """
    am = np.asarray(am, dtype=complex)
    bm = np.asarray(bm, dtype=complex)
    n = min(len(am), len(bm))
    g = 2.0 * _gemm_gamma(n)
    absa = np.abs(am) * (1.0 + 4.0 * _U)
    absb = np.abs(bm) * (1.0 + 4.0 * _U)
    ar = None if ar is None or not np.any(ar) else np.asarray(ar, dtype=float)
    br = None if br is None or not np.any(br) else np.asarray(br, dtype=float)
    if ar is None:
        zr = np.convolve(absa, _lane(g, absb, br))
    elif br is None:
        zr = np.convolve(_lane(g, absa, ar), absb)
    else:
        zr = np.convolve(absa, _lane(g, absb, br)) + np.convolve(ar, _lane(1.0, absb, br))
    cm = np.convolve(am, bm)
    cr = zr * _up_factor(n + 3) + _ETA * n
    if not (np.isfinite(cm).all() and np.isfinite(cr).all()):
        raise IntervalDomainError("overflow in interval convolution")
    return [cm, cr]


def mr_add(qm, qr, vm, vr):
    """Centered midpoint-radius sum of two odd-length disc arrays.

    The radius takes both radii and the rounding of the midpoint sum: a
    complex addition errs by at most u |z| in modulus, and 2^-52 |z| covers
    it with the rounding of |z| itself.
    """
    nlen = max(len(qm), len(vm))
    zm = np.zeros(nlen, dtype=complex)
    zr = np.zeros(nlen)
    for sm, sr in ((qm, qr), (vm, vr)):
        off = (nlen - len(sm)) // 2
        zm[off:off + len(sm)] += sm
        zr[off:off + len(sr)] = _up(zr[off:off + len(sr)] + sr)
    return [zm, _up(zr + _up(np.abs(zm) * (2.0 ** -52)))]
