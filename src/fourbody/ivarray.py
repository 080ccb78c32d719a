"""Vectorized interval kernels on numpy arrays.

Two representations are used:

* endpoint form for 1-D coefficient data: complex interval arrays are the
  4-tuple (rl, rh, il, ih) wrapped in CArr, and the ri_* kernels act on
  the (lo, hi) float64 lane pairs of its real and imaginary parts.  Every
  elementary operation rounds outward by one ulp (numpy.nextafter), which
  is sound because binary64 arithmetic rounds to nearest.  The endpoint
  convolution, carr_conv_batch, now serves only `seqspace.conv` (order 0
  and the tests): it stacks many (a, b) pairs, forms the products of a
  block of shifts at once, and adds them into each output coefficient in
  increasing shift order, so the result is bit for bit that of a loop over
  one coefficient at a time.  Its temporaries are bounded by a fixed block
  size.

* midpoint-radius form for matrices and convolutions: complex data as
  (mid complex128, rad float64) where rad bounds the complex modulus of
  the error (disc enclosure).  Products use the standard
  floating-point gemm error bound; the inflation constants below are
  deliberately generous.  cconv_mr_sum carries the jets' remainder fields:
  it folds a sum of convolutions in one pass, with midpoints bit for bit
  those of one cconv_mr per pair summed by mr_add, and a radius that
  prepares each operand (`Disc`) once and takes one or two real
  convolutions per pair.  cconv_mr, its one-pair case, and mr_add carry
  `model.DF0.apply`.  CArr.from_disc turns discs back into endpoint boxes.

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
    zz = (np.equal(alo, 0.0) & np.equal(ahi, 0.0)) | (
        np.equal(blo, 0.0) & np.equal(bhi, 0.0)
    )
    return np.where(zz, 0.0, lo), np.where(zz, 0.0, hi)


def ri_mig(alo, ahi):
    """Entrywise lower bound on |x| over the interval (0 when it straddles 0)."""
    m = np.minimum(np.abs(alo), np.abs(ahi))
    return np.where((alo <= 0.0) & (0.0 <= ahi), 0.0, m)


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
        """Entrywise upper bound on the complex-modulus radius around mid();
        exactly 0 on a point box, whose midpoint is exact."""
        m = self.mid()
        rr = np.maximum(_up(self.rh - m.real), _up(m.real - self.rl))
        ri = np.maximum(_up(self.ih - m.imag), _up(m.imag - self.il))
        out = _up(np.sqrt(_up(_up(rr * rr) + _up(ri * ri))))
        out[(self.rl == self.rh) & (self.il == self.ih)] = 0.0
        return out

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


# products per lane in one block of carr_conv_batch: about a dozen
# temporaries of 4 * _CONV_BLOCK floats, near 12 MB, are live at a time
_CONV_BLOCK = 1 << 15


def carr_conv_batch(pairs) -> list:
    """Full convolutions out_k = sum_i a_i b_{k-i} of many (a, b) pairs.

    Each pair is ordered so that a is the shorter operand, then the pairs
    are zero-padded to common lengths and stacked, so one numpy call works
    on every pair at once.  Products b_j a_i come from the broadcast
    ri_mul/ri_sub/ri_add over (pair, i, j) for a block of shifts i at a
    time; each shift's row is then added into the output with ri_add in
    increasing i.  So every output coefficient sees the same IEEE
    operations, in the same order and with the same point-zero masks, as a
    loop over i for a single pair: the padding and a point-zero a_i give
    point-zero products, and ri_add leaves a sum exactly as it is when one
    operand is the point zero.  A block holds at most _CONV_BLOCK products
    per lane (a single shift when one shift of all pairs has more), which
    bounds the temporaries.  Raises IntervalDomainError when a product or a
    sum is not finite.
    """
    out = [None] * len(pairs)
    live = []
    for p, (a, b) in enumerate(pairs):
        n, m = len(a), len(b)
        if n == 0 or m == 0:
            out[p] = CArr.zeros(0)
            continue
        if n > m:
            a, b = b, a
            n, m = m, n
        if not (b.rl.any() or b.rh.any() or b.il.any() or b.ih.any()):
            out[p] = CArr.zeros(n + m - 1)
            continue
        live.append((p, a, b))
    if not live:
        return out
    P = len(live)
    N = max(len(a) for _, a, _ in live)
    M = max(len(b) for _, _, b in live)
    # lanes rl, rh, il, ih of every pair, padded with point zeros
    A = np.zeros((4, P, N))
    B = np.zeros((4, P, M))
    for q, (_, a, b) in enumerate(live):
        A[:, q, :len(a)] = (a.rl, a.rh, a.il, a.ih)
        B[:, q, :len(b)] = (b.rl, b.rh, b.il, b.ih)
    # b * a_i as in CArr.mul: the four real products t1 = re b re a,
    # t2 = im b im a, t3 = re b im a, t4 = im b re a share one ri_mul
    blo = B[[0, 2, 0, 2], :, None, :]
    bhi = B[[1, 3, 1, 3], :, None, :]
    alo_all = A[[0, 2, 2, 0]]
    ahi_all = A[[1, 3, 3, 1]]
    # accumulated sums: [re, im] lanes of the lower and the upper endpoints
    lo = np.zeros((2, P, N + M - 1))
    hi = np.zeros((2, P, N + M - 1))
    step = max(1, _CONV_BLOCK // (P * M))
    for i0 in range(0, N, step):
        i1 = min(N, i0 + step)
        tlo, thi = ri_mul(blo, bhi, alo_all[:, :, i0:i1, None],
                          ahi_all[:, :, i0:i1, None])
        rlo, rhi = ri_sub(tlo[0], thi[0], tlo[1], thi[1])
        ilo, ihi = ri_add(tlo[2], thi[2], tlo[3], thi[3])
        plo, phi = np.stack((rlo, ilo)), np.stack((rhi, ihi))
        if not (np.isfinite(plo).all() and np.isfinite(phi).all()):
            raise IntervalDomainError("non-finite product in carr_conv")
        if (plo > phi).any():
            raise IntervalDomainError("inverted product in carr_conv")
        for t in range(i1 - i0):
            seg = slice(i0 + t, i0 + t + M)
            lo[:, :, seg], hi[:, :, seg] = ri_add(
                lo[:, :, seg], hi[:, :, seg], plo[:, :, t], phi[:, :, t])
    for q, (p, a, b) in enumerate(live):
        L = len(a) + len(b) - 1
        out[p] = CArr(lo[0, q, :L], hi[0, q, :L], lo[1, q, :L], hi[1, q, :L])
    return out


def carr_conv(a: CArr, b: CArr) -> CArr:
    """Full convolution out_k = sum_i a_i b_{k-i}: carr_conv_batch of one pair."""
    return carr_conv_batch([(a, b)])[0]


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


class Disc:
    """A disc array (midpoint m, radius lane r) prepared as an operand of
    `cconv_mr_sum`, once for all the pairs it enters.

    mag is |m| (1 + 4u); r is None where the radius lane is exactly zero.
    The bracketed lanes of the fold, up(g mag + r) for each gemm constant g
    and up(mag + r), are made on first use and kept with the operand; an
    entry that is the point zero stays exactly 0 in both.
    """

    __slots__ = ("m", "mag", "r", "_lanes", "_outer")

    def __init__(self, m, r):
        self.m = np.asarray(m, dtype=complex)
        self.mag = np.abs(self.m) * (1.0 + 4.0 * _U)
        self.r = None if r is None or not np.any(r) else np.asarray(r, dtype=float)
        self._lanes = {}
        self._outer = None

    def lane(self, g: float):
        """up(g |m| + r), elementwise; exactly 0 on a point zero."""
        out = self._lanes.get(g)
        if out is None:
            if self.r is None:
                out = zero_masked_up(g * self.mag, self.mag)
            else:
                out = zero_masked_up(g * self.mag + self.r, self.mag + self.r)
            self._lanes[g] = out
        return out

    def outer(self):
        """up(|m| + r), elementwise (r is not None); exactly 0 on a point zero."""
        if self._outer is None:
            s = self.mag + self.r
            self._outer = zero_masked_up(s, s)
        return self._outer


def cconv_mr_sum(pairs):
    """Complex disc enclosure [mid, rad] of sum_k a_k * b_k, the full
    convolutions of `pairs`, a list of (Disc, Disc), centred on the longest.

    The midpoint is the one the chain cconv_mr + mr_add gives when it folds
    the pairs in their order, bit for bit: a single pair's np.convolve as it
    is, and otherwise each convolution added into one accumulator of zeros.
    The radius of pair k is |a|(g |b| + r_b) + r_a (|b| + r_b), which is the
    gemm bound g |a||b| (g = 2 gamma(n), n the shorter length, doubled for
    complex) plus |a| r_b + r_a |b| + r_a r_b, with the bracketed lanes
    rounded up: one real convolution when either radius lane is exactly
    zero, two otherwise.  Each addition after the first adds 2^-52 |partial
    sum| for the rounding of the midpoint sum, as mr_add does.  Every term
    is nonnegative and passes at most n_max + 3P roundings in the sum (P
    pairs), so one factor _up_factor(n_max + 3P) covers them all, and each
    pair adds the underflow slack _ETA n over its own output range.
    """
    P = len(pairs)
    L = max(len(a.m) + len(b.m) - 1 for a, b in pairs)
    single = P == 1
    zm = None if single else np.zeros(L, dtype=complex)
    zr = np.zeros(L)
    partial = 0.0 if single else np.zeros(L)
    nmax = 0
    reach = {}   # output length -> the sum of n over the pairs of that length
    for k, (a, b) in enumerate(pairs):
        n = min(len(a.m), len(b.m))
        nmax = max(nmax, n)
        g = 2.0 * _gemm_gamma(n)
        pm = np.convolve(a.m, b.m)
        reach[len(pm)] = reach.get(len(pm), 0) + n
        sl = slice((L - len(pm)) // 2, (L + len(pm)) // 2)
        if a.r is None:
            zr[sl] += np.convolve(a.mag, b.lane(g))
        elif b.r is None:
            zr[sl] += np.convolve(a.lane(g), b.mag)
        else:
            zr[sl] += np.convolve(a.mag, b.lane(g)) + np.convolve(a.r, b.outer())
        if single:
            zm = pm
            continue
        zm[sl] += pm
        if k:
            partial += np.abs(zm)
    eta = np.zeros(L)
    for lp, n in reach.items():
        eta[(L - lp) // 2:(L + lp) // 2] += n
    cr = (zr + partial * 2.0**-52) * _up_factor(nmax + 3 * P) + _ETA * eta
    if not (np.isfinite(zm).all() and np.isfinite(cr).all()):
        raise IntervalDomainError("overflow in interval convolution")
    return [zm, cr]


def cconv_mr(am, ar, bm, br):
    """Complex disc midpoint-radius enclosure of the full convolution:
    `cconv_mr_sum` of the one pair, a None radius lane read as zero."""
    return cconv_mr_sum([(Disc(am, ar), Disc(bm, br))])


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
