"""Independent oracles and input builders shared by the tests.

The rational oracles work over fractions.Fraction, so their results are
exact and make no reference to the code under test.  Complex rationals are
(re, im) Fraction pairs.  `carr_conv_reference` is the plain
per-coefficient loop of the endpoint interval convolution, the bit-level
definition the batched kernel must reproduce.  `field_F_seq`, `dF0_apply`
and `remainder_Ralpha` are per-layer views of the interval field map that
the model tests check against each other.  The builders at the end make
interval inputs: an interval from midpoint and radius, an array widened by
a radius, and a Fourier sequence from a dict of modes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fourbody.interval import ComplexInterval, Interval, add_down, add_up
from fourbody.ivarray import CArr, ri_add, _dn, _up
from fourbody.model import dF0, field_F_grid
from fourbody.seqspace import FourierSeq


def q(x) -> Fraction:
    return Fraction(x)


def cq(z) -> tuple[Fraction, Fraction]:
    if isinstance(z, tuple):
        return (Fraction(z[0]), Fraction(z[1]))
    z = complex(z)
    return (Fraction(z.real), Fraction(z.imag))


def cq_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cq_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cq_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cq_conj(a):
    return (a[0], -a[1])


def conv_exact(a, b):
    """Full convolution of two lists of complex rationals."""
    n, m = len(a), len(b)
    out = [(Fraction(0), Fraction(0)) for _ in range(n + m - 1)]
    for i in range(n):
        for j in range(m):
            out[i + j] = cq_add(out[i + j], cq_mul(a[i], b[j]))
    return out


def ft_conv_exact(a, b, cap):
    """Cauchy-convolution of two Fourier-Taylor grids of complex rationals.

    a, b: dict mapping (m, n) -> list over k of complex rationals, with a
    common two-sided k-offset convention handled by the caller (lists are
    aligned, same kmin).  Returns dict for all orders with |order| <= cap.
    """
    out = {}
    for (m1, n1), s1 in a.items():
        for (m2, n2), s2 in b.items():
            mo, no = m1 + m2, n1 + n2
            if mo + no > cap:
                continue
            c = conv_exact(s1, s2)
            if (mo, no) in out:
                prev = out[(mo, no)]
                L = max(len(prev), len(c))
                merged = []
                for i in range(L):
                    x = prev[i] if i < len(prev) else (Fraction(0), Fraction(0))
                    y = c[i] if i < len(c) else (Fraction(0), Fraction(0))
                    merged.append(cq_add(x, y))
                out[(mo, no)] = merged
            else:
                out[(mo, no)] = c
    return out


def l1nu_norm_exact(seq, kmin, nu: Fraction):
    """sum_k |a_k| nu^|k| needs |a_k|; for rational data use the 1-norm
    surrogate |re|+|im| >= |a_k| is wrong for lower bounds, so instead this
    returns the pair (lower, upper) using |re|+|im| (upper) and
    max(|re|,|im|) (lower) envelopes of the modulus."""
    lo = Fraction(0)
    hi = Fraction(0)
    for i, (re, im) in enumerate(seq):
        k = kmin + i
        w = nu ** abs(k)
        lo += max(abs(re), abs(im)) * w
        hi += (abs(re) + abs(im)) * w
    return lo, hi


def primaries_geometric(m1: Fraction, m2: Fraction, m3: Fraction, sqrt3: Fraction):
    """Vertices of the unit equilateral triangle, centre of mass at the
    origin, first vertex rotated onto the negative x-axis.

    sqrt3 must be a rational approximation of sqrt(3); the result is exact
    in terms of that approximation, so callers compare with a tolerance
    tied to its accuracy.  Returns three (x, y) pairs.
    """
    # Unrotated: q1=(0,0), q2=(1,0), q3=(1/2, sqrt3/2); centre c = sum m q.
    cx = m2 * 1 + m3 * Fraction(1, 2)
    cy = m3 * sqrt3 / 2
    v = [(Fraction(0) - cx, Fraction(0) - cy), (1 - cx, Fraction(0) - cy), (Fraction(1, 2) - cx, sqrt3 / 2 - cy)]
    # Rotate so v[0] lands on the negative x axis: angle of v[0] is pi + t.
    # Rotation by -t maps v0 to (-|v0|, 0): cos t = -x0/r, sin t = -y0/r.
    x0, y0 = v[0]
    r2 = x0 * x0 + y0 * y0
    # cos(-t) = -x0/r, sin(-t) = y0/r ; apply R(-t) with rational r approx.
    # To stay rational, return rotated coordinates scaled by r:
    # p_j * r = (x*(-x0) + y*(-y0), -x*(-y0)... ) derive directly:
    # R(-t) = [[c, s], [-s, c]] with c = -x0/r, s = -y0/r.
    out = []
    for (x, y) in v:
        xr = x * (-x0) + y * (-y0)  # = r^2 * (rotated x)/r
        yr = -x * (-y0) + y * (-x0)
        out.append((xr, yr, r2))  # rotated coords are (xr/r, yr/r), r=sqrt(r2)
    return out


def carr_conv_reference(a: CArr, b: CArr) -> CArr:
    """Full convolution out_k = sum_i a_i b_{k-i}, one shift i at a time."""
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


# ---------------------------------------------------------------------------
# per-layer views of the interval field map


class MissingLowerOrderData(ValueError):
    """A grid lacks Taylor layers required by the requested order."""


class OrderTooLow(ValueError):
    """The remainder is only defined for orders two and higher."""


def field_F_seq(a, alpha, cfg):
    """Layer alpha of the embedded field map on a Fourier-Taylor grid."""
    order = alpha[0] + alpha[1]
    if max(f.order() for f in a) < order:
        raise MissingLowerOrderData("grids carry orders below %d only" % order)
    return tuple(g.layer(*alpha) for g in field_F_grid(a, cfg, cap=order))


def dF0_apply(a0, h, cfg):
    """Derivative of the order-zero field map at a0 applied to h."""
    return dF0(a0, cfg).apply(h)


def remainder_Ralpha(a, alpha, cfg):
    """Layer-alpha terms of the field map not involving the alpha coefficient.

    Dropping every layer of total order |alpha| and reading layer alpha of
    the full product keeps exactly the splittings in which no factor sits at
    alpha, so the output solves

        (field layer alpha) = (derivative at order zero)(a_alpha) + R_alpha

    and is bitwise independent of whatever a_alpha the input carried.
    """
    order = alpha[0] + alpha[1]
    if order < 2:
        raise OrderTooLow("remainder defined for total order >= 2")
    low = tuple(f.truncate(order - 1) for f in a)
    return tuple(g.layer(*alpha) for g in field_F_grid(low, cfg, cap=order))


# ---------------------------------------------------------------------------
# interval input builders


def iv_midrad(mid: float, rad: float) -> Interval:
    """The interval [mid - rad, mid + rad], rounded outward."""
    return Interval(add_down(mid, -rad), add_up(mid, rad))


def widen(a: CArr, r) -> CArr:
    """a with both components inflated outward by r (entrywise, r >= 0)."""
    r = np.asarray(r, dtype=float)
    return CArr(_dn(a.rl - r), _up(a.rh + r), _dn(a.il - r), _up(a.ih + r))


def seq_from_entries(entries, nu: float, K: int | None = None) -> FourierSeq:
    """The sequence with the modes of a dict k -> complex | ComplexInterval
    and zeros elsewhere, on the window |k| < K (the smallest that fits)."""
    if K is None:
        K = max((abs(int(k)) for k in entries), default=0) + 1
    out = FourierSeq.zeros(K, nu)
    for k, v in entries.items():
        i = int(k) + K - 1
        if not 0 <= i < 2 * K - 1:
            raise ValueError("entry outside window")
        if not isinstance(v, ComplexInterval):
            v = ComplexInterval.point(complex(v))
        out.c.rl[i], out.c.rh[i] = v.re.lo, v.re.hi
        out.c.il[i], out.c.ih[i] = v.im.lo, v.im.hi
    return out
