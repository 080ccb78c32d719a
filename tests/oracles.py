"""Independent oracles used to freeze expected values.

Everything here but `carr_conv_reference` works over rationals
(fractions.Fraction), so the results are exact and make no reference to the
code under test.  Complex rationals are (re, im) Fraction pairs.
`carr_conv_reference` is the plain per-coefficient loop of the endpoint
interval convolution, the bit-level definition the batched kernel must
reproduce.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fourbody.ivarray import CArr, ri_add


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
