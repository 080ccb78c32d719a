"""Equilateral four body model.

Three primaries with masses m1 >= m2 >= m3 > 0 (normalized to sum 1) sit at
the vertices of a unit equilateral triangle rotating uniformly about the
center of mass; a fourth massless particle moves in their field.  In the
co-rotating frame the primaries are fixed and the dynamics has a conserved
Jacobi integral.

This module supplies the geometry (closed-form primary positions), the
Jacobi integral on the 9D phase space that appends the three reciprocal
distances as new variables, and the degree-5 polynomial field on that
space, for coefficient grids only.  A point is a grid of one mode: seeding
takes the field at its phase anchor from the float lane
(`numerics.field_grid`).

The embedded field is written once, in `embedded_field`, and its order-zero
derivative once, in `field_derivative`.  Both run over a pluggable
arithmetic.  Here it is `IntervalArith`: order 0 in endpoint intervals, one
`FourierSeq` per component, with no Taylor layers.  The Fourier-Taylor
grids of the jets are evaluated in floats by `numerics.FloatArith` and
bounded by the norm/radius lane of `stages`.  On top of the interval
arithmetic sit the order-0 field map on nine sequences (`field_F_grid`)
and its derivative table (`DF0`), which holds the kernels as discs and
applies them to point arrays in midpoint-radius form.  The scalar
phase/initialization conditions and their gradient are written once, in
`eta_terms`, over any scalars with +, - and *: complex floats for
seeding's Newton, intervals for the certificate.  The orbit's unfolding
term is assembled by `stages` from the cubes it already has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .interval import (
    CZERO,
    ComplexInterval,
    Interval,
    IntervalDomainError,
    ZERO,
)
from .ivarray import CArr, cconv_mr, down_sum, mr_add, up_sum
from .seqspace import FourierSeq, WeightMismatch, conv

__all__ = [
    "DegenerateMassCombination",
    "MassTriple",
    "PrimaryConfig",
    "PhaseAnchor",
    "interval_from_rational",
    "mass_combination",
    "primaries",
    "IntervalArith",
    "embedded_field",
    "field_derivative",
    "field_F_grid",
    "DF0",
    "eta_terms",
    "xi_phase",
]


class DegenerateMassCombination(ValueError):
    """The mass combination K cannot be bounded away from zero."""


# ---------------------------------------------------------------------------
# masses and primary geometry


def interval_from_rational(q) -> Interval:
    """Tight interval enclosure of a rational number."""
    q = Fraction(q)
    f = float(q)
    fq = Fraction(f)
    if fq == q:
        return Interval.point(f)
    if fq < q:
        return Interval(f, math.nextafter(f, math.inf))
    return Interval(math.nextafter(f, -math.inf), f)


def _mass_iv(v) -> Interval:
    if isinstance(v, Interval):
        return v
    if isinstance(v, float):
        # floats are read as their shortest decimal literal, so 0.33 means
        # 33/100; pass a string like "1/3" for non-decimal rationals
        return interval_from_rational(Fraction(repr(v)))
    return interval_from_rational(v)


@dataclass(frozen=True)
class MassTriple:
    """Ordered normalized masses, each stored as an interval enclosure."""

    m1: Interval
    m2: Interval
    m3: Interval

    def __post_init__(self):
        if not self.m3.lo > 0.0:
            raise ValueError("smallest mass must be positive")
        if self.m3.lo > self.m2.hi or self.m2.lo > self.m1.hi:
            raise ValueError("masses must satisfy m3 <= m2 <= m1")
        total = self.m1 + self.m2 + self.m3
        if not total.contains(1.0):
            raise ValueError("masses must sum to 1 within enclosure")

    @classmethod
    def of(cls, m1, m2, m3) -> "MassTriple":
        return cls(_mass_iv(m1), _mass_iv(m2), _mass_iv(m3))

    def __iter__(self):
        return iter((self.m1, self.m2, self.m3))

    def __getitem__(self, j: int) -> Interval:
        return (self.m1, self.m2, self.m3)[j]


@dataclass(frozen=True)
class PrimaryConfig:
    """Interval positions of the three primaries plus their masses."""

    masses: MassTriple
    p1: tuple
    p2: tuple
    p3: tuple

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p3):
            if len(p) != 3 or not p[2].contains(0.0):
                raise ValueError("primaries must lie in the z = 0 plane")
        for axis in range(3):
            com = (
                self.masses.m1 * self.p1[axis]
                + self.masses.m2 * self.p2[axis]
                + self.masses.m3 * self.p3[axis]
            )
            if not com.contains(0.0):
                raise ValueError("center of mass must enclose the origin")
        d12 = self._dist2(self.p1, self.p2)
        d13 = self._dist2(self.p1, self.p3)
        d23 = self._dist2(self.p2, self.p3)
        try:
            d12.intersect(d13).intersect(d23)
        except IntervalDomainError:
            raise ValueError("primaries are not equilateral within enclosure")

    @staticmethod
    def _dist2(p, q) -> Interval:
        return sum(((p[i] - q[i]).pow_int(2) for i in range(3)), ZERO)

    def position(self, j: int):
        """Primary j in {0,1,2} as an (x, y, z) interval triple."""
        return (self.p1, self.p2, self.p3)[j]


_SQRT3 = Interval(3.0).sqrt()


def mass_combination(m: MassTriple) -> Interval:
    """The scalar K whose sign fixes the orientation of the triangle."""
    return m.m2 * (m.m3 - m.m2) + m.m1 * (m.m2 + m.m3 * 2.0)


def primaries(m: MassTriple) -> PrimaryConfig:
    """Closed-form primary positions for ordered normalized masses."""
    K = mass_combination(m)
    if K.contains(0.0):
        raise DegenerateMassCombination("mass combination K encloses zero")
    sgn = 1.0 if K.lo > 0.0 else -1.0
    absK = K if sgn > 0.0 else -K
    s = m.m2.pow_int(2) + m.m2 * m.m3 + m.m3.pow_int(2)
    two_sq = s.sqrt() * 2.0
    x1 = s.sqrt() * (-sgn)
    x2 = ((m.m2 - m.m3) * m.m3 + m.m1 * (m.m2 * 2.0 + m.m3)) / two_sq * sgn
    y2 = -(_SQRT3 * m.m3) / two_sq
    x3 = absK / two_sq
    y3 = (_SQRT3 * m.m2) / two_sq
    return PrimaryConfig(
        masses=m,
        p1=(x1, ZERO, ZERO),
        p2=(x2, y2, ZERO),
        p3=(x3, y3, ZERO),
    )


# ---------------------------------------------------------------------------
# coefficient-space field


def _nine(a, what: str):
    """The 9 components of a coefficient vector, checked to share one nu."""
    if len(a) != 9:
        raise ValueError("expected 9 coefficient %ss" % what)
    if any(f.nu != a[0].nu for f in a):
        raise WeightMismatch("%s components disagree on nu" % what)
    return tuple(a)


def _const_seq(c: Interval, nu: float) -> FourierSeq:
    """The constant sequence c, a real interval."""
    return FourierSeq(CArr.from_civ_list([ComplexInterval(c, ZERO)]), nu)


# An arithmetic is an object with the operations the embedded field is built
# from, each acting on coefficient grids in its own representation:
#
#   zero                the zero grid, or a sentinel that sum skips;
#                       every sum starts from it
#   mul(b, c, cap)      Cauchy product without the layers above order cap
#   sum(*grids)         sum, accumulated from left to right
#   scale(g, c)         multiple by a mass of `masses` or a float constant
#   shift(g, p)         g minus the constant p (a coordinate of `positions`)
#   neg(g), truncate(g, cap), layer(g, alpha)
#   masses, positions   the three masses and primary positions as constants
#
# Each arithmetic keeps its own rounding for every step (the float lane
# rounds to nearest, the others round outward), and nothing below asks which
# arithmetic it runs in.


class IntervalArith:
    """Order 0 in endpoint intervals: each grid is one `FourierSeq`.

    Products are `seqspace.conv`, and order 0 has no layer above cap = 0,
    so `truncate` and `layer` return their argument.  `zero` is a sentinel
    that `sum` skips, so a sum that starts from it adds nothing.

    Each instance keeps a table of its `mul` and `shift` results, keyed by
    the identity of the operands.  An entry holds its operands as well, so
    no id in a key is reused while the table lives.  The field and its
    derivative at one point share w^2, w^3, d_j = (x, y, z) - p_j and
    d_j w^3, so code that needs both passes one instance to each and then
    drops it.  Sequences are never changed in place, so a result served
    again is the value a fresh product would give, bit for bit.
    """

    zero = None

    def __init__(self, cfg: PrimaryConfig):
        self.masses = tuple(cfg.masses)
        self.positions = tuple(cfg.position(j) for j in range(3))
        self._table = {}

    def _kept(self, make, *operands):
        """make(*operands), made once per table and operand identities."""
        key = (make, *map(id, operands))
        hit = self._table.get(key)
        if hit is None:
            hit = self._table[key] = (make(*operands), operands)
        return hit[0]

    def mul(self, b, c, cap):
        return self._kept(conv, b, c)

    @staticmethod
    def sum(*seqs):
        out = None
        for g in seqs:
            if g is not None:
                out = g if out is None else out.add(g)
        return out

    @staticmethod
    def scale(g, c):
        return g.scale(c)

    def shift(self, g, p):
        return self._kept(_minus_const, g, p)

    @staticmethod
    def neg(g):
        return g.neg()

    @staticmethod
    def truncate(g, cap):
        return g

    layer = truncate


def _minus_const(g: FourierSeq, p: Interval) -> FourierSeq:
    return g.sub(_const_seq(p, g.nu))


def embedded_field(ar, a, cap: int):
    """All Taylor layers through total order cap of the embedded field map.

    a is a 9-tuple of grids of the arithmetic ar.  With u = (x, x', y, y',
    z, z', w_1, w_2, w_3), d_j = (x, y, z) - p_j and s = sum_j m_j d_j w_j^3
    the field is (x', x + 2 y' - s_x, y', y - 2 x' - s_y, z', -s_z, t_1,
    t_2, t_3) with t_j = -(d_j . (x', y', z')) w_j^3.
    """
    s2 = s4 = s6 = ar.zero
    tails = []
    for j in range(3):
        px, py, pz = ar.positions[j]
        mj = ar.masses[j]
        w = a[6 + j]
        w3 = ar.mul(ar.mul(w, w, cap), w, cap)
        qx = ar.mul(ar.shift(a[0], px), w3, cap)
        qy = ar.mul(ar.shift(a[2], py), w3, cap)
        qz = ar.mul(ar.shift(a[4], pz), w3, cap)
        s2 = ar.sum(s2, ar.scale(qx, mj))
        s4 = ar.sum(s4, ar.scale(qy, mj))
        s6 = ar.sum(s6, ar.scale(qz, mj))
        tails.append(ar.neg(ar.sum(ar.mul(qx, a[1], cap), ar.mul(qy, a[3], cap),
                                   ar.mul(qz, a[5], cap))))
    lin = [ar.truncate(f, cap) for f in a]
    return (
        lin[1],
        ar.sum(ar.scale(lin[3], 2.0), lin[0], ar.neg(s2)),
        lin[3],
        ar.sum(ar.scale(lin[1], -2.0), lin[2], ar.neg(s4)),
        lin[5],
        ar.neg(s6),
        *tails,
    )


# (row, column, value) of the constant part of the field derivative
_DF_CONST = ((0, 1, 1.0), (1, 0, 1.0), (1, 3, 2.0), (2, 3, 1.0),
             (3, 1, -2.0), (3, 2, 1.0), (4, 5, 1.0))


def field_derivative(ar, a0):
    """(const, kernels) of the derivative of the order-zero field map at a0.

    a0 is a 9-tuple of order-zero grids of the arithmetic ar.  Entry (i, j)
    acts as const[i][j] h_j + kernels[i][j] * h_j, where the kernel is a
    layer-zero sequence of ar (None when absent).
    """
    const = [[0.0] * 9 for _ in range(9)]
    for i, j, c in _DF_CONST:
        const[i][j] = c
    kernels = [[None] * 9 for _ in range(9)]
    csum = ar.zero
    for j in range(3):
        mj = ar.masses[j]
        w = a0[6 + j]
        sq = ar.mul(w, w, 0)
        cube = ar.mul(sq, w, 0)
        d = [ar.shift(a0[2 * c], p) for c, p in enumerate(ar.positions[j])]
        v = (a0[1], a0[3], a0[5])
        csum = ar.sum(csum, ar.scale(cube, mj))
        for c in range(3):
            kernels[1 + 2 * c][6 + j] = ar.scale(ar.mul(d[c], sq, 0), mj * -3.0)
            kernels[6 + j][2 * c] = ar.neg(ar.mul(v[c], cube, 0))
            kernels[6 + j][2 * c + 1] = ar.neg(ar.mul(d[c], cube, 0))
        wv = ar.sum(*[ar.mul(d[c], v[c], 0) for c in range(3)])
        kernels[6 + j][6 + j] = ar.scale(ar.mul(wv, sq, 0), -3.0)
    for i in (1, 3, 5):
        kernels[i][i - 1] = ar.neg(csum)
    kernels = [[None if k is None else ar.layer(k, (0, 0)) for k in row]
               for row in kernels]
    return const, kernels


def field_F_grid(a, ar: IntervalArith):
    """The embedded field map on nine order-zero sequences, as nine sequences,
    in the IntervalArith ar, whose products the call shares."""
    return embedded_field(ar, _nine(a, "sequence"), 0)


class DF0:
    """Derivative of the order-zero field map at a fixed 9-vector of sequences.

    Entry (i, j) acts as const[i][j] h_j plus the convolution of h_j with
    kernel (i, j) of `field_derivative`; rows and columns are indexed 0..8.
    It holds each kernel as discs (midpoint, radius) of its endpoint
    enclosure, converted once here, which `apply` convolves with.
    """

    __slots__ = ("const", "discs")

    def __init__(self, const, kernels):
        # the constants are 1, 2 and -2 (`_DF_CONST`): their multiples are exact
        if any(c != 0.0 and abs(math.frexp(c)[0]) != 0.5 for row in const for c in row):
            raise ValueError("DF0 constants must be powers of two")
        self.const = const
        self.discs = [[None if k is None else (k.c.mid(), k.c.rad()) for k in row]
                      for row in kernels]

    def apply(self, h):
        """DF0 h for nine point arrays h_j of odd length, modes in ascending
        order along the last axis, as nine discs (mid, rad).  The h_j may be
        stacks of sequences, one per stage of a batch, with the same leading
        axes; the discs then have them too.

        Each kernel product is one `cconv_mr` of the kernel's discs with
        h_j, the whole stack at once, and each row sums its entries with
        `mr_add` in the order (constant, kernel) per column j.  An h_j that
        is zero in every sequence contributes nothing, and a constant
        multiple is exact, so a row of one such multiple has radius zero.
        Each row keeps the length of its longest entry, a skipped one
        included.  Every step acts on each sequence of a stack as on that
        sequence alone, so a stage gets the bits it gets in a batch of one
        when the batch has the same h_j zero throughout, as the jets of a
        level have: they share their class of Q.
        """
        if len(h) != 9:
            raise ValueError("expected 9 coefficient arrays")
        out = []
        for i in range(9):
            acc = None
            nlen = 1
            for j in range(9):
                c = self.const[i][j]
                ker = self.discs[i][j]
                hj = np.asarray(h[j])
                nh = hj.shape[-1]
                if c != 0.0:
                    nlen = max(nlen, nh)
                if ker is not None:
                    nlen = max(nlen, len(ker[0]) + nh - 1)
                if not np.any(hj):
                    continue
                terms = []
                if c != 0.0:
                    terms.append((c * hj, np.zeros(hj.shape)))
                if ker is not None:
                    terms.append(cconv_mr(ker[0], ker[1], hj, None))
                for tm, tr in terms:
                    acc = [tm, tr] if acc is None else mr_add(*acc, tm, tr)
            lead = np.shape(h[0])[:-1]
            if acc is None:
                acc = [np.zeros(lead + (1,), dtype=complex), np.zeros(lead + (1,))]
            pad = [(0, 0)] * len(lead) + [((nlen - acc[0].shape[-1]) // 2,) * 2]
            out.append((np.pad(acc[0], pad), np.pad(acc[1], pad)))
        return out


# ---------------------------------------------------------------------------
# phase and initialization conditions


@dataclass(frozen=True)
class PhaseAnchor:
    """Reference point and transversal direction for the orbit phase.

    u0 is a point near the orbit at angle zero; u1 is the embedded field
    there, frozen to exact floats so reruns see identical constants
    (`seeding.phase_anchor` makes it).
    """

    u0: tuple
    u1: tuple

    def __post_init__(self):
        if len(self.u0) != 9 or len(self.u1) != 9:
            raise ValueError("anchor points must be 9-vectors")
        object.__setattr__(self, "u0", tuple(float(t) for t in self.u0))
        object.__setattr__(self, "u1", tuple(float(t) for t in self.u1))


def _mode_sum(s: FourierSeq) -> ComplexInterval:
    """Enclosure of the value at angle zero, the plain sum of all modes."""
    re = Interval(down_sum(s.c.rl), up_sum(s.c.rh))
    im = Interval(down_sum(s.c.il), up_sum(s.c.ih))
    return ComplexInterval(re, im)


def eta_terms(g, anchor: PhaseAnchor, positions):
    """(values, gradient) of the phase and initialization conditions at the
    angle-zero point g (nine scalars) with the primaries at positions.

    Entry 0 pins g to the hyperplane through u0 with normal u1; entries
    1..3 require the reciprocal-distance components to invert the
    distances.  gradient[r] maps a slot i to d eta_r / d g_i.  Only +, - and
    * are used, so complex floats (the Newton map and its Jacobian) and
    `ComplexInterval`s (the certificate) run the same code.
    """
    e0 = 0.0
    for i in range(9):
        e0 = e0 + (anchor.u0[i] - g[i]) * anchor.u1[i]
    values = [e0]
    gradient = [{i: -anchor.u1[i] for i in range(9)}]
    for j, (px, py, pz) in enumerate(positions):
        dx, dy, dz = g[0] - px, g[2] - py, g[4] - pz
        d2 = dx * dx + dy * dy + dz * dz
        w2 = g[6 + j] * g[6 + j]
        values.append(d2 * w2 - 1.0)
        gradient.append({0: dx * w2 * 2.0, 2: dy * w2 * 2.0, 4: dz * w2 * 2.0,
                         6 + j: d2 * g[6 + j] * 2.0})
    return values, gradient


def xi_phase(a_alpha, k0: int, xi0: float) -> ComplexInterval:
    """Bundle-phase scalar fixing the scaling of a first-order layer."""
    if k0 < 1:
        raise ValueError("k0 must be at least 1")
    a_alpha = _nine(a_alpha, "sequence")
    tot = CZERO
    for s in a_alpha:
        part = CZERO
        for k in range(-(k0 - 1), k0):
            part = part + s.at(k)
        tot = tot + part * part
    return tot - float(xi0)
