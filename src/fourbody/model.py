"""Equilateral four body model.

Three primaries with masses m1 >= m2 >= m3 > 0 (normalized to sum 1) sit at
the vertices of a unit equilateral triangle rotating uniformly about the
center of mass; a fourth massless particle moves in their field.  In the
co-rotating frame the primaries are fixed and the dynamics has a conserved
Jacobi integral.

This module supplies the geometry (closed-form primary positions), the
classical 6D vector field, a polynomial 9D embedding obtained by appending
the three reciprocal distances as new variables, the Jacobi integral in both
coordinate systems, and the coefficient-space versions of the embedded field
that act on Fourier and Fourier-Taylor data.

The degree-5 embedded field is written once, in `embedded_field`, and its
order-zero derivative once, in `field_derivative`.  Both run over a
pluggable arithmetic: endpoint intervals here (`IntervalArith`), floats in
`numerics`, and the midpoint-radius and norm/radius grids of `stages`.  On
top of the interval arithmetic sit the per-order field map, its derivative
at an order-zero sequence, the order-alpha remainder (everything in the
alpha layer not involving the alpha coefficient itself), the orbit
unfolding term, and the scalar phase/initialization conditions.  Inputs are
immutable, so all operations are safe to run in parallel across Taylor
orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .interval import (
    CZERO,
    ComplexInterval,
    Interval,
    IntervalDomainError,
    ZERO,
    _as_iv,
)
from .ivarray import CArr, down_sum, up_sum
from .seqspace import (
    FourierSeq,
    FourierTaylorSeq,
    WeightMismatch,
    conv,
    ft_conv,
)

__all__ = [
    "DegenerateMassCombination",
    "CollisionSingularity",
    "MissingLowerOrderData",
    "OrderTooLow",
    "MassTriple",
    "PrimaryConfig",
    "PhaseAnchor",
    "interval_from_rational",
    "mass_combination",
    "primaries",
    "field_f",
    "embed_R",
    "field_F",
    "jacobi",
    "jacobi_embedded",
    "IntervalArith",
    "embedded_field",
    "field_derivative",
    "field_F_grid",
    "field_F_seq",
    "DF0",
    "dF0",
    "dF0_apply",
    "remainder_Ralpha",
    "unfold_orbit_G",
    "eta_phase",
    "xi_phase",
]


class DegenerateMassCombination(ValueError):
    """The mass combination K cannot be bounded away from zero."""


class CollisionSingularity(ArithmeticError):
    """A distance to a primary cannot be bounded away from zero."""


class MissingLowerOrderData(ValueError):
    """A grid lacks Taylor layers required by the requested order."""


class OrderTooLow(ValueError):
    """The remainder is only defined for orders two and higher."""


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
    """Interval positions of the three primaries plus their masses.

    collision_tol widens the forbidden neighborhoods of the primaries: a
    distance enclosure whose square dips to collision_tol**2 or below is
    treated as a collision.
    """

    masses: MassTriple
    p1: tuple
    p2: tuple
    p3: tuple
    collision_tol: float = 0.0

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
            side = d12.intersect(d13).intersect(d23)
        except IntervalDomainError:
            raise ValueError("primaries are not equilateral within enclosure")
        object.__setattr__(self, "_side2", side)

    @staticmethod
    def _dist2(p, q) -> Interval:
        return sum(((p[i] - q[i]).pow_int(2) for i in range(3)), ZERO)

    def position(self, j: int):
        """Primary j in {0,1,2} as an (x, y, z) interval triple."""
        return (self.p1, self.p2, self.p3)[j]

    def side_squared(self) -> Interval:
        """Common enclosure of the three squared side lengths."""
        return self._side2

    def mid_positions(self):
        """Float midpoints, one row per primary."""
        return [[c.mid for c in self.position(j)] for j in range(3)]


_SQRT3 = Interval(3.0).sqrt()


def mass_combination(m: MassTriple) -> Interval:
    """The scalar K whose sign fixes the orientation of the triangle."""
    return m.m2 * (m.m3 - m.m2) + m.m1 * (m.m2 + m.m3 * 2.0)


def primaries(m: MassTriple, collision_tol: float = 0.0) -> PrimaryConfig:
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
        collision_tol=collision_tol,
    )


# ---------------------------------------------------------------------------
# point fields


def _iv_vec(u, n: int):
    if len(u) != n:
        raise ValueError("expected a %d-vector" % n)
    out = []
    for t in u:
        v = _as_iv(t)
        if v is NotImplemented:
            raise TypeError("expected real scalars or intervals")
        out.append(v)
    return out


def _reciprocal_distances(x, y, z, cfg: PrimaryConfig):
    """Enclosures of 1/r_j; raises when some r_j may vanish."""
    tol2 = cfg.collision_tol * cfg.collision_tol
    out = []
    for j in range(3):
        px, py, pz = cfg.position(j)
        r2 = (x - px).pow_int(2) + (y - py).pow_int(2) + (z - pz).pow_int(2)
        if r2.lo <= tol2:
            raise CollisionSingularity("distance to primary %d may vanish" % (j + 1))
        out.append(Interval(1.0) / r2.sqrt())
    return out


def field_f(u, cfg: PrimaryConfig):
    """The classical first-order field on (x, x', y, y', z, z')."""
    x, vx, y, vy, z, vz = _iv_vec(u, 6)
    gx, gy, gz = x, y, ZERO
    for j in range(3):
        px, py, pz = cfg.position(j)
        dx, dy, dz = x - px, y - py, z - pz
        r2 = dx.pow_int(2) + dy.pow_int(2) + dz.pow_int(2)
        if r2.lo <= cfg.collision_tol * cfg.collision_tol:
            raise CollisionSingularity("distance to primary %d may vanish" % (j + 1))
        r3 = r2 * r2.sqrt()
        mj = cfg.masses[j]
        gx = gx - mj * dx / r3
        gy = gy - mj * dy / r3
        gz = gz - mj * dz / r3
    return (vx, vy * 2.0 + gx, vy, vx * (-2.0) + gy, vz, gz)


def embed_R(u, cfg: PrimaryConfig):
    """Append the three reciprocal distances as coordinates 7..9."""
    x, vx, y, vy, z, vz = _iv_vec(u, 6)
    w = _reciprocal_distances(x, y, z, cfg)
    return (x, vx, y, vy, z, vz, w[0], w[1], w[2])


def field_F(u, cfg: PrimaryConfig):
    """Degree-five polynomial field on the 9D embedded phase space."""
    u = _iv_vec(u, 9)
    s2 = s4 = s6 = ZERO
    tail = []
    for j in range(3):
        px, py, pz = cfg.position(j)
        dx, dy, dz = u[0] - px, u[2] - py, u[4] - pz
        w3 = u[6 + j].pow_int(3)
        mj = cfg.masses[j]
        s2 = s2 + mj * dx * w3
        s4 = s4 + mj * dy * w3
        s6 = s6 + mj * dz * w3
        tail.append(-(dx * u[1] + dy * u[3] + dz * u[5]) * w3)
    return (
        u[1],
        u[3] * 2.0 + u[0] - s2,
        u[3],
        u[1] * (-2.0) + u[2] - s4,
        u[5],
        -s6,
        tail[0],
        tail[1],
        tail[2],
    )


def jacobi(u, cfg: PrimaryConfig) -> Interval:
    """Jacobi integral in the original coordinates."""
    x, vx, y, vy, z, vz = _iv_vec(u, 6)
    w = _reciprocal_distances(x, y, z, cfg)
    pot = sum((cfg.masses[j] * w[j] for j in range(3)), ZERO)
    return (
        x.pow_int(2)
        + y.pow_int(2)
        + pot * 2.0
        - vx.pow_int(2)
        - vy.pow_int(2)
        - vz.pow_int(2)
    )


def jacobi_embedded(u, cfg: PrimaryConfig) -> Interval:
    """Jacobi integral as a polynomial in the embedded coordinates."""
    u = _iv_vec(u, 9)
    m = cfg.masses
    pot = m.m1 * u[6] + m.m2 * u[7] + m.m3 * u[8]
    return (
        u[0].pow_int(2)
        + u[2].pow_int(2)
        + pot * 2.0
        - u[1].pow_int(2)
        - u[3].pow_int(2)
        - u[5].pow_int(2)
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


def _const_seq(c, nu: float) -> FourierSeq:
    """The constant sequence c (an Interval, a ComplexInterval or a complex)."""
    if isinstance(c, Interval):
        c = ComplexInterval(c, ZERO)
    elif not isinstance(c, ComplexInterval):
        c = ComplexInterval.point(complex(c))
    return FourierSeq(CArr.from_civ_list([c]), nu)


# An arithmetic is an object with the operations the embedded field is built
# from, each acting on coefficient grids in its own representation:
#
#   zero                the empty grid; every sum starts from it
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
    """Endpoint-interval FourierTaylorSeq grids: the reference semantics."""

    def __init__(self, cfg: PrimaryConfig, nu: float):
        self.masses = tuple(cfg.masses)
        self.positions = tuple(cfg.position(j) for j in range(3))
        self.zero = FourierTaylorSeq.zeros(nu)

    mul = staticmethod(ft_conv)

    @staticmethod
    def sum(*grids):
        out = grids[0]
        for g in grids[1:]:
            out = out.add(g)
        return out

    @staticmethod
    def scale(g, c):
        return g.scale(c)

    @staticmethod
    def shift(g, p):
        return g.with_layer(0, 0, g.layer(0, 0).sub(_const_seq(p, g.nu)))

    @staticmethod
    def neg(g):
        return g.neg()

    @staticmethod
    def truncate(g, cap):
        return g.truncate(cap)

    @staticmethod
    def layer(g, alpha):
        return g.layer(*alpha)


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


def field_F_grid(a, cfg: PrimaryConfig, cap: int):
    """All Taylor layers of the embedded field map through total order cap."""
    a = _nine(a, "grid")
    return embedded_field(IntervalArith(cfg, a[0].nu), a, cap)


def field_F_seq(a, alpha, cfg: PrimaryConfig):
    """Layer alpha of the embedded field map on a Fourier-Taylor grid."""
    a = _nine(a, "grid")
    mo, no = int(alpha[0]), int(alpha[1])
    order = mo + no
    if max(f.order() for f in a) < order:
        raise MissingLowerOrderData(
            "grids carry orders below %d only" % order
        )
    grid = field_F_grid(a, cfg, cap=order)
    return tuple(g.layer(mo, no) for g in grid)


class DF0:
    """Derivative of the order-zero field map at a fixed 9-vector of sequences.

    Every entry is (constant multiple) + (convolution against a stored
    sequence); rows and columns are indexed 0..8.  The same table later
    feeds both the sequence-space application and finite matrix blocks.
    """

    __slots__ = ("const", "kernels", "nu")

    def __init__(self, const, kernels, nu: float):
        self.const = const
        self.kernels = kernels
        self.nu = nu

    def apply(self, h):
        h = _nine(h, "sequence")
        if h[0].nu != self.nu:
            raise WeightMismatch("argument nu differs from derivative nu")
        out = []
        for i in range(9):
            acc = FourierSeq.zeros(1, self.nu)
            for j in range(9):
                c = self.const[i][j]
                if c != 0.0:
                    acc = acc.add(h[j].scale(c))
                ker = self.kernels[i][j]
                if ker is not None:
                    acc = acc.add(conv(ker, h[j]))
            out.append(acc)
        return tuple(out)


def dF0(a0, cfg: PrimaryConfig) -> DF0:
    """Assemble the derivative table of the order-zero field map at a0."""
    a0 = _nine(a0, "sequence")
    nu = a0[0].nu
    grids = [FourierTaylorSeq({(0, 0): s}, nu) for s in a0]
    const, kernels = field_derivative(IntervalArith(cfg, nu), grids)
    return DF0(const, kernels, nu)


def dF0_apply(a0, h, cfg: PrimaryConfig):
    """Derivative of the order-zero field map at a0 applied to h."""
    return dF0(a0, cfg).apply(h)


def remainder_Ralpha(a, alpha, cfg: PrimaryConfig):
    """Layer-alpha terms of the field map not involving the alpha coefficient.

    Dropping every layer of total order |alpha| and reading layer alpha of
    the full product keeps exactly the splittings in which no factor sits at
    alpha, so the output solves

        (field layer alpha) = (derivative at order zero)(a_alpha) + R_alpha

    and is bitwise independent of whatever a_alpha the input carried.
    """
    a = _nine(a, "grid")
    mo, no = int(alpha[0]), int(alpha[1])
    order = mo + no
    if order < 2:
        raise OrderTooLow("remainder defined for total order >= 2")
    low = tuple(f.truncate(order - 1) for f in a)
    grid = field_F_grid(low, cfg, cap=order)
    return tuple(g.layer(mo, no) for g in grid)


# ---------------------------------------------------------------------------
# unfolding terms


def unfold_orbit_G(y, a0):
    """Four-parameter unfolding appended to the periodic-orbit equations.

    Slot 2 carries y1 times the second component; slots 7..9 carry y2..y4
    times the cubes of the reciprocal-distance components.
    """
    a0 = _nine(a0, "sequence")
    if len(y) != 4:
        raise ValueError("expected 4 unfolding parameters")
    nu = a0[0].nu
    zero = FourierSeq.zeros(1, nu)
    out = [zero] * 9
    out[1] = a0[1].scale(y[0])
    for j in range(3):
        w = a0[6 + j]
        out[6 + j] = conv(conv(w, w), w).scale(y[1 + j])
    return tuple(out)


# ---------------------------------------------------------------------------
# phase and initialization conditions


@dataclass(frozen=True)
class PhaseAnchor:
    """Reference point and transversal direction for the orbit phase.

    u0 is a point near the orbit at angle zero; u1 is the embedded field
    there, frozen to exact floats so reruns see identical constants.
    """

    u0: tuple
    u1: tuple

    def __post_init__(self):
        if len(self.u0) != 9 or len(self.u1) != 9:
            raise ValueError("anchor points must be 9-vectors")
        object.__setattr__(self, "u0", tuple(float(t) for t in self.u0))
        object.__setattr__(self, "u1", tuple(float(t) for t in self.u1))

    @classmethod
    def from_u0(cls, u0, cfg: PrimaryConfig) -> "PhaseAnchor":
        F = field_F(u0, cfg)
        return cls(tuple(float(t) for t in u0), tuple(v.mid for v in F))


def _mode_sum(s: FourierSeq) -> ComplexInterval:
    """Enclosure of the value at angle zero, the plain sum of all modes."""
    re = Interval(down_sum(s.c.rl), up_sum(s.c.rh))
    im = Interval(down_sum(s.c.il), up_sum(s.c.ih))
    return ComplexInterval(re, im)


def eta_phase(a0, anchor: PhaseAnchor, cfg: PrimaryConfig):
    """Phase and initialization conditions for the order-zero sequence.

    Entry 1 pins the angle-zero point to the hyperplane through u0 with
    normal u1; entries 2..4 require the reciprocal-distance components to
    actually invert the distances at angle zero.
    """
    a0 = _nine(a0, "sequence")
    g = [_mode_sum(s) for s in a0]
    e1 = CZERO
    for i in range(9):
        e1 = e1 + (ComplexInterval.point(complex(anchor.u0[i])) - g[i]) * anchor.u1[i]
    out = [e1]
    for j in range(3):
        px, py, pz = cfg.position(j)
        dx = g[0] - px
        dy = g[2] - py
        dz = g[4] - pz
        d2 = dx * dx + dy * dy + dz * dz
        out.append(d2 * (g[6 + j] * g[6 + j]) - 1.0)
    return tuple(out)


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
