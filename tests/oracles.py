"""Independent oracles and input builders shared by the tests.

The rational oracles work over fractions.Fraction, so their results are
exact and make no reference to the code under test.  Complex rationals are
(re, im) Fraction pairs.  `carr_conv_reference` is the plain
per-coefficient loop of the endpoint interval convolution, the bit-level
definition the batched kernel must reproduce.  `cconv_mr_pair` is the
midpoint-radius convolution in five convolutions, the reference of
`ivarray.cconv_mr`: its midpoints must be equal bit for bit, its radii no
looser.  `field_f`, `embed_R` and `jacobi` are the classical point field,
the reciprocal-distance embedding and the Jacobi integral in the original
coordinates, which the embedded field is checked against;
`jacobi_embedded` is that integral as a polynomial in the embedded
coordinates, in intervals.
`FourierTaylorSeq`, `ft_conv` and `IntervalArith` are the multi-layer
interval reference: Fourier-Taylor grids in endpoint intervals, of which
order 0 of `model` is layer (0, 0).  `field_F_seq`, `dF0_apply` and
`remainder_Ralpha` are per-layer views of that field map that the model
tests check against each other (`dF0_apply` reads `model.DF0.apply`'s
discs as boxes, `disc_boxes`), and `unfold_orbit_G` is the orbit's
unfolding term that order 0 assembles from its cubes.
`endpoint_residual` is the residual of order 1 or of a jet in endpoint
arithmetic, the reference for the disc residual of `stages`.  `orbit_enclosure`,
`bundle_enclosure` and `base_enclosure` enclose the window block of
DF(x_bar) of a stage entry by entry, in endpoint lanes, the reference for
the window defect of `stages`; `complex_inverse` inverts a window block in
complex arithmetic, the reference for the cos/sin inverse of `stages`.
`monodromy_exponents` integrates the six-dimensional variational flow over
one period, the reference for the Floquet exponents that seeding reads off
the Hill matrix.  `planar_equilibria_hybr` is the rest-point search by hybr
solves (`scipy.optimize.root`) from the grid of starts of
`seeding.planar_equilibria`, which can miss rest points: the reference for
the ones it finds.  `rest_point` names a rest point of
`seeding.planar_equilibria` by its position, not by its index in the list,
and `REFERENCE_REST_POINT` is the one whose vertical family the reference
runs continue.  The builders at
the end make interval inputs: an interval from midpoint and radius, an
array widened by a radius, and a Fourier sequence from a dict of modes;
`width` reads the size of an interval.
`grid_scan` is the radius search that evaluates P at every grid point below
the cap, the reference for the bisection of `radii`, and
`certify_jet_alone` certifies one jet on its own, with that scan, the
reference for the batched certificates of a level in `stages`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import root

from fourbody import model, numerics, seeding, stages
from fourbody.interval import ZERO, ComplexInterval, Interval, _as_iv, add_down, add_up
from fourbody.interval import IntervalDomainError
from fourbody.ivarray import (
    CArr, cmat_abs_up, cmm, ri_add, up_sum, _CONV_BLOCK, _ETA, _U, _dn, _gemm_gamma,
    _shift_products, _step_up_in_place, _up, _up_factor,
)
from fourbody.model import _const_seq, _mode_sum, embedded_field, eta_terms
from fourbody.opbound import (SpaceLayout, block_norms, cos_sin_form, group_vec_norms,
                              opnorm_upper, run_pairs, seq_tail_weighted, window_runs)
from fourbody.radii import (Certificate, NKBounds, NoNegativeRadius, _candidate_grid,
                            verify_negative)
from fourbody.seqspace import FourierSeq, WeightMismatch, conv, project


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
    """Full convolution out_k = sum_i a_i b_{k-i}, one shift i at a time;
    IntervalDomainError when a sum is not finite."""
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
    # the sums went into out's lanes in place; a new CArr checks them, so an
    # overflowing sum raises IntervalDomainError as in carr_conv
    return CArr(out.rl, out.rh, out.il, out.ih)


def carr_conv_blocked(a: CArr, b: CArr) -> CArr:
    """The blocked endpoint kernel `ivarray.carr_conv` was before it skipped
    the point-zero products: every shift i and every entry of b, a block of
    shifts at a time, each added into the output in increasing i."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return CArr.zeros(0)
    if n > m:
        a, b = b, a
        n, m = m, n
    if not (b.rl.any() or b.rh.any() or b.il.any() or b.ih.any()):
        return CArr.zeros(n + m - 1)
    A = np.array((a.rl, a.rh, a.il, a.ih))
    B = np.array((b.rl, b.rh, b.il, b.ih))
    pz_a = np.equal(A[0::2], 0.0) & np.equal(A[1::2], 0.0)
    pz_b = np.equal(B[0::2], 0.0) & np.equal(B[1::2], 0.0)
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
        if (np.add(prod[0], prod[1]) < 0.0).any():
            raise IntervalDomainError("inverted product in carr_conv")
        nonzero = ~pzero
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


def cconv_mr_pair(am, ar, bm, br):
    """Disc enclosure of one full convolution, five convolutions: the
    midpoint, g |a| |b| and, with any radius lane, |a| r_b + r_a |b| + r_a r_b
    (a None lane read as zero); one _up_factor(n) and _ETA n per pair."""
    am = np.asarray(am, dtype=complex)
    bm = np.asarray(bm, dtype=complex)
    n = min(am.size, bm.size)
    g = 2.0 * _gemm_gamma(n)
    cm = np.convolve(am, bm)
    absa = np.abs(am) * (1.0 + 4.0 * _U)
    absb = np.abs(bm) * (1.0 + 4.0 * _U)
    cr = g * np.convolve(absa, absb)
    if ar is not None or br is not None:
        ar = np.zeros(am.shape) if ar is None else ar
        br = np.zeros(bm.shape) if br is None else br
        cr = cr + np.convolve(absa, br) + np.convolve(ar, absb) + np.convolve(ar, br)
    return cm, cr * _up_factor(n) + _ETA * n


# ---------------------------------------------------------------------------
# the classical point field


class CollisionSingularity(ArithmeticError):
    """A distance to a primary cannot be bounded away from zero."""


def _reciprocal_distances(x, y, z, cfg):
    """Enclosures of 1/r_j; raises when some r_j may vanish."""
    out = []
    for j in range(3):
        px, py, pz = cfg.position(j)
        r2 = (x - px).pow_int(2) + (y - py).pow_int(2) + (z - pz).pow_int(2)
        if r2.lo <= 0.0:
            raise CollisionSingularity("distance to primary %d may vanish" % (j + 1))
        out.append(Interval(1.0) / r2.sqrt())
    return out


def field_f(u, cfg):
    """The classical first-order field on (x, x', y, y', z, z')."""
    x, vx, y, vy, z, vz = _iv_vec(u, 6)
    gx, gy, gz = x, y, ZERO
    for j in range(3):
        px, py, pz = cfg.position(j)
        dx, dy, dz = x - px, y - py, z - pz
        r2 = dx.pow_int(2) + dy.pow_int(2) + dz.pow_int(2)
        if r2.lo <= 0.0:
            raise CollisionSingularity("distance to primary %d may vanish" % (j + 1))
        r3 = r2 * r2.sqrt()
        mj = cfg.masses[j]
        gx = gx - mj * dx / r3
        gy = gy - mj * dy / r3
        gz = gz - mj * dz / r3
    return (vx, vy * 2.0 + gx, vy, vx * (-2.0) + gy, vz, gz)


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


def embed_R(u, cfg):
    """Append the three reciprocal distances as coordinates 7..9."""
    x, vx, y, vy, z, vz = _iv_vec(u, 6)
    w = _reciprocal_distances(x, y, z, cfg)
    return (x, vx, y, vy, z, vz, w[0], w[1], w[2])


def jacobi(u, cfg) -> Interval:
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


def jacobi_embedded(u, cfg) -> Interval:
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
# Fourier-Taylor grids in endpoint intervals: the multi-layer reference


class FourierTaylorSeq:
    """Finite table alpha = (m, n) -> FourierSeq, all sharing one nu, normed
    by the sum of the layer norms."""

    __slots__ = ("entries", "nu")

    def __init__(self, entries: dict, nu: float):
        self.nu = float(nu)
        if any(seq.nu != self.nu for seq in entries.values()):
            raise WeightMismatch("layer nu differs from grid nu")
        # the layers in sorted order: `ft_conv` folds its products in it
        self.entries = dict(sorted(entries.items()))

    @classmethod
    def zeros(cls, nu: float) -> "FourierTaylorSeq":
        return cls({}, nu)

    def layer(self, m: int, n: int) -> FourierSeq:
        seq = self.entries.get((m, n))
        return FourierSeq.zeros(1, self.nu) if seq is None else seq

    def order(self) -> int:
        return max((m + n for (m, n) in self.entries), default=0)

    def with_layer(self, m: int, n: int, seq: FourierSeq) -> "FourierTaylorSeq":
        return FourierTaylorSeq({**self.entries, (m, n): seq}, self.nu)

    def add(self, o: "FourierTaylorSeq") -> "FourierTaylorSeq":
        d = dict(self.entries)
        for key, seq in o.entries.items():
            d[key] = seq if key not in d else d[key].add(seq)
        return FourierTaylorSeq(d, self.nu)

    def neg(self) -> "FourierTaylorSeq":
        return FourierTaylorSeq({k: s.neg() for k, s in self.entries.items()}, self.nu)

    def scale(self, z) -> "FourierTaylorSeq":
        return FourierTaylorSeq({k: s.scale(z) for k, s in self.entries.items()}, self.nu)

    def truncate(self, cap: int) -> "FourierTaylorSeq":
        return FourierTaylorSeq(
            {k: s for k, s in self.entries.items() if k[0] + k[1] <= cap}, self.nu)

    def norm_upper(self) -> float:
        return up_sum(np.array([seq.norm_upper() for seq in self.entries.values()]))


def ft_conv(b: FourierTaylorSeq, c: FourierTaylorSeq, cap: int | None = None) -> FourierTaylorSeq:
    """Cauchy-convolution product: convolve layers over all alpha splits."""
    if b.nu != c.nu:
        raise WeightMismatch
    out: dict = {}
    for (m1, n1), s1 in b.entries.items():
        for (m2, n2), s2 in c.entries.items():
            key = (m1 + m2, n1 + n2)
            if cap is not None and key[0] + key[1] > cap:
                continue
            p = conv(s1, s2)
            prev = out.get(key)
            out[key] = p if prev is None else prev.add(p)
    return FourierTaylorSeq(out, b.nu)


class IntervalArith:
    """`FourierTaylorSeq` grids for `model.embedded_field`: the multi-layer
    arithmetic whose layer (0, 0) is `model.IntervalArith`."""

    def __init__(self, cfg, nu: float):
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


def field_F_ft(a, cfg, cap: int):
    """All layers through total order cap of the embedded field map on nine
    `FourierTaylorSeq` grids."""
    return embedded_field(IntervalArith(cfg, a[0].nu), a, cap)


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
    return tuple(g.layer(*alpha) for g in field_F_ft(a, cfg, order))


def disc_boxes(m, r) -> CArr:
    """Endpoint boxes of the discs |z - m_k| <= r_k, rounded outward; a
    disc with r_k = 0 is the point m_k, without widening."""
    m = np.asarray(m, dtype=complex)
    r = np.asarray(r, dtype=float)
    exact = r == 0.0
    return CArr(np.where(exact, m.real, _dn(m.real - r)),
                np.where(exact, m.real, _up(m.real + r)),
                np.where(exact, m.imag, _dn(m.imag - r)),
                np.where(exact, m.imag, _up(m.imag + r)))


def dF0_apply(a0, h, cfg):
    """Derivative of the order-zero field map at a0 applied to the point
    sequences h, as the endpoint boxes of `model.DF0.apply`'s discs."""
    assert all(s.is_point() for s in h)
    D = model.DF0(*model.field_derivative(model.IntervalArith(cfg), a0))
    return [FourierSeq(disc_boxes(m, r), h[0].nu) for m, r in D.apply([s.c.mid() for s in h])]


def endpoint_residual(ctx, centers, s: float, rhs=None):
    """The residual (-omega d_theta - s + DF0) a + R of order 1 (rhs None)
    or of a jet at its point centers, in endpoint arithmetic: DF0 a as the
    boxes of `model.DF0.apply`'s discs, and every other term and sum in
    intervals, in the order each stage once took."""
    nu = ctx.nu
    D = [FourierSeq(disc_boxes(m, r), nu) for m, r in ctx.df0.apply([a.c.mid() for a in centers])]
    out = []
    for i, a in enumerate(centers):
        r = a.dtheta().scale(-ctx.omega)
        if rhs is None:
            r = r.add(D[i]).add(a.scale(-s))
        else:
            r = r.add(a.scale(ComplexInterval(complex(-s)))).add(D[i])
            if rhs[i] is not None:
                r = r.add(FourierSeq.point(rhs[i], nu))
        out.append(r)
    return out


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
    return tuple(g.layer(*alpha) for g in field_F_ft(low, cfg, order))


def eta_phase(a0, anchor, cfg):
    """The phase and initialization conditions of nine sequences: the values
    of `model.eta_terms` at the enclosure of their angle-zero point."""
    g = [_mode_sum(s) for s in a0]
    return tuple(eta_terms(g, anchor, [cfg.position(j) for j in range(3)])[0])


def unfold_orbit_G(y, a0):
    """Four-parameter unfolding appended to the periodic-orbit equations.

    Slot 2 carries y1 times the second component; slots 7..9 carry y2..y4
    times the cubes of the reciprocal-distance components.
    """
    if len(a0) != 9 or len(y) != 4:
        raise ValueError("expected 9 sequences and 4 unfolding parameters")
    out = [FourierSeq.zeros(1, a0[0].nu)] * 9
    out[1] = a0[1].scale(y[0])
    for j in range(3):
        w = a0[6 + j]
        out[6 + j] = conv(conv(w, w), w).scale(y[1 + j])
    return tuple(out)


# ---------------------------------------------------------------------------
# the window block of DF(x_bar), entry by entry


class EnclMat:
    """Endpoint-lane enclosure of a matrix, made by adding its parts."""

    __slots__ = ("rl", "rh", "il", "ih")

    def __init__(self, shape):
        self.rl = np.zeros(shape)
        self.rh = np.zeros(shape)
        self.il = np.zeros(shape)
        self.ih = np.zeros(shape)

    def _add(self, idx, rl, rh, il, ih):
        # an entry that receives one exact term stays exact
        self.rl[idx], self.rh[idx] = ri_add(self.rl[idx], self.rh[idx], rl, rh)
        self.il[idx], self.ih[idx] = ri_add(self.il[idx], self.ih[idx], il, ih)

    def add_toeplitz(self, rsl: slice, csl: slice, seq: FourierSeq, K: int):
        # the window block of convolution by seq: entry (k, l) = seq_{k-l}
        lanes = [numerics.toeplitz_window(a, K) for a in
                 (seq.c.rl, seq.c.rh, seq.c.il, seq.c.ih)]
        self._add((rsl, csl), *lanes)

    def add_diag(self, rsl: slice, csl: slice, rl, rh, il, ih):
        idx = (np.arange(rsl.start, rsl.stop), np.arange(csl.start, csl.stop))
        self._add(idx, rl, rh, il, ih)

    def add_row(self, row: int, cols, c: ComplexInterval):
        self._add((row, cols), c.re.lo, c.re.hi, c.im.lo, c.im.hi)

    def add_col(self, rsl: slice, col: int, c: CArr):
        self._add((rsl, col), c.rl, c.rh, c.il, c.ih)

    def restrict(self, ns: int, slots) -> "EnclMat":
        """The rows and columns of the ns scalars and of the window slots
        `slots` (`opbound.SpaceLayout.slots`)."""
        keep = np.concatenate([np.arange(ns), ns + np.asarray(slots)])
        out = EnclMat((0, 0))
        for lane in self.__slots__:
            setattr(out, lane, getattr(self, lane)[np.ix_(keep, keep)])
        return out

    def corner_abs(self, J: np.ndarray) -> np.ndarray:
        """Entrywise upper bound of sup_{z in box} |z - J| (0 where the box
        is the point J: a float difference is 0 only between equal floats)."""
        rr = np.maximum(np.abs(self.rl - J.real), np.abs(self.rh - J.real))
        ri = np.maximum(np.abs(self.il - J.imag), np.abs(self.ih - J.imag))
        dr, di = _up(rr), _up(ri)
        out = _up(np.sqrt(_up(_up(dr * dr) + _up(di * di))))
        out[(rr == 0.0) & (ri == 0.0)] = 0.0
        return out


def _point(c: ComplexInterval, n: int):
    return (np.full(n, c.re.lo), np.full(n, c.re.hi), np.full(n, c.im.lo), np.full(n, c.im.hi))


def base_enclosure(ctx, ns: int, s: float) -> EnclMat:
    """The window block of DF0 - i omega k - s at the context's centre,
    after ns scalar rows and columns; per block the diagonal -i omega k - s
    (when i = j), then the constant, then the kernel."""
    K, n = ctx.K, 2 * ctx.K - 1
    _, kernels = model.field_derivative(model.IntervalArith(ctx.cfg), ctx.a0)
    E = EnclMat((ns + 9 * n, ns + 9 * n))
    m = ctx.omega * numerics.kvals(K).astype(float)
    re = np.full(n, -s)
    iomega = (re, re, -_up(m), -_dn(m))
    for i in range(9):
        rs = slice(ns + i * n, ns + (i + 1) * n)
        for j in range(9):
            cs = slice(ns + j * n, ns + (j + 1) * n)
            if i == j:
                E.add_diag(rs, cs, *iomega)
            c = ctx.const[i, j]
            if c != 0.0:
                E.add_diag(rs, cs, *_point(ComplexInterval(complex(c)), n))
            ker = kernels[i][j]
            if ker is not None:
                E.add_toeplitz(rs, cs, ker, K)
    return E


def orbit_enclosure(sol, ctx) -> EnclMat:
    """The window block of DF(x_bar) of order 0: the base block with y0 and
    y_j 3 sq_j on the diagonal blocks, the y columns and the eta rows."""
    K, n, ns = ctx.K, 2 * ctx.K - 1, 4
    y = np.asarray(sol.y, dtype=complex)
    E = base_enclosure(ctx, ns, 0.0)
    b1 = slice(ns + n, ns + 2 * n)
    E.add_diag(b1, b1, *_point(ComplexInterval(complex(y[0])), n))
    E.add_col(b1, 0, ctx.a0[1].c)
    for j in range(3):
        w = ctx.a0[6 + j]
        sq = conv(w, w)
        bj = slice(ns + (6 + j) * n, ns + (7 + j) * n)
        E.add_toeplitz(bj, bj, sq.scale(ComplexInterval(complex(y[1 + j])) * 3.0), K)
        E.add_col(bj, 1 + j, project(conv(sq, w), K).c)
    gs = [_mode_sum(a) for a in ctx.a0]
    for i in range(9):
        E.add_row(0, slice(ns + i * n, ns + (i + 1) * n),
                  ComplexInterval(complex(-sol.anchor.u1[i])))
    for j in range(3):
        px, py, pz = ctx.cfg.position(j)
        dxg, dyg, dzg = gs[0] - px, gs[2] - py, gs[4] - pz
        d2 = dxg * dxg + dyg * dyg + dzg * dzg
        gw = gs[6 + j]
        w2 = gw * gw
        for slot, c in {0: dxg * w2 * 2.0, 2: dyg * w2 * 2.0,
                        4: dzg * w2 * 2.0, 6 + j: d2 * gw * 2.0}.items():
            E.add_row(1 + j, slice(ns + slot * n, ns + (slot + 1) * n), c)
    return E


def bundle_enclosure(sol, ctx) -> EnclMat:
    """The window block of DF(x_bar) of order 1: the base block at the shift
    lambda, the -a_1 column and the xi row."""
    K, n, ns = ctx.K, 2 * ctx.K - 1, 1
    E = base_enclosure(ctx, ns, sol.lam)
    for i in range(9):
        a1 = FourierSeq.point(sol.coeffs[i], ctx.nu)
        E.add_col(slice(ns + i * n, ns + (i + 1) * n), 0, a1.c.neg())
        cols = ns + i * n + (K - 1) + np.arange(-(sol.k0 - 1), sol.k0)
        E.add_row(0, cols, _mode_sum(project(a1, sol.k0)) * 2.0)
    return E


def complex_inverse(J: np.ndarray, layout, nu: float):
    """(Jhat, Z0, 0.0) in the shape of `opbound.cos_sin_inverse`, made in the
    Fourier basis: Jhat = inv(J), and Z0 from one complex midpoint-radius
    product of Jhat with J."""
    Jhat = np.linalg.inv(J)
    cm, cr = cmm(Jhat, None, J, None)
    cm[np.diag_indices(layout.n)] -= 1.0
    Z0 = opnorm_upper(block_norms(cmat_abs_up(cm, cr), layout, nu))
    return Jhat, Z0, 0.0


def hill_exponent_whole(cfg, sol, kind: str, Kh: int = 12) -> float:
    """The Floquet exponent of the Hill matrix taken whole: one eig of the
    cos/sin form of the 9 (2 Kh - 1) window block, its pair rows halved, and
    the eigenvalue of the strip |Im lambda| < omega / 2 with the largest
    real part ("unstable") or the smallest ("stable")."""
    ms, pos = numerics.cfg_floats(cfg)
    const, kers = numerics.derivative_kernels(sol.coeffs, ms, pos)
    whole = SpaceLayout(0, Kh)
    B = numerics.base_block(const, kers, whole, -1j * sol.omega * numerics.kvals(Kh))
    M, _ = cos_sin_form(B, whole)
    for run in window_runs(whole):
        for rows in run_pairs(M, *run, 0)[:2]:
            rows *= 0.5
    lams = np.linalg.eigvals(M)
    lams = lams[np.abs(lams.imag) < 0.5 * sol.omega]
    return float((lams.real.max() if kind == "unstable" else lams.real.min()))


# ---------------------------------------------------------------------------
# rest points

# the rest point of the masses 1/2, 3/10, 1/5 whose vertical family the
# reference runs continue
REFERENCE_REST_POINT = (0.07934982096518639, -0.20164146994073998)


def rest_point(cfg, xy, tol: float = 1e-9) -> np.ndarray:
    """The one rest point of `seeding.planar_equilibria` within tol of xy;
    fails if there is none."""
    eqs = seeding.planar_equilibria(cfg)
    near = eqs[np.hypot(*(eqs - np.asarray(xy)).T) <= tol]
    assert len(near) == 1, "no rest point within %g of %r among %r" % (tol, xy, eqs)
    return near[0]


def _grad_planar_point(p, ms, pos):
    x, y = p
    gx, gy = x, y
    for j in range(3):
        dx = x - pos[j][0]
        dy = y - pos[j][1]
        r3 = (dx * dx + dy * dy) ** 1.5
        gx -= ms[j] * dx / r3
        gy -= ms[j] * dy / r3
    return np.array([gx, gy])


def planar_equilibria_hybr(cfg) -> np.ndarray:
    """The rest points that hybr solves find from the 13 x 13 grid of starts
    on [-1.6, 1.6]^2, one solve per start at least 1e-2 from every primary,
    with the acceptance tests of `seeding.planar_equilibria` (max|grad| <=
    1e-10, at least 1e-3 from every primary, points within 1e-7 of an
    earlier one dropped), in ascending x, then y.  The solves miss rest
    points: 7 of the 8 for the masses 1/2, 3/10, 1/5."""
    ms, pos = numerics.cfg_floats(cfg)
    found = []
    grid = np.linspace(-1.6, 1.6, 13)
    for x0 in grid:
        for y0 in grid:
            if min((x0 - p[0]) ** 2 + (y0 - p[1]) ** 2 for p in pos) < 1e-4:
                continue
            sol = root(_grad_planar_point, [x0, y0], args=(ms, pos), method="hybr",
                       tol=1e-14)
            if not sol.success:
                continue
            p = sol.x
            if np.max(np.abs(_grad_planar_point(p, ms, pos))) > 1e-10:
                continue
            if min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for q in pos) < 1e-6:
                continue
            if any(np.hypot(p[0] - f[0], p[1] - f[1]) < 1e-7 for f in found):
                continue
            found.append(p)
    found.sort(key=lambda p: (round(p[0], 9), round(p[1], 9)))
    return np.array(found)


# ---------------------------------------------------------------------------
# Floquet exponents from the variational flow


def _hess_potential(p, ms, pos):
    x, y, z = p
    H = np.zeros((3, 3))
    for j in range(3):
        d = np.array([x - pos[j][0], y - pos[j][1], z])
        r2 = d @ d
        H += ms[j] * (3.0 * np.outer(d, d) / r2 ** 2.5 - np.eye(3) / r2 ** 1.5)
    return H


def _field6(u, ms, pos):
    x, vx, y, vy, z, vz = u
    ax, ay, az = x, y, 0.0
    for j in range(3):
        d = np.array([x - pos[j][0], y - pos[j][1], z])
        r3 = (d @ d) ** 1.5
        ax -= ms[j] * d[0] / r3
        ay -= ms[j] * d[1] / r3
        az -= ms[j] * d[2] / r3
    return np.array([vx, ax + 2.0 * vy, vy, ay - 2.0 * vx, vz, az])


def _jac6(u, ms, pos):
    J = np.zeros((6, 6))
    J[::2, 1::2] = np.eye(3)
    J[1::2, ::2] = _hess_potential((u[0], u[2], u[4]), ms, pos) + np.diag([1.0, 1.0, 0.0])
    J[1, 3], J[3, 1] = 2.0, -2.0
    return J


def monodromy_exponents(cfg, sol):
    """(lambda_stable, lambda_unstable) of an orbit solution: log|mu| / T of
    the smallest and largest multipliers mu of its monodromy matrix, the
    six-dimensional variational flow over one period from the orbit's
    angle-zero point, integrated by DOP853 at rtol 3e-13."""
    ms, pos = numerics.cfg_floats(cfg)

    def rhs(t, yv):
        u = yv[:6]
        dPhi = _jac6(u, ms, pos) @ yv[6:].reshape(6, 6)
        return np.concatenate([_field6(u, ms, pos), dPhi.ravel()])

    T = 2.0 * np.pi / sol.omega
    y0 = np.concatenate([sol.coeffs.sum(axis=1).real[:6], np.eye(6).ravel()])
    out = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=3e-13, atol=1e-13)
    assert out.success, out.message
    mus = np.abs(np.linalg.eigvals(out.y[6:, -1].reshape(6, 6)))
    return np.log(mus.min()) / T, np.log(mus.max()) / T


# ---------------------------------------------------------------------------
# interval input builders


def width(iv: Interval) -> float:
    """hi - lo, rounded to nearest."""
    return iv.hi - iv.lo


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
            v = ComplexInterval(complex(v))
        out.c.rl[i], out.c.rh[i] = v.re.lo, v.re.hi
        out.c.il[i], out.c.ih[i] = v.im.lo, v.im.hi
    return out


def grid_scan(poly, upper: float, cap, stage: str, kind: str, digest: str,
              invertible: bool) -> Certificate:
    """The certificate of the first and the last grid point below the cap
    where P verifies negative, every point evaluated."""
    accepted = [float(r) for r in _candidate_grid(upper)
                if (cap is None or r < cap) and verify_negative(poly, float(r))]
    if not accepted:
        raise NoNegativeRadius("no verified radius for stage %r" % stage, poly=poly)
    return Certificate(stage=stage, kind=kind, r0=accepted[0], poly=tuple(poly),
                       r_star=cap, r_max=accepted[-1], derivative_invertible=invertible,
                       inputs_digest=digest)


def certify_jet_alone(table, ctx, alpha, rhs, rho, centers, op):
    """(r0, r_max) of jet alpha certified on its own: its residual from its
    own windows, A applied to them alone, the tail sum of each component
    in turn, the bounds of `stages._certify` and the radius of
    `grid_scan`."""
    p = sum(alpha)
    lam = table.lambda_bar
    s = p * lam
    layout, nu = op.layout, op.nu
    K = layout.K
    resid = stages._affine_residual(ctx, [row.c.mid() for row in centers], s, rhs)
    ds = (Interval.point(lam) * float(p) - s).mag()
    dd = ctx.field_dd(table.radii[(0, 0)])
    shift_err = float(_up(dd + _up(p * table.radii[(1, 0)] + ds)))
    pre_Y = float(_up(_up(shift_err * max(sq.norm_upper() for sq in centers)) + rho))
    vm, vr = (np.concatenate([numerics.crop(seq[t], K) for seq in resid])[layout.slots]
              for t in (0, 1))
    ym, yr = cmm(op.Jhat, None, vm, vr)
    gY = group_vec_norms(cmat_abs_up(ym, yr), layout, nu)
    tails = [float(seq_tail_weighted(g, K, nu, op.omega, s)) for _, _, g in resid]
    Y0 = float(max(_up(gY + np.array(tails))))
    Y = float(_up(Y0 + _up(op.normA_seq * pre_Y)))
    Z1 = float(_up(_up(op.Z1_tail + op.Z1_window) + _up(op.normA_seq * shift_err)))
    poly = NKBounds(Y=Y, Z0=op.Z0, Z1=Z1, Z2=(float(_up(op.normA * 0.0)),),
                    r_star=stages.R_STAR).polynomial()
    cert = grid_scan(poly, stages.R_STAR, stages.R_STAR, "jet", "newton", "", True)
    return cert.r0, cert.r_max
