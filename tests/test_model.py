"""Tests for the four body model: geometry, fields, and coefficient maps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import root

from fourbody.interval import ComplexInterval, Interval, ZERO
from fourbody.model import (
    CollisionSingularity,
    DegenerateMassCombination,
    MassTriple,
    MissingLowerOrderData,
    OrderTooLow,
    PhaseAnchor,
    PrimaryConfig,
    dF0_apply,
    embed_R,
    eta_phase,
    field_F,
    field_F_seq,
    field_f,
    interval_from_rational,
    jacobi,
    jacobi_embedded,
    mass_combination,
    primaries,
    remainder_Ralpha,
    unfold_orbit_G,
    xi_phase,
)
from fourbody.seqspace import FourierSeq, FourierTaylorSeq

from oracles import conv_exact, cq, primaries_geometric

EQUAL = MassTriple.of("1/3", "1/3", "1/3")
UNEQUAL = MassTriple.of(0.4, 0.33, 0.27)

MASS_SETS = [
    ("1/3", "1/3", "1/3"),
    ("2/5", "33/100", "27/100"),
    ("1/2", "3/10", "1/5"),
    ("7/15", "4/15", "4/15"),
    ("9/20", "3/10", "1/4"),
]


def rational_sqrt(q: Fraction, digits: int = 40) -> Fraction:
    """Floor square root to the given number of decimal digits."""
    scale = 10 ** digits
    return Fraction(math.isqrt(int(q * scale * scale)), scale)


def mids(vals):
    return [v.mid for v in vals]


def float_config(cfg: PrimaryConfig):
    prim = cfg.mid_positions()
    masses = [cfg.masses[j].mid for j in range(3)]
    return prim, masses


# ---------------------------------------------------------------------------
# primaries


def test_primaries_equal_masses_values():
    cfg = primaries(EQUAL)
    x = 0.5773502691896258
    assert abs(cfg.p1[0].mid + x) < 1e-12
    assert cfg.p1[1].contains(0.0)
    assert abs(cfg.p2[0].mid - x / 2) < 1e-12
    assert cfg.p2[1].contains(-0.5)
    assert abs(cfg.p3[0].mid - x / 2) < 1e-12
    assert cfg.p3[1].contains(0.5)


def test_primaries_orientation():
    for spec in MASS_SETS:
        cfg = primaries(MassTriple.of(*spec))
        assert cfg.p1[0].hi < 0.0
        assert cfg.p1[1].contains(0.0)
        assert cfg.p2[1].hi < 0.0
        assert cfg.p3[0].lo > 0.0 and cfg.p3[1].lo > 0.0


def test_primaries_center_of_mass():
    for spec in MASS_SETS:
        m = MassTriple.of(*spec)
        cfg = primaries(m)
        for axis in range(2):
            com = sum(
                (m[j] * cfg.position(j)[axis] for j in range(3)), ZERO
            )
            assert com.contains(0.0)
            assert com.width < 1e-14


def test_primaries_unit_side():
    for spec in MASS_SETS:
        cfg = primaries(MassTriple.of(*spec))
        assert cfg.side_squared().contains(1.0)
        assert cfg.side_squared().width < 1e-13


def test_primaries_match_geometric_oracle():
    sqrt3 = rational_sqrt(Fraction(3))
    for spec in MASS_SETS:
        fr = [Fraction(s) for s in spec]
        cfg = primaries(MassTriple.of(*spec))
        oracle = primaries_geometric(fr[0], fr[1], fr[2], sqrt3)
        for j, (xr, yr, r2) in enumerate(oracle):
            r = rational_sqrt(r2)
            for axis, num in ((0, xr), (1, yr)):
                val = num / r
                got = cfg.position(j)[axis]
                assert Fraction(got.lo) - Fraction(1, 10 ** 20) <= val
                assert val <= Fraction(got.hi) + Fraction(1, 10 ** 20)


def test_mass_triple_validation():
    with pytest.raises(ValueError):
        MassTriple.of("1/4", "1/2", "1/4")  # not ordered
    with pytest.raises(ValueError):
        MassTriple.of("1/2", "1/3", "1/12")  # sums to 11/12
    with pytest.raises(ValueError):
        MassTriple.of("1/2", "1/2", 0)


def test_interval_from_rational():
    third = interval_from_rational("1/3")
    assert Fraction(third.lo) < Fraction(1, 3) < Fraction(third.hi)
    assert third.width <= 2 * math.ulp(1 / 3)
    assert interval_from_rational("1/4").width == 0.0


def test_degenerate_mass_combination():
    # wide enclosures admit disordered mass choices with K of either sign
    m = MassTriple(Interval(0.1, 0.8), Interval(0.1, 0.8), Interval(1e-3, 0.4))
    assert mass_combination(m).contains(0.0)
    with pytest.raises(DegenerateMassCombination):
        primaries(m)


# ---------------------------------------------------------------------------
# float oracles used throughout


def omega_value(p, prim, masses):
    x, y, z = p
    val = 0.5 * (x * x + y * y)
    for j in range(3):
        dx, dy, dz = x - prim[j][0], y - prim[j][1], z - prim[j][2]
        val += masses[j] / math.sqrt(dx * dx + dy * dy + dz * dz)
    return val


def omega_grad_fd(p, prim, masses, h=1e-5):
    out = []
    for axis in range(3):
        lo = list(p)
        hi = list(p)
        lo[axis] -= h
        hi[axis] += h
        out.append(
            (omega_value(hi, prim, masses) - omega_value(lo, prim, masses))
            / (2 * h)
        )
    return out


def oracle_field_F(u, prim, masses):
    """Monomial-by-monomial evaluation; accepts complex slots."""
    out = [0j] * 9
    out[0] = u[1]
    out[2] = u[3]
    out[4] = u[5]
    s2 = s4 = s6 = 0j
    for j in range(3):
        dx, dy, dz = u[0] - prim[j][0], u[2] - prim[j][1], u[4] - prim[j][2]
        w3 = u[6 + j] ** 3
        s2 += masses[j] * dx * w3
        s4 += masses[j] * dy * w3
        s6 += masses[j] * dz * w3
        out[6 + j] = -(dx * u[1] + dy * u[3] + dz * u[5]) * w3
    out[1] = 2 * u[3] + u[0] - s2
    out[3] = -2 * u[1] + u[2] - s4
    out[5] = -s6
    return out


def rand_state6(rng, prim, min_dist=0.3):
    while True:
        pos = rng.uniform(-1.4, 1.4, size=3) * np.array([1.0, 1.0, 0.5])
        d = min(
            math.dist(pos, prim[j]) for j in range(3)
        )
        if d > min_dist:
            vel = rng.uniform(-0.6, 0.6, size=3)
            return [pos[0], vel[0], pos[1], vel[1], pos[2], vel[2]]


# ---------------------------------------------------------------------------
# point fields


def test_field_f_velocity_slots():
    cfg = primaries(EQUAL)
    out = field_f([0.9, 0.0, 0.4, 0.0, 0.2, 0.0], cfg)
    for i in (0, 2, 4):
        assert out[i].lo == 0.0 and out[i].hi == 0.0


def test_field_f_matches_gradient_oracle():
    rng = np.random.default_rng(7)
    for cfg in (primaries(EQUAL), primaries(UNEQUAL)):
        prim, masses = float_config(cfg)
        for _ in range(25):
            u = rand_state6(rng, prim)
            out = mids(field_f(u, cfg))
            g = omega_grad_fd((u[0], u[2], u[4]), prim, masses)
            expect = [u[1], 2 * u[3] + g[0], u[3], -2 * u[1] + g[1], u[5], g[2]]
            assert max(abs(a - b) for a, b in zip(out, expect)) < 1e-6


def test_field_f_z_mirror():
    cfg = primaries(UNEQUAL)
    rng = np.random.default_rng(11)
    prim, _ = float_config(cfg)
    u = rand_state6(rng, prim)
    ref = field_f(u, cfg)
    flipped = list(u)
    flipped[4] = -u[4]
    flipped[5] = -u[5]
    out = field_f(flipped, cfg)
    for i in range(4):
        assert out[i].lo == ref[i].lo and out[i].hi == ref[i].hi
    for i in (4, 5):
        assert out[i].lo == -ref[i].hi and out[i].hi == -ref[i].lo


def test_field_f_collision():
    cfg = primaries(EQUAL)
    px, py = cfg.p1[0].mid, cfg.p1[1].mid
    with pytest.raises(CollisionSingularity):
        field_f([px, 0.0, py, 0.0, 0.0, 0.0], cfg)
    # tolerance widens the excluded neighborhoods
    tight = primaries(EQUAL, collision_tol=0.2)
    with pytest.raises(CollisionSingularity):
        field_f([px + 0.1, 0.0, py, 0.0, 0.0, 0.0], tight)


def test_embed_R_slots():
    cfg = primaries(EQUAL)
    u = [0.8, 0.1, 0.3, -0.2, 0.15, 0.4]
    out = embed_R(u, cfg)
    for i in range(6):
        assert out[i].contains(u[i])
    for j in range(3):
        px, py, pz = cfg.position(j)
        r2 = (
            (u[0] - px).pow_int(2)
            + (u[2] - py).pow_int(2)
            + (u[4] - pz).pow_int(2)
        )
        assert (r2.sqrt() * out[6 + j]).contains(1.0)


def test_embed_R_distance_two():
    cfg = primaries(EQUAL)
    u = [cfg.p1[0].mid + 2.0, 0.0, cfg.p1[1].mid, 0.0, 0.0, 0.0]
    out = embed_R(u, cfg)
    assert abs(out[6].mid - 0.5) < 1e-12
    assert out[6].width < 1e-13


def test_embed_R_collision():
    cfg = primaries(EQUAL)
    with pytest.raises(CollisionSingularity):
        embed_R([cfg.p2[0].mid, 0.0, cfg.p2[1].mid, 0.0, 0.0, 0.0], cfg)


def test_field_F_vanishing_nonlinearities():
    cfg = primaries(UNEQUAL)
    u = [0.3, -0.2, 0.7, 0.4, 0.1, -0.5, 0.0, 0.0, 0.0]
    out = field_F(u, cfg)
    assert abs(out[1].mid - (2 * u[3] + u[0])) < 1e-15
    assert abs(out[3].mid - (-2 * u[1] + u[2])) < 1e-15
    for i in (5, 6, 7, 8):
        assert out[i].lo == 0.0 and out[i].hi == 0.0


def test_field_F_monomial_oracle():
    rng = np.random.default_rng(23)
    for cfg in (primaries(EQUAL), primaries(UNEQUAL)):
        prim, masses = float_config(cfg)
        for _ in range(25):
            u = list(rng.uniform(-1.0, 1.0, size=9))
            out = mids(field_F(u, cfg))
            ref = oracle_field_F(u, prim, masses)
            assert max(abs(a - b) for a, b in zip(out, ref)) < 1e-12


def dr_apply_iv(u, f, cfg):
    """Closed-form derivative of the embedding applied to a tangent vector."""
    x, vx, y, vy, z, vz = u
    out = list(f)
    for j in range(3):
        px, py, pz = cfg.position(j)
        dx, dy, dz = x - px, y - py, z - pz
        r2 = dx.pow_int(2) + dy.pow_int(2) + dz.pow_int(2)
        r3 = r2 * r2.sqrt()
        out.append(-(dx * f[0] + dy * f[2] + dz * f[4]) / r3)
    return out


def test_field_F_conjugacy():
    rng = np.random.default_rng(31)
    worst = 0.0
    for cfg in (primaries(EQUAL), primaries(UNEQUAL)):
        prim, _ = float_config(cfg)
        for _ in range(50):
            u = [Interval.point(t) for t in rand_state6(rng, prim)]
            f = field_f(u, cfg)
            lhs = dr_apply_iv(u, f, cfg)
            rhs = field_F(embed_R(u, cfg), cfg)
            for a, b in zip(lhs, rhs):
                diff = a - b
                assert diff.contains(0.0)
                worst = max(worst, abs(diff.mid))
    assert worst < 1e-10


def test_jacobi_two_forms():
    rng = np.random.default_rng(43)
    for cfg in (primaries(EQUAL), primaries(UNEQUAL)):
        prim, _ = float_config(cfg)
        for _ in range(50):
            u = rand_state6(rng, prim)
            h6 = jacobi(u, cfg)
            h9 = jacobi_embedded(embed_R(u, cfg), cfg)
            assert h6.intersect(h9).width >= 0.0
            assert abs(h6.mid - h9.mid) < 1e-12


# ---------------------------------------------------------------------------
# dissipative unfolding and energy


def dissipative_rhs(prim, masses, beta):
    def rhs(_t, u):
        x, vx, y, vy, z, vz = u
        g = omega_grad_exact((x, y, z), prim, masses)
        return [
            vx,
            2 * vy + g[0] + beta * vx,
            vy,
            -2 * vx + g[1] + beta * vy,
            vz,
            g[2] + beta * vz,
        ]

    return rhs


def omega_grad_exact(p, prim, masses):
    x, y, z = p
    gx, gy, gz = x, y, 0.0
    for j in range(3):
        dx, dy, dz = x - prim[j][0], y - prim[j][1], z - prim[j][2]
        r3 = (dx * dx + dy * dy + dz * dz) ** 1.5
        gx -= masses[j] * dx / r3
        gy -= masses[j] * dy / r3
        gz -= masses[j] * dz / r3
    return gx, gy, gz


def jacobi_float(u, prim, masses):
    x, vx, y, vy, z, vz = u
    val = x * x + y * y - vx * vx - vy * vy - vz * vz
    for j in range(3):
        dx, dy, dz = x - prim[j][0], y - prim[j][1], z - prim[j][2]
        val += 2 * masses[j] / math.sqrt(dx * dx + dy * dy + dz * dz)
    return val


def test_energy_decreases_with_dissipation():
    cfg = primaries(EQUAL)
    prim, masses = float_config(cfg)
    u0 = [0.8, 0.0, 0.1, 0.3, 0.05, 0.1]
    ts = np.linspace(0.0, 1.5, 16)
    sol = solve_ivp(
        dissipative_rhs(prim, masses, 0.25),
        (0.0, 1.5),
        u0,
        t_eval=ts,
        rtol=1e-11,
        atol=1e-11,
        method="DOP853",
    )
    assert sol.success
    h = [jacobi_float(sol.y[:, i], prim, masses) for i in range(len(ts))]
    assert all(h[i + 1] < h[i] - 1e-9 for i in range(len(ts) - 1))
    sol0 = solve_ivp(
        dissipative_rhs(prim, masses, 0.0),
        (0.0, 1.5),
        u0,
        t_eval=ts,
        rtol=1e-11,
        atol=1e-11,
        method="DOP853",
    )
    h0 = [jacobi_float(sol0.y[:, i], prim, masses) for i in range(len(ts))]
    assert max(abs(v - h0[0]) for v in h0) < 1e-8


# ---------------------------------------------------------------------------
# coefficient-space field


def const_grid(seqs, nu):
    return tuple(FourierTaylorSeq({(0, 0): s}, nu) for s in seqs)


def rand_seq9(rng, nu, K=3, scale=0.3, offset=None):
    out = []
    for i in range(9):
        coeffs = (
            rng.uniform(-scale, scale, size=2 * K - 1)
            + 1j * rng.uniform(-scale, scale, size=2 * K - 1)
        )
        if offset is not None:
            coeffs[K - 1] += offset[i]
        out.append(FourierSeq.point(coeffs, nu))
    return out


def find_planar_equilibrium(cfg):
    prim, masses = float_config(cfg)

    def grad2(p):
        g = omega_grad_exact((p[0], p[1], 0.0), prim, masses)
        return [g[0], g[1]]

    for x0 in (-1.3, -0.9, 0.9, 1.3):
        for y0 in (0.0, 1.1, -1.1):
            sol = root(grad2, [x0, y0], tol=1e-14)
            if not sol.success:
                continue
            p = sol.x
            if min(math.dist(p, prim[j][:2]) for j in range(3)) < 0.25:
                continue
            if max(abs(v) for v in grad2(p)) < 1e-12:
                return [p[0], 0.0, p[1], 0.0, 0.0, 0.0]
    raise AssertionError("no equilibrium found")


def test_field_F_seq_at_equilibrium():
    cfg = primaries(EQUAL)
    ueq = find_planar_equilibrium(cfg)
    box = [Interval.from_midrad(t, 1e-10) for t in ueq]
    U = embed_R(box, cfg)
    nu = 1.25
    grid = const_grid(
        [FourierSeq.from_entries({0: ComplexInterval(v, ZERO)}, nu) for v in U],
        nu,
    )
    out = field_F_seq(grid, (0, 0), cfg)
    for s in out:
        v = s.at(0)
        assert v.contains(0.0)
        assert v.mag() < 1e-8


def test_field_F_seq_sampling_oracle():
    rng = np.random.default_rng(17)
    cfg = primaries(UNEQUAL)
    prim, masses = float_config(cfg)
    nu = 1.2
    a0 = rand_seq9(rng, nu, K=3, scale=0.2, offset=[0.5, 0, 0.3, 0, 0.1, 0, 1.0, 0.9, 1.1])
    grid = const_grid(a0, nu)
    out = field_F_seq(grid, (0, 0), cfg)
    for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
        uval = [
            sum(s.at(k).mid * np.exp(1j * k * theta) for k in s.k_values())
            for s in a0
        ]
        ref = oracle_field_F(uval, prim, masses)
        got = [
            sum(s.at(k).mid * np.exp(1j * k * theta) for k in s.k_values())
            for s in out
        ]
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10


def test_field_F_seq_linear_slots():
    rng = np.random.default_rng(29)
    nu = 1.3
    cfg = primaries(EQUAL)
    layers = {}
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
        layers[alpha] = rand_seq9(rng, nu, K=2, scale=0.4)
    grids = tuple(
        FourierTaylorSeq({a: layers[a][i] for a in layers}, nu) for i in range(9)
    )
    for alpha in [(1, 0), (1, 1), (2, 0)]:
        out = field_F_seq(grids, alpha, cfg)
        for slot, src in ((0, 1), (2, 3), (4, 5)):
            want = layers[alpha][src]
            for k in want.k_values():
                assert out[slot].at(k) == want.at(k)


def test_field_F_seq_missing_data():
    cfg = primaries(EQUAL)
    nu = 1.2
    rng = np.random.default_rng(3)
    grid = const_grid(rand_seq9(rng, nu), nu)
    with pytest.raises(MissingLowerOrderData):
        field_F_seq(grid, (1, 1), cfg)


def test_dF0_finite_difference():
    rng = np.random.default_rng(37)
    cfg = primaries(UNEQUAL)
    nu = 1.15
    a0 = rand_seq9(rng, nu, K=3, scale=0.2, offset=[0.4, 0, 0.2, 0, 0.1, 0, 1.0, 1.1, 0.9])
    h = rand_seq9(rng, nu, K=3, scale=0.5)
    eps = 1e-5
    up = const_grid([a.add(b.scale(eps)) for a, b in zip(a0, h)], nu)
    dn = const_grid([a.add(b.scale(-eps)) for a, b in zip(a0, h)], nu)
    Fu = field_F_seq(up, (0, 0), cfg)
    Fd = field_F_seq(dn, (0, 0), cfg)
    got = dF0_apply(a0, h, cfg)
    for i in range(9):
        for k in range(-6, 7):
            fd = (Fu[i].at(k).mid - Fd[i].at(k).mid) / (2 * eps)
            assert abs(fd - got[i].at(k).mid) < 1e-6


def test_dF0_zero_and_linearity():
    rng = np.random.default_rng(41)
    cfg = primaries(EQUAL)
    nu = 1.4
    a0 = rand_seq9(rng, nu, K=2, scale=0.3)
    zero = [FourierSeq.zeros(2, nu) for _ in range(9)]
    out = dF0_apply(a0, zero, cfg)
    assert all(s.norm().hi == 0.0 for s in out)
    h = rand_seq9(rng, nu, K=2, scale=0.5)
    twice = dF0_apply(a0, [s.scale(2.0) for s in h], cfg)
    base = dF0_apply(a0, h, cfg)
    for a, b in zip(twice, base):
        for k in a.k_values():
            got = a.at(k)
            want = b.at(k) * 2.0
            # both enclose the same value, so the boxes must meet
            got.re.intersect(want.re)
            got.im.intersect(want.im)
            assert abs(got.mid - want.mid) < 1e-13


# ---------------------------------------------------------------------------
# remainder


def rand_ft_grid(rng, nu, order=2, K=2, scale=0.3):
    layers = [(m, n) for m in range(order + 1) for n in range(order + 1 - m)]
    tables = {a: rand_seq9(rng, nu, K=K, scale=scale) for a in layers}
    return tuple(
        FourierTaylorSeq({a: tables[a][i] for a in tables}, nu) for i in range(9)
    )


def test_remainder_splitting_identity():
    rng = np.random.default_rng(53)
    cfg = primaries(UNEQUAL)
    nu = 1.1
    for alpha in [(2, 0), (1, 1), (0, 2)]:
        a = rand_ft_grid(rng, nu, order=2)
        a0 = [f.layer(0, 0) for f in a]
        aal = [f.layer(*alpha) for f in a]
        lhs = field_F_seq(a, alpha, cfg)
        lin = dF0_apply(a0, aal, cfg)
        rem = remainder_Ralpha(a, alpha, cfg)
        for i in range(9):
            total = lin[i].add(rem[i])
            for k in range(-4, 5):
                diff = lhs[i].at(k) - total.at(k)
                assert diff.contains(0j)
                assert abs(diff.mid) < 1e-12


def test_remainder_zero_for_order0_data():
    rng = np.random.default_rng(59)
    cfg = primaries(EQUAL)
    nu = 1.2
    grid = const_grid(rand_seq9(rng, nu), nu)
    out = remainder_Ralpha(grid, (2, 0), cfg)
    assert all(s.norm().hi == 0.0 for s in out)


def test_remainder_independent_of_alpha_layer():
    rng = np.random.default_rng(61)
    cfg = primaries(EQUAL)
    nu = 1.2
    a = rand_ft_grid(rng, nu, order=2)
    probe = rand_seq9(rng, nu, K=4, scale=9.0)
    b = tuple(f.with_layer(1, 1, probe[i]) for i, f in enumerate(a))
    ra = remainder_Ralpha(a, (1, 1), cfg)
    rb = remainder_Ralpha(b, (1, 1), cfg)
    assert [s.to_json_obj() for s in ra] == [s.to_json_obj() for s in rb]


def test_remainder_order_too_low():
    rng = np.random.default_rng(67)
    cfg = primaries(EQUAL)
    grid = rand_ft_grid(rng, 1.2, order=1)
    with pytest.raises(OrderTooLow):
        remainder_Ralpha(grid, (1, 0), cfg)


# ---------------------------------------------------------------------------
# orbit unfolding and phase conditions


def test_unfold_orbit_values():
    rng = np.random.default_rng(71)
    nu = 1.3
    a0 = rand_seq9(rng, nu, K=3, scale=0.4)
    out = unfold_orbit_G([0.0, 0.0, 0.0, 0.0], a0)
    assert all(s.norm().hi == 0.0 for s in out)
    out = unfold_orbit_G([1.0, 0.0, 0.0, 0.0], a0)
    for k in a0[1].k_values():
        assert out[1].at(k).contains(a0[1].at(k).mid)
        assert out[1].at(k).re.width < 1e-15
    assert all(out[i].norm().hi == 0.0 for i in (0, 2, 3, 4, 5, 6, 7, 8))


def test_unfold_orbit_cube_against_rational_oracle():
    nu = 1.2
    w = [
        cq((Fraction(1, 4), Fraction(-1, 8))),
        cq((Fraction(1, 2), Fraction(0))),
        cq((Fraction(3, 8), Fraction(1, 16))),
    ]
    seqs = [FourierSeq.zeros(2, nu) for _ in range(9)]
    seqs[6] = FourierSeq.point([float(c[0]) + 1j * float(c[1]) for c in w], nu)
    out = unfold_orbit_G([0.0, 1.0, 0.0, 0.0], seqs)
    cube = conv_exact(conv_exact(w, w), w)
    kmin = -(len(cube) // 2)
    for i, want in enumerate(cube):
        got = out[6].at(kmin + i)
        assert got.re.contains(float(want[0])) or (
            Fraction(got.re.lo) <= want[0] <= Fraction(got.re.hi)
        )
        assert Fraction(got.im.lo) <= want[1] <= Fraction(got.im.hi)


def test_eta_phase_consistent_anchor():
    cfg = primaries(EQUAL)
    nu = 1.2
    u6 = [0.8, 0.1, 0.3, -0.2, 0.15, 0.4]
    U = embed_R(u6, cfg)
    a0 = [FourierSeq.from_entries({0: ComplexInterval(v, ZERO)}, nu) for v in U]
    anchor = PhaseAnchor.from_u0([v.mid for v in U], cfg)
    out = eta_phase(a0, anchor, cfg)
    for j in (1, 2, 3):
        assert out[j].contains(0j)
        assert out[j].mag() < 1e-13


def test_eta_phase_poincare_zero():
    cfg = primaries(EQUAL)
    nu = 1.2
    u0 = [0.8, 0.1, 0.3, -0.2, 0.15, 0.4, 0.7, 0.9, 1.1]
    anchor = PhaseAnchor.from_u0(u0, cfg)
    a0 = [FourierSeq.point([v], nu) for v in u0]
    out = eta_phase(a0, anchor, cfg)
    assert out[0].contains(0j)
    assert out[0].mag() < 1e-13


def test_eta_phase_perturbation_derivative():
    cfg = primaries(EQUAL)
    nu = 1.2
    u6 = [0.8, 0.1, 0.3, -0.2, 0.15, 0.4]
    U = [v.mid for v in embed_R(u6, cfg)]
    anchor = PhaseAnchor.from_u0(U, cfg)
    a0 = [FourierSeq.point([v], nu) for v in U]
    base = eta_phase(a0, anchor, cfg)
    delta = 1e-5
    bumped = list(a0)
    bumped[6] = FourierSeq.point([U[6] + delta], nu)
    out = eta_phase(bumped, anchor, cfg)
    d2 = sum((u6[2 * i] - cfg.position(0)[i].mid) ** 2 for i in range(3))
    expect = d2 * (2 * U[6] * delta + delta * delta)
    assert abs((out[1].mid - base[1].mid).real - expect) < 1e-12


def test_xi_phase_values():
    nu = 1.3
    zero = [FourierSeq.zeros(2, nu) for _ in range(9)]
    out = xi_phase(zero, 3, 0.0)
    assert out.re.lo == 0.0 and out.re.hi == 0.0 and out.im.hi == 0.0
    rng = np.random.default_rng(73)
    a = rand_seq9(rng, nu, K=4, scale=0.5)
    v1 = xi_phase(a, 3, 0.0)
    v2 = xi_phase([s.scale(2.0) for s in a], 3, 0.0)
    v2.re.intersect(v1.re * 4.0)
    v2.im.intersect(v1.im * 4.0)
    assert abs(v2.mid - 4 * v1.mid) < 1e-12
    # modes at |k| >= k0 are invisible
    far = [FourierSeq.from_entries({3: 1.0 + 0.5j}, nu, K=4) for _ in range(9)]
    out = xi_phase(far, 3, 2.5e-3)
    assert abs(out.re.mid + 2.5e-3) < 1e-18 and out.im.mag() < 1e-18


def test_xi_phase_counts_window():
    nu = 1.2
    seqs = [FourierSeq.zeros(3, nu) for _ in range(9)]
    seqs[0] = FourierSeq.from_entries({0: 0.25, 1: 0.25, -2: 0.5}, nu, K=3)
    # k0=2 window sees k in {-1,0,1}: sum = 0.5, square = 0.25
    out = xi_phase(seqs, 2, 0.0)
    assert abs(out.re.mid - 0.25) < 1e-15
    # k0=3 window sees everything: sum = 1.0
    out = xi_phase(seqs, 3, 0.0)
    assert abs(out.re.mid - 1.0) < 1e-15


def test_phase_anchor_validation():
    cfg = primaries(EQUAL)
    u0 = [0.8, 0.1, 0.3, -0.2, 0.15, 0.4, 0.7, 0.9, 1.1]
    anchor = PhaseAnchor.from_u0(u0, cfg)
    ref = mids(field_F(u0, cfg))
    assert max(abs(a - b) for a, b in zip(anchor.u1, ref)) == 0.0
    with pytest.raises(ValueError):
        PhaseAnchor(u0=(0.0,) * 6, u1=(0.0,) * 9)
