"""The embedded field in its three arithmetics, checked against each other.

One random Fourier-Taylor grid (K = 5, orders <= 3) goes through
`model.embedded_field` as floats (`numerics.FloatArith`), endpoint
intervals (the multi-layer reference of the oracles) and norm/radius
pairs.  The float values must lie in the interval enclosure, the norm
lane's r must bound their distance from every point of it, and moving the
float inputs within given radii must move the outputs by no more than r.
The jet layers of `stages` and the derivative kernels get the same checks.
The level fields of `stages` are evaluated order by order with product
layers carried between orders: each must equal a fresh evaluation byte for
byte, and their float lane must equal the float remainder.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fourbody import model, numerics, stages
from fourbody.interval import Interval
from fourbody.seqspace import FourierSeq

import oracles

NU = 1.3
K = 5
CAP = 3
ORDERS = [(m, p - m) for p in range(CAP + 1) for m in range(p + 1)]
# order-zero means near the reference orbit: positions near a rest point,
# reciprocal distances near one
OFFSET = [0.08, 0.0, -0.2, 0.0, 0.0, 0.0, 1.1, 0.9, 1.2]


@pytest.fixture(scope="module")
def cfg():
    return model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(2212)
    grid = [{} for _ in range(9)]
    for beta in ORDERS:
        scale = 0.05 * 0.5 ** (beta[0] + beta[1])
        for i in range(9):
            c = scale * (rng.uniform(-1, 1, 2 * K - 1)
                         + 1j * rng.uniform(-1, 1, 2 * K - 1))
            if beta == (0, 0):
                c[K - 1] += OFFSET[i]
            grid[i][beta] = c
    radii = {beta: 1e-7 * 0.5 ** (beta[0] + beta[1]) for beta in ORDERS}
    return grid, radii


class WholeProducts:
    """The arithmetic base with a `mul` that makes every layer of a Cauchy
    product, as `numerics.FloatArith.mul` does.  `stages._NormRad` has no
    `mul` of its own: the jets make its products through
    `stages._Incremental`."""

    mul = numerics.FloatArith.mul

    def __init__(self, base):
        self.base = base

    def __getattr__(self, name):
        return getattr(self.base, name)


def nu_norm(arr) -> float:
    arr = np.asarray(arr)
    W = (len(arr) - 1) // 2
    return float(np.sum(np.abs(arr) * NU ** np.abs(np.arange(-W, W + 1))))


def centered(arr, n):
    """arr padded with zeros (or cropped) to the centered length n."""
    out = np.zeros(n, dtype=complex)
    m = min(n, len(arr))
    out[(n - m) // 2:(n + m) // 2] = np.asarray(arr)[(len(arr) - m) // 2:(len(arr) + m) // 2]
    return out


def float_arith(cfg):
    return numerics.FloatArith(*numerics.cfg_floats(cfg))


def float_field(cfg, grid, cap=CAP):
    return model.embedded_field(float_arith(cfg), grid, cap)


def perturbed(grid, radius, rng):
    """Layer beta of component i moved by a random sequence of nu-norm
    0.99 * radius(i, beta)."""
    out = []
    for i, comp in enumerate(grid):
        d = {}
        for beta, c in comp.items():
            e = rng.uniform(-1, 1, len(c)) + 1j * rng.uniform(-1, 1, len(c))
            d[beta] = c + e * (0.99 * radius(i, beta) / nu_norm(e))
        out.append(d)
    return out


def assert_in_interval(seq: FourierSeq, arr):
    n = max(len(seq.c), len(arr))
    W = (n - 1) // 2
    vals = centered(arr, n)
    for k in range(-W, W + 1):
        c, z = seq.at(k), complex(vals[k + W])
        assert c.re.contains(z.real) and c.im.contains(z.imag), k


def exact_cfg():
    """Point masses and positions: the field's constants are exact floats."""
    pts = [tuple(Interval(x) for x in p)
           for p in ((0.5, 0.0, 0.0), (-0.25, 0.375, 0.0), (-0.25, -0.375, 0.0))]
    return SimpleNamespace(masses=(Interval(0.5), Interval(0.25), Interval(0.25)),
                           position=lambda j: pts[j])


def sup_distance(seq: FourierSeq, arr) -> float:
    """nu-norm of the largest distance from arr to the points of seq's boxes."""
    n = max(len(seq.c), len(arr))
    off = (n - len(seq.c)) // 2
    c = seq.c.pad(off, off)
    f = centered(arr, n)
    dr = np.maximum(np.abs(c.rl - f.real), np.abs(c.rh - f.real))
    di = np.maximum(np.abs(c.il - f.imag), np.abs(c.ih - f.imag))
    return nu_norm(np.hypot(dr, di))


@pytest.mark.parametrize("constants", ["reference", "exact"])
def test_float_field_inside_interval_and_norm_lane(cfg, data, constants):
    # at zero input radii the norm lane's r bounds the distance from the
    # float lane to every point of the endpoint enclosure, and N its norm;
    # with exact constants r is the float lane's rounding and nothing else
    grid, _ = data
    if constants == "exact":
        cfg = exact_cfg()
    fl = float_field(cfg, grid)
    iv_grid = [oracles.FourierTaylorSeq({b: FourierSeq.point(c, NU) for b, c in comp.items()},
                                        NU)
               for comp in grid]
    iv = oracles.field_F_ft(iv_grid, cfg, CAP)
    nr = model.embedded_field(
        WholeProducts(stages._NormRad(cfg, NU, 2 * K - 1)),
        [{b: (FourierSeq.point(c, NU).norm_upper(), 0.0) for b, c in comp.items()}
         for comp in grid], CAP)
    worst = 0.0
    for i in range(9):
        assert set(fl[i]) == set(iv[i].entries) == set(nr[i])
        for alpha, arr in fl[i].items():
            box = iv[i].layer(*alpha)
            assert_in_interval(box, arr)
            N, r = nr[i][alpha]
            assert nu_norm(arr) <= N
            dist = sup_distance(box, arr)
            assert dist <= r, (i, alpha, dist, r)
            worst = max(worst, dist / r if r else 0.0)
            # the bounds are tight, not just sound
            assert r <= 1e-12 * (1.0 + N)
    assert worst > 1e-3


def exact_distance(f, exact) -> float:
    """nu-norm of f - exact, exact a centered list of Fraction pairs."""
    n = max(len(f), len(exact))
    f = centered(f, n)
    off = (n - len(exact)) // 2
    ex = [(Fraction(0), Fraction(0))] * off + list(exact) + [(Fraction(0), Fraction(0))] * off
    d = [abs(complex(float(Fraction(z.real) - re), float(Fraction(z.imag) - im)))
         for z, (re, im) in zip(f, ex)]
    return nu_norm(d)


def test_norm_lane_bounds_each_rounding():
    # at zero radii and point constants each operation's r bounds the
    # rounding of the float lane's operation, which is not zero here, and an
    # exact operation adds nothing
    rng = np.random.default_rng(5)
    cfg = exact_cfg()
    nr = stages._NormRad(cfg, NU, 2 * K - 1)

    def both(arr):
        return {(0, 0): arr}, {(0, 0): (FourierSeq.point(arr, NU).norm_upper(), 0.0)}

    def frac(arr):
        return [(Fraction(z.real), Fraction(z.imag)) for z in arr]

    q = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / 3.0
    v = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / 7.0
    (fq, nq), (fv, nv) = both(q), both(v)
    fa = float_arith(cfg)
    third, tenth = Interval(1.0 / 3.0), Interval(0.1)
    ops = [
        # (float lane, norm lane, exact value)
        (fa.sum(fq, fv), nr.sum(nq, nv),
         [(a + c, b + d) for (a, b), (c, d) in zip(frac(q), [(0, 0)] * 2 + frac(v) + [(0, 0)] * 2)]),
        (fa.scale(fq, third.mid), nr.scale(nq, third),
         [(a * Fraction(third.mid), b * Fraction(third.mid)) for a, b in frac(q)]),
        (fa.shift(fq, tenth.mid), nr.shift(nq, tenth),
         [(a - Fraction(0.1) if k == 4 else a, b) for k, (a, b) in enumerate(frac(q))]),
    ]
    for fl, n, exact in ops:
        dist = exact_distance(fl[(0, 0)], exact)
        assert 0.0 < dist <= n[(0, 0)][1]
    for c, fl, n in [(-2.0, fa.scale(fq, -2.0), nr.scale(nq, -2.0)),
                     (-1.0, fa.neg(fq), nr.neg(nq))]:
        assert np.array_equal(fl[(0, 0)], c * q) and n[(0, 0)][1] == 0.0


def test_norm_radius_bounds_the_float_field(cfg, data):
    grid, radii = data
    # a large radius on u2 makes the linear terms of rows 2 and 4 dominate
    weight = [1.0, 1e3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def radius(i, beta):
        return weight[i] * radii[beta]

    nr = model.embedded_field(
        WholeProducts(stages._NormRad(cfg, NU, 2 * K - 1)),
        [{b: (FourierSeq.point(c, NU).norm_upper(), radius(i, b)) for b, c in comp.items()}
         for i, comp in enumerate(grid)], CAP)
    base = float_field(cfg, grid)
    rng = np.random.default_rng(7)
    for _ in range(3):
        moved = float_field(cfg, perturbed(grid, radius, rng))
        for i in range(9):
            for alpha, arr in base[i].items():
                N, r = nr[i][alpha]
                assert nu_norm(arr) <= N
                n = max(len(arr), len(moved[i][alpha]))
                diff = centered(moved[i][alpha], n) - centered(arr, n)
                assert 0.0 < nu_norm(diff) <= r


def lower_jet(grid, radii, top=CAP - 1):
    """A table stand-in holding the centers and radii of the orders <= top."""
    low = [p for p in ORDERS if p[0] + p[1] <= top]
    return SimpleNamespace(
        nu=NU,
        orders={b: tuple(FourierSeq.point(grid[i][b], NU) for i in range(9)) for b in low},
        radii={b: radii[b] for b in low},
    )


def jet_rhs(jet, cfg, alpha):
    """(rhs, rho) of jet alpha, its level evaluated afresh."""
    return stages._jet_rhs(stages._level_fields(jet, cfg, sum(alpha)), alpha)


def test_remainder_wrappers_against_float(cfg, data):
    # the float lane of a jet is the float remainder, and rho bounds how far
    # the float remainder moves with its inputs within the lower radii
    grid, radii = data
    jet = lower_jet(grid, radii)
    ms, pos = numerics.cfg_floats(cfg)
    rng = np.random.default_rng(11)
    for alpha in [(3, 0), (2, 1)]:
        R = numerics.remainder_layer(grid, alpha, ms, pos)
        rhs, rho = jet_rhs(jet, cfg, alpha)
        rhs = [np.zeros(1, dtype=complex) if f is None else f for f in rhs]
        for f, r in zip(rhs, R):
            assert np.array_equal(f, r)
        for _ in range(3):
            Rp = numerics.remainder_layer(
                perturbed(grid, lambda i, beta: radii[beta], rng), alpha, ms, pos)
            moved = max(nu_norm(a - b) for a, b in zip(Rp, rhs))
            assert 0.0 < moved <= rho
    # the centers of a rescaled table are boxes; rho covers their widths too
    g = Interval(0.69, 0.7)
    boxed = SimpleNamespace(**vars(jet))
    boxed.orders = {b: tuple(s.scale(g) for s in seqs) for b, seqs in jet.orders.items()}
    for alpha in [(3, 0), (2, 1)]:
        rhs, rho = jet_rhs(boxed, cfg, alpha)
        rhs = [np.zeros(1, dtype=complex) if f is None else f for f in rhs]
        for t in (g.lo, g.hi):
            inputs = [{b: t * c for b, c in comp.items()}
                      for comp in perturbed(grid, lambda i, beta: radii[beta], rng)]
            Rp = numerics.remainder_layer(inputs, alpha, ms, pos)
            moved = max(nu_norm(a - b) for a, b in zip(Rp, rhs))
            assert 0.0 < moved <= rho


def as_bytes(value):
    """The bytes of a float layer or an (N, r) pair, sign bits included."""
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("k", [0, 1], ids=["FloatArith", "_NormRad"])
def test_incremental_field_equals_a_fresh_one(cfg, data, k):
    grid, radii = data
    jet = lower_jet(grid, radii, top=CAP)
    fields = None
    for p in range(2, CAP + 2):
        prev = fields
        fields = stages._level_fields(jet, cfg, p, prev)
        ar, got = fields[k]
        assert ar.order == p and ar.keep == (0 if prev is None else p - 1)
        low = [b for b in ORDERS if b[0] + b[1] < p]
        assert all(set(g) == set(low) for g in ar.inputs)
        if prev is not None:
            # the entries and the layers below p - 1 were carried over, not
            # recomputed
            was = prev[k][0]
            for new, old in zip(ar.inputs, was.inputs):
                assert all(new[b] is old[b] for b in old)
            assert len(ar.nodes) == len(was.nodes) == 24
            for new, old in zip(ar.nodes, was.nodes):
                assert all(new[g] is old[g] for g in old if g[0] + g[1] < p - 1)
        base = ar.base
        fresh = model.embedded_field(
            WholeProducts(base),
            [{b: base.entry(jet.orders[b][i], jet.radii[b]) for b in low} for i in range(9)], p)
        level = set(stages._level_alphas(p))
        for i in range(9):
            assert set(got[i]) == {a for a in fresh[i] if a[0] + a[1] < p or a in level}
            for alpha, value in got[i].items():
                assert as_bytes(value) == as_bytes(fresh[i][alpha]), (p, i, alpha)


def test_midpoint_lane_is_the_float_remainder(cfg, data):
    # the float lane, byte for byte, sign bits included
    grid, radii = data
    jet = lower_jet(grid, radii, top=CAP)
    ms, pos = numerics.cfg_floats(cfg)
    for p in range(2, CAP + 2):
        # the lower orders sorted, as the jets read them from their table
        mids = [{b: jet.orders[b][i].c.mid() for b in sorted(ORDERS) if b[0] + b[1] < p}
                for i in range(9)]
        for alpha in stages._level_alphas(p):
            R = numerics.remainder_layer(mids, alpha, ms, pos)
            rhs, _ = jet_rhs(jet, cfg, alpha)
            for r, f in zip(R, rhs):
                f = np.zeros(1, dtype=complex) if f is None else f
                assert f.tobytes() == r.tobytes(), (alpha,)


def test_float_kernels_inside_interval_kernels(cfg, data):
    grid, _ = data
    A0 = np.array([comp[(0, 0)] for comp in grid])
    ms, pos = numerics.cfg_floats(cfg)
    fconst, fkers = numerics.derivative_kernels(A0, ms, pos)
    const, kernels = model.field_derivative(model.IntervalArith(cfg),
                                            [FourierSeq.point(a, NU) for a in A0])
    assert fconst == const
    for i in range(9):
        for j in range(9):
            assert (fkers[i][j] is None) == (kernels[i][j] is None)
            if fkers[i][j] is not None:
                assert_in_interval(kernels[i][j], fkers[i][j])


def test_float_order0_field_is_layer_zero(cfg, data):
    grid, _ = data
    A0 = [comp[(0, 0)] for comp in grid]
    at0 = numerics.field_grid([{(0, 0): a} for a in A0], *numerics.cfg_floats(cfg), cap=0)
    full = float_field(cfg, grid)
    for i in range(9):
        assert set(at0[i]) == {(0, 0)}
        assert np.array_equal(at0[i][(0, 0)], full[i][(0, 0)])

