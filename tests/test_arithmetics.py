"""The embedded field in its four arithmetics, checked against each other.

One random Fourier-Taylor grid (K = 5, orders <= 3) goes through
`model.embedded_field` as floats, endpoint intervals, midpoint-radius discs
and norm/radius pairs.  The float values must lie in both enclosures, and
moving the float inputs within given radii must move the outputs by no more
than the norm/radius bound.  The remainder wrappers of `stages` and the
derivative kernels get the same checks.  The remainders of `stages` are
evaluated order by order with product layers carried between orders: each
must equal a fresh evaluation byte for byte, their midpoint lane must equal
the float remainder, and a change to the lower orders must discard what was
carried.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from fourbody import model, numerics, stages
from fourbody.interval import Interval
from fourbody.seqspace import FourierSeq, FourierTaylorSeq

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


def float_field(cfg, grid, cap=CAP):
    ms, pos = numerics.cfg_floats(cfg)
    return model.embedded_field(numerics.FloatArith(ms, pos), grid, cap)


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
        assert seq.at(k).contains(complex(vals[k + W])), k


def test_float_field_inside_interval_and_midrad(cfg, data):
    grid, _ = data
    fl = float_field(cfg, grid)
    iv_grid = [FourierTaylorSeq({b: FourierSeq.point(c, NU) for b, c in comp.items()}, NU)
               for comp in grid]
    iv = model.embedded_field(model.IntervalArith(cfg, NU), iv_grid, CAP)
    mr = model.embedded_field(
        stages._MidRad(cfg),
        [{b: [c, np.zeros(len(c))] for b, c in comp.items()} for comp in grid], CAP)
    for i in range(9):
        assert set(fl[i]) == set(iv[i].entries) == set(mr[i])
        for alpha, arr in fl[i].items():
            assert_in_interval(iv[i].layer(*alpha), arr)
            vm, vr = mr[i][alpha]
            assert len(vm) == len(arr)
            assert np.all(np.abs(arr - vm) <= vr)
            # the enclosures are tight, not just sound
            assert np.all(vr <= 1e-12 * (1.0 + nu_norm(arr)))


def test_norm_radius_bounds_the_float_field(cfg, data):
    grid, radii = data
    # a large radius on u2 makes the linear terms of rows 2 and 4 dominate
    weight = [1.0, 1e3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def radius(i, beta):
        return weight[i] * radii[beta]

    nr = model.embedded_field(
        stages._NormRad(cfg),
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
        field_memo=None,
    )


def test_remainder_wrappers_against_float(cfg, data):
    grid, radii = data
    jet = lower_jet(grid, radii)
    ms, pos = numerics.cfg_floats(cfg)
    rng = np.random.default_rng(11)
    for alpha in [(3, 0), (2, 1)]:
        R = numerics.remainder_layer(grid, alpha, ms, pos)
        enc = stages._remainder_enclosure(jet, cfg, alpha)
        for i in range(9):
            assert_in_interval(enc[i], R[i])
        rho = stages._remainder_error_budget(jet, cfg, alpha)
        for _ in range(3):
            Rp = numerics.remainder_layer(
                perturbed(grid, lambda i, beta: radii[beta], rng), alpha, ms, pos)
            moved = max(nu_norm(a - b) for a, b in zip(Rp, R))
            assert 0.0 < moved <= rho


def remainders(jet, cfg, alpha, fresh):
    if fresh:
        jet.field_memo = None
    enc = stages._remainder_enclosure(jet, cfg, alpha)
    bounds = [(s.c.rl, s.c.rh, s.c.il, s.c.ih) for s in enc]
    return bounds, stages._remainder_error_budget(jet, cfg, alpha)


def assert_same(a, b):
    (ea, ra), (eb, rb) = a, b
    assert ra == rb
    for x, y in zip(ea, eb):
        for u, v in zip(x, y):
            assert np.array_equal(u, v)


def halve(jet, beta):
    jet.orders[beta] = tuple(s.scale(Interval.point(0.5)) for s in jet.orders[beta])


def test_remainder_reuse_matches_fresh_evaluation(cfg, data):
    grid, radii = data
    jet = lower_jet(grid, radii, top=CAP)
    remainders(jet, cfg, (3, 0), fresh=False)
    # the second jet of the order reuses the field of the first
    assert_same(remainders(jet, cfg, (2, 1), fresh=False),
                remainders(jet, cfg, (2, 1), fresh=True))
    before = remainders(jet, cfg, (2, 1), fresh=False)
    # rescaled centers of one lower order, then a wider radius: both re-evaluate
    halve(jet, (1, 0))
    moved = remainders(jet, cfg, (2, 1), fresh=False)
    assert_same(moved, remainders(jet, cfg, (2, 1), fresh=True))
    assert moved[1] != before[1]
    jet.radii[(0, 1)] *= 2.0
    wider = remainders(jet, cfg, (2, 1), fresh=False)
    assert_same(wider, remainders(jet, cfg, (2, 1), fresh=True))
    assert wider[1] > moved[1]
    # the same at the next order, which would otherwise take its product
    # layers from the order-3 evaluation
    for change in (lambda: halve(jet, (0, 1)),
                   lambda: jet.radii.__setitem__((1, 1), 2.0 * jet.radii[(1, 1)])):
        remainders(jet, cfg, (2, 1), fresh=False)
        change()
        assert_same(remainders(jet, cfg, (3, 1), fresh=False),
                    remainders(jet, cfg, (3, 1), fresh=True))


def as_bytes(value):
    """The bytes of a [mid, rad] disc layer or an (N, r) pair, sign bits included."""
    return [np.asarray(v).tobytes() for v in value]


@pytest.mark.parametrize("arith", [stages._MidRad, stages._NormRad])
def test_incremental_field_equals_a_fresh_one(cfg, data, arith):
    grid, radii = data
    jet = lower_jet(grid, radii, top=CAP)
    prev = None
    for p in range(2, CAP + 2):
        got = stages._lower_field(jet, cfg, arith, p)
        memo = jet.field_memo[arith]
        assert memo.order == p and memo.outs is got
        if prev is not None:
            # the layers below p - 1 were carried over, not recomputed
            assert len(memo.nodes) == len(prev.nodes) == 24
            for new, old in zip(memo.nodes, prev.nodes):
                assert all(new[g] is old[g] for g in old if g[0] + g[1] < p - 1)
        prev = memo
        low = [b for b in ORDERS if b[0] + b[1] < p]
        fresh = model.embedded_field(
            arith(cfg), [{b: arith.entry(jet.orders[b][i], jet.radii[b]) for b in low}
                         for i in range(9)], p)
        level = set(stages._level_alphas(p))
        for i in range(9):
            assert set(got[i]) == {a for a in fresh[i] if a[0] + a[1] < p or a in level}
            for alpha, value in got[i].items():
                assert as_bytes(value) == as_bytes(fresh[i][alpha]), (p, i, alpha)


def test_midpoint_lane_is_the_float_remainder(cfg, data):
    grid, radii = data
    jet = lower_jet(grid, radii, top=CAP)
    ms, pos = numerics.cfg_floats(cfg)
    for p in range(2, CAP + 2):
        # the lower orders sorted, as the jets read them from their table
        mids = [{b: jet.orders[b][i].c.mid() for b in sorted(ORDERS) if b[0] + b[1] < p}
                for i in range(9)]
        for alpha in stages._level_alphas(p):
            R = numerics.remainder_layer(mids, alpha, ms, pos)
            discs = stages._remainder_discs(jet, cfg, alpha)
            for r, d in zip(R, discs):
                vm = np.zeros(1, dtype=complex) if d is None else d[0]
                assert vm.tobytes() == r.tobytes(), (alpha,)


def test_float_kernels_inside_interval_kernels(cfg, data):
    grid, _ = data
    A0 = np.array([comp[(0, 0)] for comp in grid])
    ms, pos = numerics.cfg_floats(cfg)
    fconst, fkers = numerics.derivative_kernels(A0, ms, pos)
    df = model.dF0([FourierSeq.point(a, NU) for a in A0], cfg)
    assert fconst == df.const
    for i in range(9):
        for j in range(9):
            assert (fkers[i][j] is None) == (df.kernels[i][j] is None)
            if fkers[i][j] is not None:
                assert_in_interval(df.kernels[i][j], fkers[i][j])


def test_float_order0_field_is_layer_zero(cfg, data):
    grid, _ = data
    A0 = [comp[(0, 0)] for comp in grid]
    at0 = numerics.field_grid([{(0, 0): a} for a in A0], *numerics.cfg_floats(cfg), cap=0)
    full = float_field(cfg, grid)
    for i in range(9):
        assert set(at0[i]) == {(0, 0)}
        assert np.array_equal(at0[i][(0, 0)], full[i][(0, 0)])

