"""The embedded field in its three arithmetics, checked against each other.

One random Fourier-Taylor grid (K = 5, orders <= 3) goes through
`model.embedded_field` as floats (`numerics.FloatArith`), endpoint
intervals (the multi-layer reference of the oracles) and norm/radius
pairs.  The grid keeps the mirror rule of a table, layer (n, m) the
conjugate reflection of layer (m, n) and each diagonal layer fixed by it,
and so do the moves of its inputs: the lanes make every mirror layer of a
product from its source.  The float values must lie in the interval
enclosure, the norm lane's r must bound their distance from every point of
it, and moving the float inputs within given radii must move the outputs
by no more than r.
The jet layers (`numerics._jet_rhs`) get the same checks, and the
derivative kernels the interval check and that of their discs in
`numerics._DiscArith`.  The level fields (`numerics._level_fields`) are evaluated order by order with product
layers carried between orders: each must equal a fresh evaluation byte for
byte, and their float lane must equal the float remainder.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fourbody import model, numerics
from fourbody.interval import Interval
from fourbody.seqspace import FourierSeq
from fourbody.table import solved, source

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


def reflect(arr):
    """(R h)_k = conj(h_-k)."""
    return np.conj(np.asarray(arr)[::-1])


def mirrored(layers):
    """The layers of one component, alpha -> array, keeping the mirror rule
    of a table: each layer (m, n), m > n, as given, (n, m) its reflection,
    and a diagonal layer made R-fixed, 0.5 (h + R h), which R maps onto
    itself exactly."""
    out = {}
    for (m, n), c in layers.items():
        if m > n:
            out[(m, n)], out[(n, m)] = c, reflect(c)
        elif m == n:
            out[(m, n)] = 0.5 * (c + reflect(c))
    return out


@pytest.fixture(scope="module")
def data():
    # the jets' grids keep the mirror rule, and so does this one
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
    grid = [mirrored(comp) for comp in grid]
    radii = {beta: 1e-7 * 0.5 ** (beta[0] + beta[1]) for beta in ORDERS}
    return grid, radii


class WholeProducts:
    """The arithmetic base with a `mul` that makes every layer of a Cauchy
    product, as `numerics.FloatArith.mul` does.  `numerics._NormRad` has no
    `mul` of its own: the jets make its products through
    `numerics._Incremental`."""

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
    0.99 * radius(i, beta), keeping the mirror rule: a diagonal layer by an
    R-fixed sequence, and layer (n, m) by the reflection of the move of
    (m, n)."""
    out = []
    for i, comp in enumerate(grid):
        d = {}
        for beta, c in comp.items():
            if beta[0] < beta[1]:
                continue
            e = rng.uniform(-1, 1, len(c)) + 1j * rng.uniform(-1, 1, len(c))
            if beta[0] == beta[1]:
                e = 0.5 * (e + reflect(e))
            d[beta] = c + e * (0.99 * radius(i, beta) / nu_norm(e))
        out.append(mirrored(d))
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
        WholeProducts(numerics._NormRad(cfg, NU, 2 * K - 1)),
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
    nr = numerics._NormRad(cfg, NU, 2 * K - 1)

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
        WholeProducts(numerics._NormRad(cfg, NU, 2 * K - 1)),
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
    return numerics._jet_rhs(numerics._level_fields(jet, cfg, sum(alpha)), alpha)


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
        fields = numerics._level_fields(jet, cfg, p, prev)
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
        level = set(solved(p))
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
        for alpha in solved(p):
            R = numerics.remainder_layer(mids, alpha, ms, pos)
            rhs, _ = jet_rhs(jet, cfg, alpha)
            for r, f in zip(R, rhs):
                f = np.zeros(1, dtype=complex) if f is None else f
                assert f.tobytes() == r.tobytes(), (alpha,)


@pytest.mark.parametrize("moved", [False, True], ids=["centres", "moved"])
def test_mirror_layers_within_r_of_plain_cauchy_sums(cfg, data, moved):
    # on the R-symmetric grid the level fields make each mirror layer below
    # their order as R of its source; the field of plain Cauchy sums
    # (`oracles.CauchySums`), which folds every pair of every layer, lies
    # within the norm lane's r of it, at the centres with radii zero and at
    # inputs moved within the radii, keeping the mirror rule
    grid, radii = data
    jet = lower_jet(grid, radii if moved else dict.fromkeys(radii, 0.0), top=CAP)
    oracle = oracles.CauchySums(*numerics.cfg_floats(cfg))
    rng = np.random.default_rng(13)
    inputs = perturbed(grid, lambda i, beta: radii[beta], rng) if moved else grid
    fields, worst = None, 0.0
    for p in range(2, CAP + 2):
        fields = numerics._level_fields(jet, cfg, p, fields)
        (_, floats), (_, norms) = fields
        want = model.embedded_field(
            oracle, [{b: c for b, c in comp.items() if sum(b) < p} for comp in inputs], p - 1)
        for i in range(9):
            for g, arr in floats[i].items():
                if source(g) == g or sum(g) >= p:
                    continue
                assert np.array_equal(arr, reflect(floats[i][source(g)]))
                n = max(len(arr), len(want[i][g]))
                dist = nu_norm(centered(want[i][g], n) - centered(arr, n))
                assert dist <= norms[i][g][1], (p, i, g)
                if dist:
                    worst = max(worst, dist / norms[i][g][1])
    assert worst > (1e-3 if moved else 0.0)


def test_float_kernels_inside_interval_kernels(cfg, data):
    # for the reference and the exact constants: the float kernels lie in
    # the interval kernels, and every point of those lies in its disc of
    # `numerics._DiscArith`, in exact rationals.  The discs' midpoints are
    # the float kernels but where the float lane scales by fl(m_j * -3)
    # and the discs by the midpoint of the interval m_j * -3.
    grid, _ = data
    A0 = np.array([comp[(0, 0)] for comp in grid])
    q = oracles.q
    for c in (cfg, exact_cfg()):
        fconst, fkers = numerics.derivative_kernels(A0, *numerics.cfg_floats(c))
        const, kernels = model.field_derivative(model.IntervalArith(c),
                                                [FourierSeq.point(a, NU) for a in A0])
        dconst, discs = model.field_derivative(numerics._DiscArith(c),
                                               [(a, np.zeros(len(a))) for a in A0])
        assert fconst == const == dconst
        worst = 0.0
        for i in range(9):
            for j in range(9):
                assert (fkers[i][j] is None) == (kernels[i][j] is None) == (discs[i][j] is None)
                if fkers[i][j] is None:
                    continue
                assert_in_interval(kernels[i][j], fkers[i][j])
                m, rad = discs[i][j]
                assert np.array_equal(m, fkers[i][j]) or (i in (1, 3, 5) and j >= 6), (i, j)
                box = kernels[i][j].c
                for k in range(len(m)):
                    far = [max(abs(q(e) - q(m[k].real)) for e in (box.rl[k], box.rh[k])),
                           max(abs(q(e) - q(m[k].imag)) for e in (box.il[k], box.ih[k]))]
                    assert far[0] ** 2 + far[1] ** 2 <= q(rad[k]) ** 2, (i, j, k)
                    worst = max(worst, float(max(far)) / rad[k])
        assert worst > 1e-3
    # a disc sum keeps the radii where the midpoints cancel, and only exact
    # zero discs add to one
    ones, zeros = np.full(len(A0[0]), 1e-9), np.zeros(len(A0[0]))
    m, rad = numerics._DiscArith.sum((A0[0], ones), (-A0[0], zeros))
    assert not m.any() and (rad >= 1e-9).all()
    m, rad = numerics._DiscArith.sum((0 * A0[0], zeros), (0 * A0[0], zeros))
    assert not m.any() and not rad.any()


def test_float_order0_field_is_layer_zero(cfg, data):
    grid, _ = data
    A0 = [comp[(0, 0)] for comp in grid]
    at0 = numerics.field_grid([{(0, 0): a} for a in A0], *numerics.cfg_floats(cfg), cap=0)
    full = float_field(cfg, grid)
    for i in range(9):
        assert set(at0[i]) == {(0, 0)}
        assert np.array_equal(at0[i][(0, 0)], full[i][(0, 0)])

