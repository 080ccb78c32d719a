"""Sequence-space algebra against exact rational oracles."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourbody.interval import ComplexInterval, Interval
from fourbody.seqspace import (
    BallElement,
    DomainExceeded,
    FourierSeq,
    FourierTaylorSeq,
    WeightMismatch,
    conv,
    eval_series,
    ft_conv,
    ft_norm,
    include,
    norm_l1nu,
    project,
)

from oracles import (
    conv_exact,
    cq_add,
    cq_conj,
    cq_mul,
    ft_conv_exact,
    l1nu_norm_exact,
)

rng = np.random.default_rng(20260814)


# -- helpers ---------------------------------------------------------------


def rand_table(n, scale=500, den=64):
    """Window of complex rationals exactly representable as floats."""
    return [
        (
            Fraction(int(rng.integers(-scale, scale + 1)), den),
            Fraction(int(rng.integers(-scale, scale + 1)), den),
        )
        for _ in range(n)
    ]


def seq_of(table, nu):
    arr = np.array([float(re) + 1j * float(im) for re, im in table])
    return FourierSeq.point(arr, nu)


def assert_seq_contains(seq: FourierSeq, table, kmin: int, slack=0.0):
    K = seq.K
    for k in range(-(K - 1), K):
        i = k - kmin
        want = table[i] if 0 <= i < len(table) else (Fraction(0), Fraction(0))
        c = seq.at(k)
        assert Fraction(c.re.lo) - slack <= want[0] <= Fraction(c.re.hi) + slack
        assert Fraction(c.im.lo) - slack <= want[1] <= Fraction(c.im.hi) + slack


def max_width(seq: FourierSeq) -> float:
    return float(
        max(np.max(seq.c.rh - seq.c.rl), np.max(seq.c.ih - seq.c.il))
    )


# -- norms -------------------------------------------------------------------


def test_norm_zero_is_exact():
    z = FourierSeq.zeros(5, 2.0)
    nm = z.norm()
    assert nm.lo == 0.0 and nm.hi == 0.0


def test_norm_identity_element():
    e0 = FourierSeq.from_entries({0: 1.0}, 1.5)
    nm = e0.norm()
    assert nm.contains(1.0)
    assert nm.hi - nm.lo < 5e-15


def test_norm_weighted_example():
    # a_0 = 1, a_1 = a_{-1} = 1/2 at nu = 2: norm is 1 + 2*(1/2 * 2) = 3
    a = FourierSeq.from_entries({0: 1.0, 1: 0.5, -1: 0.5}, 2.0)
    nm = a.norm()
    assert nm.contains(3.0)
    assert nm.hi - nm.lo < 1e-13


def test_norm_encloses_exact_value():
    for _ in range(40):
        K = int(rng.integers(1, 9))
        table = rand_table(2 * K - 1)
        nu = Fraction(int(rng.integers(1, 5)), 1) + Fraction(int(rng.integers(0, 4)), 4)
        a = seq_of(table, float(nu))
        lo_env, hi_env = l1nu_norm_exact(table, -(K - 1), nu)
        nm = a.norm()
        # true norm lies between the envelope bounds; so must the enclosure
        assert Fraction(nm.hi) >= lo_env
        assert Fraction(nm.lo) <= hi_env


# -- convolution --------------------------------------------------------------


def test_conv_identity():
    b = seq_of(rand_table(7), 1.25)
    e0 = FourierSeq.from_entries({0: 1.0}, 1.25)
    out = conv(e0, b)
    assert out.K == b.K
    for i in range(7):
        k = i - 3
        assert out.at(k).contains(b.at(k).mid)
    assert max_width(out) < 1e-12


def test_conv_index_addition():
    e1 = FourierSeq.from_entries({1: 1.0}, 1.0)
    out = conv(e1, e1)
    assert out.at(2).contains(complex(1.0, 0.0))
    for k in (-2, -1, 0, 1):
        c = out.at(k)
        assert abs(c.re.lo) < 1e-300 and abs(c.re.hi) < 1e-300


def test_conv_weight_mismatch():
    a = FourierSeq.zeros(2, 1.0)
    b = FourierSeq.zeros(2, 2.0)
    with pytest.raises(WeightMismatch):
        conv(a, b)


def test_conv_matches_rational_oracle():
    for _ in range(30):
        na = int(rng.integers(1, 5)) * 2 - 1
        nb = int(rng.integers(1, 5)) * 2 - 1
        ta, tb = rand_table(na), rand_table(nb)
        a, b = seq_of(ta, 1.5), seq_of(tb, 1.5)
        out = conv(a, b)
        want = conv_exact(ta, tb)
        kmin = -((na - 1) // 2 + (nb - 1) // 2)
        assert_seq_contains(out, want, kmin)
        assert max_width(out) < 1e-7


def test_banach_algebra_law():
    for _ in range(25):
        na = int(rng.integers(1, 5)) * 2 - 1
        nb = int(rng.integers(1, 5)) * 2 - 1
        a, b = seq_of(rand_table(na), 2.0), seq_of(rand_table(nb), 2.0)
        assert conv(a, b).norm().hi <= a.norm().hi * b.norm().hi * (1 + 1e-12)


def test_real_symmetry_closure():
    for _ in range(10):
        K = int(rng.integers(2, 5))
        half = rand_table(K - 1)
        mid = Fraction(int(rng.integers(-500, 501)), 64)
        table = [cq_conj(h) for h in reversed(half)] + [(mid, Fraction(0))] + half
        a = seq_of(table, 1.25)
        assert a.is_real_symmetric()
        out = conv(a, a)
        # enclosures of c_k and conj(c_{-k}) must overlap, and intersecting
        # them restores a bitwise-symmetric enclosure
        sym = out.symmetrize()
        assert sym.is_real_symmetric()
        want = conv_exact(table, table)
        assert_seq_contains(sym, want, -(2 * K - 2))


# -- split / project / include -------------------------------------------------


def test_project_keeps_only_low_modes():
    a = seq_of(rand_table(9), 1.5)
    p = project(a, 1)
    assert p.K == 1
    assert p.at(0).contains(a.at(0).mid)


def test_project_include_roundtrip():
    a = seq_of(rand_table(7), 1.5)
    big = include(a, 9)
    assert big.K == 9
    back = project(big, 4)
    assert back.K == 4
    for k in range(-3, 4):
        assert back.at(k).re.lo == a.at(k).re.lo
        assert back.at(k).im.hi == a.at(k).im.hi


def test_projection_error_decreases():
    a = seq_of(rand_table(13), 1.5)
    errs = [a.sub(include(project(a, M), a.K)).norm().hi for M in range(1, 8)]
    assert all(x >= y - 1e-15 for x, y in zip(errs, errs[1:]))


# -- Fourier-Taylor grids -------------------------------------------------------


def rand_grid(orders, K, nu):
    entries = {}
    for (m, n) in orders:
        entries[(m, n)] = seq_of(rand_table(2 * K - 1), nu)
    return FourierTaylorSeq(entries, nu)


def grid_tables(g: FourierTaylorSeq):
    out = {}
    for (m, n), seq in g.entries.items():
        K = seq.K
        out[(m, n)] = [
            (Fraction(float(seq.c.rl[i])), Fraction(float(seq.c.il[i])))
            for i in range(2 * K - 1)
        ]
    return out


def test_ft_norm_sums_layers():
    g = FourierTaylorSeq.zeros(2.0)
    assert g.norm().hi == 0.0
    a = FourierSeq.from_entries({0: 2.0}, 2.0)
    g1 = FourierTaylorSeq({(0, 0): a}, 2.0)
    assert g1.norm().contains(2.0)
    b = FourierSeq.from_entries({0: 1.0}, 2.0)
    c = FourierSeq.from_entries({0: 3.0}, 2.0)
    g2 = FourierTaylorSeq({(1, 0): b, (0, 2): c}, 2.0)
    assert g2.norm().contains(4.0)
    assert ft_norm(g2).hi < 4 + 1e-13


def test_ft_conv_identity_grid():
    ident = FourierTaylorSeq({(0, 0): FourierSeq.from_entries({0: 1.0}, 1.5)}, 1.5)
    c = rand_grid([(0, 0), (1, 0), (0, 1), (1, 1)], 3, 1.5)
    out = ft_conv(ident, c)
    for key, seq in c.entries.items():
        got = out.entries[key]
        for k in range(-2, 3):
            assert got.at(k).contains(seq.at(k).mid)


def test_ft_conv_order_addition():
    b = rand_grid([(1, 0)], 2, 1.5)
    c = rand_grid([(0, 1)], 2, 1.5)
    out = ft_conv(b, c)
    assert set(out.entries) == {(1, 1)}


def test_ft_conv_matches_rational_oracle():
    for _ in range(8):
        orders_a = [(m, n) for m in range(3) for n in range(3) if rng.random() < 0.7]
        orders_b = [(m, n) for m in range(3) for n in range(3) if rng.random() < 0.7]
        if not orders_a or not orders_b:
            continue
        K = int(rng.integers(1, 4))
        a = rand_grid(orders_a, K, 1.25)
        b = rand_grid(orders_b, K, 1.25)
        want = ft_conv_exact(grid_tables(a), grid_tables(b), 8)
        out = ft_conv(a, b)
        assert set(out.entries) == set(want)
        for key, table in want.items():
            assert_seq_contains(out.entries[key], table, -(2 * K - 2))


def test_ft_banach_algebra_law():
    a = rand_grid([(0, 0), (1, 0), (0, 2)], 3, 2.0)
    b = rand_grid([(0, 0), (1, 1)], 3, 2.0)
    assert ft_conv(a, b).norm().hi <= a.norm().hi * b.norm().hi * (1 + 1e-12)


# -- evaluation ------------------------------------------------------------------


def civ_point(z: complex) -> ComplexInterval:
    return ComplexInterval(Interval.point(z.real), Interval.point(z.imag))


def test_eval_constant_grid():
    g = FourierTaylorSeq({(0, 0): FourierSeq.from_entries({0: 1.0}, 1.5)}, 1.5)
    for t in (0.0, 0.3, 2.0):
        v = eval_series(g, t, civ_point(0.5 + 0.1j), civ_point(-0.2j), 1.7)
        assert v.re.contains(1.0) and v.im.contains(0.0)
        assert v.re.hi - v.re.lo < 1e-12


def test_eval_at_zero_sigma_reads_layer_zero():
    g = rand_grid([(0, 0), (1, 0), (0, 1), (2, 2)], 3, 1.5)
    v = eval_series(g, 0.0, civ_point(0.0), civ_point(0.0), 1.0)
    want_re = Fraction(0)
    want_im = Fraction(0)
    for i in range(5):
        want_re += Fraction(float(g.entries[(0, 0)].c.rl[i]))
        want_im += Fraction(float(g.entries[(0, 0)].c.il[i]))
    assert Fraction(v.re.lo) <= want_re <= Fraction(v.re.hi)
    assert Fraction(v.im.lo) <= want_im <= Fraction(v.im.hi)


def test_eval_rational_point_oracle():
    # t = 0 makes every Fourier factor 1, so the double sum is rational;
    # z = 3/5 + 4i/5 lies exactly on the unit circle
    g = rand_grid([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)], 2, 1.25)
    z1 = (Fraction(1, 2), Fraction(1, 4))
    z2 = (Fraction(-3, 8), Fraction(5, 8))
    want = (Fraction(0), Fraction(0))
    for (m, n), table in grid_tables(g).items():
        zp = (Fraction(1), Fraction(0))
        for _ in range(m):
            zp = cq_mul(zp, z1)
        for _ in range(n):
            zp = cq_mul(zp, z2)
        s = (Fraction(0), Fraction(0))
        for entry in table:
            s = cq_add(s, entry)
        want = cq_add(want, cq_mul(s, zp))
    v = eval_series(
        g, 0.0,
        civ_point(complex(0.5, 0.25)), civ_point(complex(-0.375, 0.625)), 1.3,
    )
    assert Fraction(v.re.lo) <= want[0] <= Fraction(v.re.hi)
    assert Fraction(v.im.lo) <= want[1] <= Fraction(v.im.hi)


def test_eval_domain_guard():
    g = rand_grid([(0, 0)], 2, 1.5)
    with pytest.raises(DomainExceeded):
        eval_series(g, 0.1, civ_point(1.0 + 0.1j), civ_point(0.0), 1.0)


def test_eval_ball_inflation_and_c0_domination():
    g = rand_grid([(0, 0), (1, 0), (0, 1)], 3, 1.5)
    h = rand_grid([(0, 0), (1, 0), (0, 1)], 3, 1.5)
    diff = g.sub(h)
    bound = diff.norm().hi
    for _ in range(20):
        t = float(rng.uniform(0, 7))
        r = float(rng.uniform(0, 1))
        phi = float(rng.uniform(0, 7))
        z1 = civ_point(r * complex(np.cos(phi), np.sin(phi)))
        z2 = civ_point((1 - r) * complex(np.cos(2 * phi), np.sin(2 * phi)))
        v = eval_series(diff, t, z1, z2, 2.1)
        # the enclosure of g-h at any admissible point must reach below the
        # norm bound: mig(enclosure) <= |true value| <= norm
        assert v.mig() <= bound + 1e-12
        assert v.mag() <= bound + 1e-6
    ball = BallElement(g, 0.25)
    vg = eval_series(g, 0.3, civ_point(0.1), civ_point(0.2), 2.1)
    vb = eval_series(ball, 0.3, civ_point(0.1), civ_point(0.2), 2.1)
    assert vb.re.lo <= vg.re.lo - 0.2499 and vb.re.hi >= vg.re.hi + 0.2499


# -- serialization ----------------------------------------------------------------


def test_fourier_roundtrip():
    a = seq_of(rand_table(7), 1.5)
    blob = json.dumps(a.to_json_obj(), sort_keys=True)
    back = FourierSeq.from_json_obj(json.loads(blob))
    assert back.nu == a.nu and back.K == a.K
    assert np.array_equal(back.c.rl, a.c.rl)
    assert np.array_equal(back.c.rh, a.c.rh)
    assert np.array_equal(back.c.il, a.c.il)
    assert np.array_equal(back.c.ih, a.c.ih)


def test_grid_roundtrip():
    g = rand_grid([(0, 0), (2, 1)], 3, 1.25)
    blob = json.dumps(g.to_json_obj(), sort_keys=True)
    back = FourierTaylorSeq.from_json_obj(json.loads(blob))
    assert set(back.entries) == set(g.entries)
    for key in g.entries:
        assert np.array_equal(back.entries[key].c.rl, g.entries[key].c.rl)


# -- hypothesis sweeps ---------------------------------------------------------------


coeff = st.integers(min_value=-300, max_value=300)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(coeff, coeff), min_size=1, max_size=4),
    st.lists(st.tuples(coeff, coeff), min_size=1, max_size=4),
)
def test_hyp_conv_containment(la, lb):
    ta = [(Fraction(x, 32), Fraction(y, 32)) for x, y in la]
    tb = [(Fraction(x, 32), Fraction(y, 32)) for x, y in lb]
    if len(ta) % 2 == 0:
        ta.append((Fraction(0), Fraction(0)))
    if len(tb) % 2 == 0:
        tb.append((Fraction(0), Fraction(0)))
    a, b = seq_of(ta, 1.5), seq_of(tb, 1.5)
    out = conv(a, b)
    want = conv_exact(ta, tb)
    kmin = -((len(ta) - 1) // 2 + (len(tb) - 1) // 2)
    assert_seq_contains(out, want, kmin)
