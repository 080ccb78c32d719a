"""Sequence-space algebra against exact rational oracles."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourbody.ivarray import CArr
from fourbody.seqspace import (
    FourierSeq,
    WeightMismatch,
    conv,
    include,
    project,
)

from oracles import (
    FourierTaylorSeq,
    conv_exact,
    cq_conj,
    ft_conv,
    ft_conv_exact,
    l1nu_norm_exact,
    seq_from_entries,
    seq_json_reference,
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
    assert FourierSeq.zeros(5, 2.0).norm_upper() == 0.0


def test_norm_identity_element():
    e0 = seq_from_entries({0: 1.0}, 1.5)
    assert 1.0 <= e0.norm_upper() < 1.0 + 5e-15


def test_norm_weighted_example():
    # a_0 = 1, a_1 = a_{-1} = 1/2 at nu = 2: norm is 1 + 2*(1/2 * 2) = 3
    a = seq_from_entries({0: 1.0, 1: 0.5, -1: 0.5}, 2.0)
    assert 3.0 <= a.norm_upper() < 3.0 + 1e-13


def test_norm_encloses_exact_value():
    for _ in range(40):
        K = int(rng.integers(1, 9))
        table = rand_table(2 * K - 1)
        nu = Fraction(int(rng.integers(1, 5)), 1) + Fraction(int(rng.integers(0, 4)), 4)
        a = seq_of(table, float(nu))
        lo_env, _ = l1nu_norm_exact(table, -(K - 1), nu)
        # the true norm is at least the lower envelope; so is its upper bound
        assert Fraction(a.norm_upper()) >= lo_env


# -- convolution --------------------------------------------------------------


def test_conv_identity():
    b = seq_of(rand_table(7), 1.25)
    e0 = seq_from_entries({0: 1.0}, 1.25)
    out = conv(e0, b)
    assert out.K == b.K
    for i in range(7):
        k = i - 3
        got, want = out.at(k), b.at(k)
        assert got.re.contains(want.re.mid) and got.im.contains(want.im.mid)
    assert max_width(out) < 1e-12


def test_conv_index_addition():
    e1 = seq_from_entries({1: 1.0}, 1.0)
    out = conv(e1, e1)
    assert out.at(2).re.contains(1.0) and out.at(2).im.contains(0.0)
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
        assert conv(a, b).norm_upper() <= a.norm_upper() * b.norm_upper() * (1 + 1e-12)


def test_real_symmetry_closure():
    for _ in range(10):
        K = int(rng.integers(2, 5))
        half = rand_table(K - 1)
        mid = Fraction(int(rng.integers(-500, 501)), 64)
        table = [cq_conj(h) for h in reversed(half)] + [(mid, Fraction(0))] + half
        a = seq_of(table, 1.25)
        r = a.conj_reflect()
        assert all(np.array_equal(getattr(a.c, lane), getattr(r.c, lane))
                   for lane in ("rl", "rh", "il", "ih"))
        out = conv(a, a)
        # the exact square is real-symmetric too, so both the enclosure and
        # its conjugate reflection contain it
        want = conv_exact(table, table)
        assert_seq_contains(out, want, -(2 * K - 2))
        assert_seq_contains(out.conj_reflect(), want, -(2 * K - 2))


# -- split / project / include -------------------------------------------------


def test_project_keeps_only_low_modes():
    a = seq_of(rand_table(9), 1.5)
    p = project(a, 1)
    assert p.K == 1
    assert p.at(0).re.contains(a.at(0).re.mid) and p.at(0).im.contains(a.at(0).im.mid)


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
    errs = [a.sub(include(project(a, M), a.K)).norm_upper() for M in range(1, 8)]
    assert all(x >= y - 1e-15 for x, y in zip(errs, errs[1:]))


# -- Fourier-Taylor grids: the multi-layer reference of the oracles -------------


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
    assert g.norm_upper() == 0.0
    a = seq_from_entries({0: 2.0}, 2.0)
    g1 = FourierTaylorSeq({(0, 0): a}, 2.0)
    assert g1.norm_upper() >= 2.0
    b = seq_from_entries({0: 1.0}, 2.0)
    c = seq_from_entries({0: 3.0}, 2.0)
    g2 = FourierTaylorSeq({(1, 0): b, (0, 2): c}, 2.0)
    assert 4.0 <= g2.norm_upper() < 4 + 1e-13


def test_ft_conv_identity_grid():
    ident = FourierTaylorSeq({(0, 0): seq_from_entries({0: 1.0}, 1.5)}, 1.5)
    c = rand_grid([(0, 0), (1, 0), (0, 1), (1, 1)], 3, 1.5)
    out = ft_conv(ident, c)
    for key, seq in c.entries.items():
        got = out.entries[key]
        for k in range(-2, 3):
            c, want = got.at(k), seq.at(k)
            assert c.re.contains(want.re.mid) and c.im.contains(want.im.mid)


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
    assert ft_conv(a, b).norm_upper() <= a.norm_upper() * b.norm_upper() * (1 + 1e-12)


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


def test_json_bytes_equal_the_reference_formatter():
    # points, boxes and signed zeros: -0.0 equals 0.0 as a number, so a lane
    # pair that differs only in the sign of a zero is a box, not a point
    point = seq_of(rand_table(9), 1.5)
    boxed = point.scale(0.7 + 0.0j).add(seq_of(rand_table(9), 1.5))
    zeros = FourierSeq.point(np.array([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 2.5]),
                             1.5)
    signed = FourierSeq(CArr(np.array([0.0, 1.0, 0.0]), np.array([-0.0, 1.0, 0.0]),
                             np.zeros(3), np.array([0.0, 0.0, -0.0])), 1.5)
    assert point.is_point() and not boxed.is_point() and signed.is_point()
    for seq in (point, boxed, zeros, zeros.conj_reflect(), signed, FourierSeq.zeros(3, 1.2)):
        got = json.dumps(seq.to_json_obj())
        assert got == json.dumps(seq_json_reference(seq))
        assert FourierSeq.from_json_obj(json.loads(got)).to_json_obj() == seq.to_json_obj()


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
