"""The coordinates of X and its norm: block operator norms and the tail of
the norm against exact rational arithmetic, the packing of a layout, the
cos/sin basis T against T as a matrix, and the window block of a class
against the whole one."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fourbody import numerics, stages
from fourbody.opbound import (ResonantExponents, SpaceLayout, block_norms, class_slots,
                              cos_sin_block_norms, cos_sin_form, cos_sin_weights,
                              from_cos_sin, group_col_sums, inv_dist_up, nu_bounds,
                              seq_tail_weighted, tail_col_profile, tail_row_bounds)

rng = np.random.default_rng(11)


def test_block_norms_bound_the_exact_block_norms():
    # nu = 3/2 makes every weight nu^|k| rational, so the block norms
    # max_l sum_k nu^|k| |U_kl| / nu^|l| are exact Fractions: block_norms
    # bounds each from above, within 1e-12 relative, on entries over 40
    # decades, the scalar groups and an exactly zero column included
    layout = SpaceLayout(2, 5)
    n = layout.n
    U = np.abs(rng.standard_normal((n, n))) * 10.0 ** rng.integers(-20, 20, (n, n))
    U[:, 7] = 0.0
    got = block_norms(U, layout, 1.5)
    weight = [Fraction(3, 2) ** int(k) for k in layout.kabs]
    for r, rs in enumerate(layout.slices):
        for c, cs in enumerate(layout.slices):
            exact = max(sum(Fraction(float(U[k, l])) * weight[k] for k in range(rs.start, rs.stop))
                        / weight[l] for l in range(cs.start, cs.stop))
            assert Fraction(float(got[r, c])) >= exact, (r, c)
            assert got[r, c] <= float(exact) * (1.0 + 1e-12), (r, c)


# The tail of the norm, at nu = 3/2 and a float omega, both read as
# Fractions.  At s = 0, |-i omega k| = omega |k| is rational; at s != 0,
# 1 / |-i omega k - s| is enclosed in rationals by math.isqrt.
NU = Fraction(3, 2)
OMEGA = 2.316
# rounding an exact zero up gives the least subnormal
TINY = Fraction(float(np.nextafter(0.0, 1.0)))


def inv_dist(k: int, s: float):
    """Rational bounds (lo, hi) of 1 / |-i OMEGA k - s|."""
    if s == 0.0:
        exact = 1 / (Fraction(OMEGA) * abs(k))
        return exact, exact
    d2 = (Fraction(OMEGA) * k) ** 2 + Fraction(s) ** 2
    bits = 80
    # sqrt(d2) lies in [r, r + 1] / 2^bits
    r = math.isqrt(d2.numerator * 4**bits // d2.denominator)
    return Fraction(2**bits, r + 1), Fraction(2**bits, r)


def assert_bounds(got, lo, hi):
    """got >= hi, an upper bound of the value the code claims, and within
    1e-12 relative of lo, a lower bound of it."""
    assert Fraction(float(got)) >= hi, (float(got), float(hi))
    assert Fraction(float(got)) <= lo * (1 + Fraction(1, 10**12)) + TINY, \
        (float(got), float(lo))


def test_nu_bounds_bound_the_powers_of_three_halves():
    k = np.arange(61)
    w_up, winv_up = nu_bounds(1.5, k)
    for kk in k:
        assert_bounds(w_up[kk], NU ** int(kk), NU ** int(kk))
        assert_bounds(winv_up[kk], NU ** -int(kk), NU ** -int(kk))
    # any order of |k|, repeats included, reads the same table
    ks = np.array([7, 0, 60, 7])
    assert np.array_equal(np.stack(nu_bounds(1.5, ks)), np.stack([w_up[ks], winv_up[ks]]))


@pytest.mark.parametrize("W", [0, 3, 8])
def test_tail_col_profile_is_the_exact_sup(W):
    # per window row k of K = 5: the sup over the columns |l| >= K of
    # |g(k - l)| nu^-|l|, exact up to one rounding of each product; heavy
    # ends make the farthest columns, |l| = K - 1 + W, set the edge rows
    K = 5
    g = 10.0 ** rng.uniform(-6, 0, 2 * W + 1)
    g[[0, -1]] = 1e3
    got = tail_col_profile(g, K, 1.5)
    assert got.shape == (2 * K - 1,)
    for i, k in enumerate(range(-(K - 1), K)):
        terms = [Fraction(float(g[k - l + W])) * NU ** -abs(l)
                 for l in range(-(K + 2 * W), K + 2 * W + 1)
                 if abs(l) >= K and abs(k - l) <= W]
        exact = max(terms, default=Fraction(0))
        if W == 0:
            assert got[i] == 0.0
        else:
            assert_bounds(got[i], exact, exact)


@pytest.mark.parametrize("s", [0.0, -1.3])
def test_tail_row_bounds_bound_every_column(s):
    # each kernel g's tail row: nu^-|l| sum_{|k| >= K} nu^|k| |g(k - l)| / |-i omega k - s|
    # on every column |l| <= K + 4W, which covers both the exactly correlated
    # band |l| <= K - 1 + 2W and the cap gnorm / dist(K + W) beyond it; the
    # bound is within 1e-12 of the larger of the exact band and the cap
    K = 6
    kmags = [[None] * 9 for _ in range(9)]
    kmags[0][1] = 10.0 ** rng.uniform(-6, 0, 2 * 2 + 1)
    kmags[3][3] = 10.0 ** rng.uniform(-6, 0, 2 * 7 + 1)
    kmags[3][3][7] = 2.0  # a heavy centre: the band beats the cap
    kmags[8][2] = np.array([0.75])
    kmags[5][4] = np.zeros(5)
    live = ((0, 1), (3, 3), (8, 2))
    knorms = np.zeros((9, 9))
    for i, j in live:
        # the nu-norm of g, rounded up
        g = kmags[i][j]
        W = (len(g) - 1) // 2
        norm = sum(Fraction(float(x)) * NU ** abs(m - W) for m, x in enumerate(g))
        knorms[i, j] = float(norm)
        if Fraction(knorms[i, j]) < norm:
            knorms[i, j] = np.nextafter(knorms[i, j], np.inf)
    got = tail_row_bounds(kmags, knorms, K, 1.5, OMEGA, s)
    assert got.shape == (9, 9)
    assert np.count_nonzero(got) == 3
    band_wins = 0
    for i, j in live:
        g = kmags[i][j]
        W = (len(g) - 1) // 2
        cols = {}
        for l in range(-(K + 4 * W), K + 4 * W + 1):
            lo = hi = Fraction(0)
            for k in range(l - W, l + W + 1):
                if abs(k) >= K:
                    term = NU ** (abs(k) - abs(l)) * Fraction(float(g[k - l + W]))
                    dlo, dhi = inv_dist(k, s)
                    lo, hi = lo + term * dlo, hi + term * dhi
            cols[l] = lo, hi
        band_lo = max(lo for l, (lo, _) in cols.items() if abs(l) <= K - 1 + 2 * W)
        cap_lo, cap_hi = (Fraction(float(knorms[i, j])) * d for d in inv_dist(K + W, s))
        assert_bounds(got[i, j], max(band_lo, cap_lo), max(hi for _, hi in cols.values()))
        assert Fraction(float(got[i, j])) >= cap_hi
        band_wins += band_lo > cap_hi
    assert band_wins


@pytest.mark.parametrize("s", [0.0, 0.7])
def test_seq_tail_weighted_is_the_exact_sum(s):
    # sum_{|k| >= K} nu^|k| |r_k| / |-i omega k - s| for a sequence of 2h + 1
    # modes, and each sequence of a stack gets the bits it gets alone
    K, h = 6, 14
    mags = 10.0 ** rng.uniform(-12, 0, (3, 2 * h + 1))
    got = seq_tail_weighted(mags, K, 1.5, OMEGA, s)
    assert got.shape == (3,)
    for b in range(3):
        assert seq_tail_weighted(mags[b], K, 1.5, OMEGA, s) == got[b]
        lo = hi = Fraction(0)
        for k in range(-h, h + 1):
            if abs(k) >= K:
                term = NU ** abs(k) * Fraction(float(mags[b, k + h]))
                dlo, dhi = inv_dist(k, s)
                lo, hi = lo + term * dlo, hi + term * dhi
        assert_bounds(got[b], lo, hi)
    # a sequence that fits in the window has no tail
    assert np.array_equal(seq_tail_weighted(mags[:, h - K + 1:h + K], K, 1.5, OMEGA, s),
                          np.zeros(3))


def test_inv_dist_up_refuses_a_zero_distance():
    ks = np.array([0, 1, 5])
    with pytest.raises(ResonantExponents):
        inv_dist_up(ks, 0.0, 0.0)
    for k, got in zip(ks[1:], inv_dist_up(ks[1:], OMEGA, 0.0)):
        assert_bounds(got, *inv_dist(int(k), 0.0))
    # the stages re-export the one exception the pipeline catches
    assert stages.ResonantExponents is ResonantExponents


@pytest.mark.parametrize("cls", [None, 1, -1])
@pytest.mark.parametrize("ns", [0, 1, 4])
def test_unpack_inverts_pack_on_the_class(ns, cls):
    # unpack(pack(s, A)) gives s back and A with every entry off the class
    # zero; a stack packs row by row
    K = 5
    layout = SpaceLayout(ns, K, cls)
    s = rng.standard_normal(ns) + 1j * rng.standard_normal(ns)
    A = rng.standard_normal((9, 2 * K - 1)) + 1j * rng.standard_normal((9, 2 * K - 1))
    z = layout.pack(s, A)
    assert z.shape == (layout.n,)
    got_s, got_A = layout.unpack(z)
    assert np.array_equal(got_s, s)
    on = np.zeros(A.size, dtype=bool)
    on[np.arange(A.size) if cls is None else class_slots(K, cls)] = True
    assert np.array_equal(got_A.ravel()[on], A.ravel()[on])
    assert not got_A.ravel()[~on].any()
    stack = layout.pack(np.array([s, 2 * s]), np.array([A, 2 * A]))
    assert np.array_equal(stack, np.array([z, layout.pack(2 * s, 2 * A)]))


@pytest.mark.parametrize("ns", [0, 4])
@pytest.mark.parametrize("cls", [1, -1])
def test_base_block_of_a_class_is_the_whole_block_restricted(ns, cls):
    # the class block, made directly, is the whole block's rows and columns
    # of the class's slots, bit for bit; the layout's scalars are left out
    K = 6
    n = 2 * K - 1
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    const = np.where(rng.random((9, 9)) < 0.5, 0.0, rng.standard_normal((9, 9)))
    kernels = [[None if rng.random() < 0.3 else
                rng.standard_normal(2 * w + 1) + 1j * rng.standard_normal(2 * w + 1)
                for w in rng.integers(0, 2 * K, 9)] for _ in range(9)]
    whole = numerics.base_block(const, kernels, SpaceLayout(ns, K), diag)
    assert whole.shape == (9 * n, 9 * n)
    slots = class_slots(K, cls)
    block = numerics.base_block(const, kernels, SpaceLayout(ns, K, cls), diag)
    assert np.array_equal(block, whole[np.ix_(slots, slots)])


def _dense_T(ns: int, K: int) -> np.ndarray:
    """T as a matrix: the identity on the scalars and on mode 0; the slots
    of k and -k hold c_k and s_k, with h_k = c_k + i s_k, h_-k = c_k - i s_k."""
    n = 2 * K - 1
    T = np.zeros((ns + 9 * n,) * 2, dtype=complex)
    T[np.arange(ns), np.arange(ns)] = 1.0
    for j in range(9):
        zero = ns + j * n + K - 1
        T[zero, zero] = 1.0
        for k in range(1, K):
            p, m = zero + k, zero - k
            T[p, p] = T[m, p] = 1.0
            T[p, m], T[m, m] = 1j, -1j
    return T


def test_cos_sin_transforms_match_dense_t():
    # the view-based transforms against T as a matrix, on random data: M and
    # Im are T^H J T, Jhat is T B T^H, and the term-1 block norms are those
    # of |T| E |T^-1| formed entry by entry; on the whole windows and on each
    # class of Q, whose windows hold K or K - 1 slots: T maps each class to
    # itself, so its block on a class is the class's T
    ns, K, nu = 2, 4, 1.5
    whole = _dense_T(ns, K)
    for cls in (None, 1, -1):
        layout = SpaceLayout(ns, K, cls)
        keep = np.concatenate([np.arange(ns), ns + layout.slots])
        T = whole[np.ix_(keep, keep)]
        N = layout.n
        J = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        M, Im = cos_sin_form(J, layout)
        assert np.allclose(M + 1j * Im, T.conj().T @ J @ T, rtol=0, atol=1e-13), cls
        B = rng.standard_normal((N, N))
        work = np.empty((N, N)), np.empty((N, N))
        assert np.allclose(from_cos_sin(B, layout, *work), T @ B @ T.conj().T,
                           rtol=0, atol=1e-13), cls
        E = np.abs(rng.standard_normal((N, N)))
        want = block_norms(np.abs(T) @ E @ np.abs(np.linalg.inv(T)), layout, nu)
        S = group_col_sums(cos_sin_weights(layout, nu), E, layout)
        got = cos_sin_block_norms(S, layout, nu)
        assert np.allclose(got, want, rtol=1e-13, atol=0), cls
        assert (got >= want * (1.0 - 1e-14)).all(), cls
