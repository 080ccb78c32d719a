"""The coordinates of X: block operator norms against exact rational
arithmetic, the packing of a layout, the cos/sin basis T against T as a
matrix, and the window block of a class against the whole one."""

from fractions import Fraction

import numpy as np
import pytest

from fourbody import numerics
from fourbody.opbound import (SpaceLayout, block_norms, class_slots, cos_sin_block_norms,
                              cos_sin_form, cos_sin_weights, from_cos_sin, group_col_sums)

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
