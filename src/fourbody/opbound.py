"""The coordinates of X and its norm, with verified operator-norm bookkeeping.

Every stage works on one product space X = C^ns x (l^1_nu)^9 at a window K,
with the norm max(|scalars|, max_i ||seq_i||).  This module owns its
coordinates: the slots of each class of the half-period reflection Q and the
packing of a vector (`SpaceLayout`), and the cos/sin basis T in which the
operator of a real shift is real (`cos_sin_inverse`).  It owns the norm too:
the bounds of the weights nu^|k| and nu^-|k| (`nu_bounds`, from the table of
`seqspace.nu_weights`), the group and block norms, and the tail of the norm
beyond the window, where an operator of a stage is the diagonal
-i omega k - s: the tail weights nu^|k| / |-i omega k - s| of a sequence
(`seq_tail_weighted`) and of a kernel's rows, with their cap on the far
columns (`tail_row_bounds`).  A bounded operator on X splits into blocks
indexed by (row group, column group), one group per scalar and one per
window; its norm is bounded by

    ||B|| <= max_r sum_c N[r,c],   N[r,c] = sup_{l in c} (1/w_l) sum_{k in r} w_k |B_kl|

with w the nu-power weight (1 on scalar positions).  Everything here returns
float upper bounds computed with outward nudges; midpoint-radius matrix
products come from ivarray.
"""

from __future__ import annotations

import numpy as np

from .ivarray import _U, _dn, _gemm_gamma, _up, conv_up_nonneg, mm_up_nonneg, up_sum
from .seqspace import nu_weights

__all__ = [
    "ResonantExponents",
    "nu_bounds",
    "Q_SIGMA",
    "class_slots",
    "SpaceLayout",
    "block_norms",
    "group_col_sums",
    "norm_rows",
    "opnorm_upper",
    "group_vec_norms",
    "group_max",
    "inv_dist_up",
    "seq_tail_weighted",
    "tail_col_profile",
    "tail_row_bounds",
    "run_pairs",
    "window_runs",
    "cos_sin_form",
    "from_cos_sin",
    "from_cos_sin_rows",
    "cos_sin_weights",
    "cos_sin_block_norms",
    "cos_sin_inverse",
]


class ResonantExponents(ArithmeticError):
    """The enclosure of Re(lambda) contains zero, or a tail distance
    |-i omega k - s| is not bounded away from zero; no spectral gap."""


def nu_bounds(nu: float, kabs):
    """(w_up, winv_up): upper bounds of nu^|k| and nu^-|k| for an integer
    array of |k| values.  fl(1 / w_dn) is one of the two floats around
    1 / w_dn >= nu^-|k|, so one step up bounds it."""
    kabs = np.asarray(kabs, dtype=int)
    w_dn, w_up = nu_weights(nu, int(kabs.max()) + 1 if kabs.size else 1)
    return w_up[kabs], _up(1.0 / w_dn)[kabs]


# sigma_c of the half-period reflection Q, (Q h)_(c,k) = sigma_c (-1)^k h_(c,k)
Q_SIGMA = np.array([1, 1, 1, 1, -1, -1, 1, 1, 1])


def class_slots(K: int, cls: int) -> np.ndarray:
    """The sorted slots of nine windows of 2K-1 modes where Q = cls."""
    k = np.arange(-(K - 1), K)
    q = Q_SIGMA[:, None] * (1 - 2 * (k % 2))
    return np.flatnonzero(q.ravel() == cls)


class SpaceLayout:
    """The slots of X = C^ns x (l^1_nu)^9 at window K: ns scalars, then nine
    windows, each its component's modes in ascending order: all 2K-1 modes
    k = -(K-1)..K-1, or with cls the K or K-1 of that class of Q.  `slots`
    maps the window slots into the nine whole windows, `slices` holds one
    group per scalar, then one per window, `wpos` is the position k + K - 1
    of each entry in its window (K - 1 on the scalars), and `kabs` is |k|
    per entry (0 on the scalars).  A vector of X is packed as [scalars, the
    slots of the nine window rows] (`pack`, `unpack`)."""

    def __init__(self, ns: int, K: int, cls: int | None = None):
        if K < 1:
            raise ValueError("seq window must be >= 1")
        n = 2 * K - 1
        self.ns, self.K, self.cls = ns, K, cls
        self.slots = np.arange(9 * n) if cls is None else class_slots(K, cls)
        self.n = ns + len(self.slots)
        ends = ns + np.searchsorted(self.slots, n * np.arange(10))
        self.slices = ([slice(i, i + 1) for i in range(ns)]
                       + [slice(a, b) for a, b in zip(ends[:-1], ends[1:])])
        self.wpos = np.concatenate([np.full(ns, K - 1), self.slots % n])
        self.kabs = np.abs(self.wpos - (K - 1))

    def pack(self, scalars, rows):
        """[scalars, the slots of the nine window rows flattened], along the
        last axis: one vector, or one per stage of a stack of scalars
        (..., ns) and rows (..., 9, 2K-1)."""
        rows = np.asarray(rows)
        return np.concatenate([np.asarray(scalars),
                               rows.reshape(rows.shape[:-2] + (-1,))[..., self.slots]],
                              axis=-1)

    def unpack(self, z):
        """(scalars, the nine window rows) of a vector z packed by `pack`,
        the rows zero off the slots."""
        rows = np.zeros(9 * (2 * self.K - 1), dtype=complex)
        rows[self.slots] = z[self.ns:]
        return z[:self.ns], rows.reshape(9, -1)


def group_col_sums(w, X, layout: SpaceLayout):
    """Upper bounds of the weighted column sums sum_k w_k X[k, :] over the
    rows k of each group of `layout`, one row per group, for a nonnegative X
    whose rows are the slots of the layout and their weights w."""
    out = np.zeros((len(layout.slices), X.shape[1]))
    for ri, rows in enumerate(layout.slices):
        out[ri] = mm_up_nonneg(w[rows], X[rows])
    return out


def block_norms(absU, layout: SpaceLayout, nu: float):
    """Upper bounds N[r,c] of the block operator norms of |U| on X."""
    absU = np.asarray(absU, dtype=float)
    if absU.shape != (layout.n, layout.n):
        raise ValueError("matrix shape does not match layout")
    w_up, winv_up = nu_bounds(nu, layout.kabs)
    colsum = _up(group_col_sums(w_up, absU, layout) * winv_up)
    return np.array([colsum[:, sl].max(axis=1, initial=0.0)
                     for sl in layout.slices]).T


def norm_rows(N):
    """Row sums of the block-norm table, rounded up."""
    return np.array([up_sum(row) for row in np.asarray(N, dtype=float)])


def opnorm_upper(N) -> float:
    return float(norm_rows(N).max())


def group_vec_norms(absv, layout: SpaceLayout, nu: float):
    """Per-group norm upper bounds of a nonnegative vector: the ns scalar
    entries, then the weighted sum over each window."""
    absv = np.asarray(absv, dtype=float)
    if absv.shape != (layout.n,):
        raise ValueError("vector length does not match layout")
    w_up, _ = nu_bounds(nu, layout.kabs)
    weighted = _up(absv * w_up)
    ns = layout.ns
    return np.concatenate([weighted[:ns],
                           [up_sum(weighted[sl]) for sl in layout.slices[ns:]]])


def group_max(v: np.ndarray, ns: int, tail) -> float:
    """max over the groups of X of a per-group bound v: the ns scalar
    entries as they are, each window's entry plus its tail term, rounded up."""
    return float(max(v[:ns].max(initial=0.0), _up(v[ns:] + tail).max()))


def inv_dist_up(kabs, omega: float, s: float) -> np.ndarray:
    """Upper bounds of 1 / |-i omega k - s| over |k| in kabs, for a real s.

    Valid for both signs of k: |-i omega k - s|^2 = (omega k)^2 + s^2, and
    s is a chosen float.
    """
    kabs = np.asarray(kabs, dtype=float)
    t = _dn(omega * kabs)
    sr = abs(s)
    den2 = _dn(_dn(sr * sr) + _dn(t * t))
    den = _dn(np.sqrt(np.maximum(den2, 0.0)))
    if np.any(den <= 0.0):
        raise ResonantExponents(
            "diagonal tail is not bounded away from zero (omega=%r, s=%r)"
            % (omega, s)
        )
    return _up(1.0 / den)


def seq_tail_weighted(mags: np.ndarray, K: int, nu: float, omega: float, s: float):
    """Upper bound of sum_{|k| >= K} nu^|k| |r_k| / |-i omega k - s| for a
    sequence r whose moduli are at most mags, its modes in ascending order
    along the last axis: one bound, or one per sequence of a stack."""
    h = (mags.shape[-1] - 1) // 2
    kabs = np.abs(np.arange(-h, h + 1))
    mask = kabs >= K
    if not mask.any():
        return np.zeros(mags.shape[:-1])
    ka = kabs[mask]
    terms = _up(_up(mags[..., mask] * nu_bounds(nu, ka)[0]) * inv_dist_up(ka, omega, s))
    sums = [up_sum(row) for row in terms.reshape(-1, terms.shape[-1])]
    return np.array(sums).reshape(mags.shape[:-1])


def tail_col_profile(gabs: np.ndarray, K: int, nu: float) -> np.ndarray:
    """Per window row k: sup over |l| >= K of |g(k-l)| nu^-|l| (kernel column tails)."""
    W = (len(gabs) - 1) // 2
    n = 2 * K - 1
    out = np.zeros(n)
    if W == 0 or not gabs.any():
        # width-zero kernels never couple a window row to a tail column
        return out
    kwin = np.arange(-(K - 1), K)
    for sign in (1, -1):
        ls = sign * np.arange(K, K + W)
        d = kwin[:, None] - ls[None, :]
        valid = np.abs(d) <= W
        vals = np.where(valid, gabs[np.clip(d + W, 0, 2 * W)], 0.0)
        prof = _up(vals * nu_bounds(nu, np.abs(ls))[1][None, :]).max(axis=1)
        out = np.maximum(out, prof)
    return out


def tail_row_bounds(kmags, knorms, K: int, nu: float, omega: float, s: float) -> np.ndarray:
    """The 9 x 9 table of kernel tail rows at shift s: for the kernel g of
    moduli kmags[i][j] (None for none) and nu-norm at most knorms[i, j], the
    sup over all columns l of nu^-|l| sum_{|k| >= K} nu^|k| |g(k-l)| / |-i omega k - s|.

    With W the half-width of g, the tail weights u_k = nu^|k| / |-i omega k - s|
    (zero on the window) are correlated with g exactly on the columns
    |l| <= K-1+2W; beyond that every contributing k has |k| >= |l| - W, so
    the column is capped by knorms[i, j] / dist(K + W).  The weights are
    made once per half-width; the kernels have few widths."""
    out = np.zeros((9, 9))
    weights = {}
    for i, row in enumerate(kmags):
        for j, g in enumerate(row):
            if g is None or not g.any():
                continue
            W = (len(g) - 1) // 2
            if W not in weights:
                Lmax = K - 1 + 2 * W
                Ku = Lmax + W
                kabs = np.abs(np.arange(-Ku, Ku + 1))
                mask = kabs >= K
                u = np.zeros(kabs.size)
                u[mask] = _up(nu_bounds(nu, kabs[mask])[0] * inv_dist_up(kabs[mask], omega, s))
                ls = np.abs(np.arange(2 * (Ku + W) + 1) - (Ku + W))
                sel = ls <= Lmax
                far = float(inv_dist_up(np.array([K + W]), omega, s)[0])
                weights[W] = u, sel, nu_bounds(nu, ls[sel])[1], far
            u, sel, nu_inv, far = weights[W]
            S = conv_up_nonneg(u, g[::-1])
            near = float(_up(S[sel] * nu_inv).max())
            out[i, j] = max(near, float(_up(knorms[i, j] * far)))
    return out


def run_pairs(X: np.ndarray, start: int, count: int, L: int, axis: int):
    """Views (plus, minus, zero) of `count` windows of L entries of X from
    entry start on, along axis 0 (rows) or 1 (columns), made by reshaping
    to (count, L): each window holds the modes of one component in
    ascending order, the same |k| on both sides, so entry j of plus and of
    minus are the j-th smallest k > 0 and its -k, and zero is mode 0 (None
    when the window holds none)."""
    h, odd = divmod(L, 2)
    if axis == 0:
        v = X[start:start + count * L].reshape(count, L, -1)
        return v[:, h + odd:], v[:, :h][:, ::-1], (v[:, h] if odd else None)
    v = X[:, start:start + count * L].reshape(-1, count, L)
    return v[..., h + odd:], v[..., :h][..., ::-1], (v[..., h] if odd else None)


def window_runs(layout: SpaceLayout) -> list:
    """The windows of `layout` as runs (start, count, L) for `run_pairs`:
    count neighbouring components whose windows have L slots each, from
    slot start on.  A window of one class of Q has K or K - 1 slots."""
    runs = []
    for sl in layout.slices[layout.ns:]:
        L = sl.stop - sl.start
        if runs and runs[-1][2] == L:
            runs[-1][1] += 1
        elif L:
            runs.append([sl.start, 1, L])
    return runs


def cos_sin_form(J: np.ndarray, layout: SpaceLayout):
    """(M, Im), the real and imaginary part of the float T^H J T, for a J
    on the slots of `layout`.

    T^H takes each pair of rows (h_k, h_-k) to (h_k + h_-k, i (h_-k - h_k)),
    T each pair of columns (x_k, x_-k) to (x_k + x_-k, i (x_k - x_-k)); the
    scalars and mode 0 stay.  Each entry is two rounded sums, the second
    step made in place."""
    N, ns, runs = J.shape[0], layout.ns, window_runs(layout)
    jr, ji = J.real, J.imag
    yr, yi = np.empty((N, N)), np.empty((N, N))
    yr[:ns], yi[:ns] = jr[:ns], ji[:ns]
    for run in runs:
        (rp, rm, r0), (ip, im, i0) = run_pairs(jr, *run, 0), run_pairs(ji, *run, 0)
        (yrp, yrm, yr0), (yip, yim, yi0) = run_pairs(yr, *run, 0), run_pairs(yi, *run, 0)
        np.add(rp, rm, out=yrp)
        np.add(ip, im, out=yip)
        np.subtract(ip, im, out=yrm)
        np.subtract(rm, rp, out=yim)
        if r0 is not None:
            yr0[...], yi0[...] = r0, i0
    for run in runs:
        (rp, rm, _), (ip, im, _) = run_pairs(yr, *run, 1), run_pairs(yi, *run, 1)
        t = rp - rm
        rp += rm
        np.subtract(im, ip, out=rm)
        ip += im
        im[...] = t
    return yr, yi


def from_cos_sin(B: np.ndarray, layout: SpaceLayout, zr: np.ndarray,
                 zi: np.ndarray) -> np.ndarray:
    """T B T^H for a real B on the slots of `layout`, as a complex array; zr
    and zi are work arrays of B's shape.  B T^H only moves entries and flips
    signs; T then makes each part of an entry one rounded sum
    (`from_cos_sin_rows`)."""
    ns = layout.ns
    zr[:, :ns], zi[:, :ns] = B[:, :ns], 0.0
    for run in window_runs(layout):
        bp, bm, b0 = run_pairs(B, *run, 1)
        (rp, rm, r0), (ip, im, i0) = run_pairs(zr, *run, 1), run_pairs(zi, *run, 1)
        rp[...], rm[...] = bp, bp
        np.negative(bm, out=ip)
        im[...] = bm
        if b0 is not None:
            r0[...], i0[...] = b0, 0.0
    return from_cos_sin_rows(zr, zi, layout)


def from_cos_sin_rows(zr: np.ndarray, zi: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """T Z, as a complex array, for Z = zr + i zi with rows on the slots of
    `layout`: the rows (c, s) of a pair become (c + i s, c - i s), each part
    of an entry one rounded sum; the scalars and mode 0 stay."""
    A = np.empty(zr.shape, dtype=complex)
    ar, ai = A.real, A.imag
    ns = layout.ns
    ar[:ns], ai[:ns] = zr[:ns], zi[:ns]
    for run in window_runs(layout):
        (rp, rm, r0), (ip, im, i0) = run_pairs(zr, *run, 0), run_pairs(zi, *run, 0)
        (arp, arm, ar0), (aip, aim, ai0) = run_pairs(ar, *run, 0), run_pairs(ai, *run, 0)
        np.subtract(rp, im, out=arp)
        np.add(ip, rm, out=aip)
        np.add(rp, im, out=arm)
        np.subtract(ip, rm, out=aim)
        if r0 is not None:
            ar0[...], ai0[...] = r0, i0
    return A


def cos_sin_weights(layout: SpaceLayout, nu: float) -> np.ndarray:
    """The weight of each slot in a row of |T| E: that row is the sum of the
    rows c_k and s_k, which carry the weight of k, so a slot of k != 0
    weighs 2 nu^|k| (T is the identity on the scalars and on mode 0)."""
    w_up, _ = nu_bounds(nu, layout.kabs)
    return np.where(layout.kabs > 0, 2.0 * w_up, w_up)


def cos_sin_block_norms(S: np.ndarray, layout: SpaceLayout, nu: float) -> np.ndarray:
    """`block_norms` of |T| E |T^-1| for a nonnegative E, from S, an upper
    bound of W E, the column sums of E over each row group weighted by
    `cos_sin_weights`: a column of E |T^-1| is half the sum of the columns
    c_l and s_l."""
    ns = layout.ns
    _, winv = nu_bounds(nu, layout.kabs)
    P = S.copy()
    for run in window_runs(layout):
        (plus, minus, _), (pp, pm, _) = run_pairs(S, *run, 1), run_pairs(P, *run, 1)
        pp[...] = pm[...] = _up(plus + minus) * 0.5
    P[:, ns:] = _up(P[:, ns:] * winv[ns:])
    return np.array([P[:, sl].max(axis=1, initial=0.0) for sl in layout.slices]).T


def cos_sin_inverse(J: np.ndarray, layout: SpaceLayout, nu: float):
    """(Jhat, z0, z0_per_normA) for a real shift, made in the cos/sin basis.

    T is the identity on the scalars and on mode 0 and takes the slots
    (k, -k) of a pair to (cos, sin), h_k = c + i s and h_-k = c - i s; so
    T^H = 2 T^-1 on the pairs, and both have entries 1 and +-i only.  T maps
    each class of Q to itself, since k and -k share it, so it acts on the
    layout's class alone.  When J commutes with the conjugate reflection R,
    (R h)_k = conj(h_-k), T^H J T is real.  M is the real part of its float
    value, B = inv(M) in float64, and Jhat = T B T^H, formed in O(N^2), is
    the approximate inverse A that every bound and the jets' step read.

    With A' = T B T^H exact and norms of the real slots weighted as their
    modes, ||I - Jhat J|| <= z0 + z0_per_normA ||Jhat|| from three terms:

    * ||T (I - B M) T^-1||, the block-norm bound of |T| |I - B M| |T^-1|
      (`cos_sin_block_norms`), which reads only W |I - B M|: the column
      sums over each row group, weighted by `cos_sin_weights`.
      |I - B M| is at most the float product's |I - fl(B M)| plus the gemm
      error gamma |B| |M|, which enters as (W |B|) |M|, a product of ns + 9
      rows, so the only N^3 products are the inverse and B M;
    * ||A'|| ||(T^H)^-1 (T^H J T - M) T^-1||, where (T^H)^-1 is T / 2 on
      the pairs and it and T^-1 have norm 1.  T^H J T - M is the imaginary
      part of the float value plus the rounding of its two sums, at most
      2.0001 u |T^H| |J| |T|; |T / 2| |T^H| = |T| |T^-1| = P adds the
      slots k and -k, and ||P|| = 2, so the rounding adds 8.0004 u ||J||;
    * ||A' - Jhat|| ||J||, where each part of an entry of Jhat is one
      rounded sum, so |A' - Jhat| <= 1.0001 u |Jhat|.

    ||Jhat|| is read from |Jhat| rounded up, so ||A'|| is at most 1 + 4u
    times it and the third term at most 4u ||J|| times it.
    """
    N = layout.n
    M, Im = cos_sin_form(J, layout)
    norm_im = opnorm_upper(block_norms(np.abs(Im, out=Im), layout, nu))
    # np.abs of a complex entry is within 1 + 4u of its modulus
    norm_J = float(_up(opnorm_upper(block_norms(np.abs(J, out=Im), layout, nu))
                       * (1.0 + 4.0 * _U)))
    w = cos_sin_weights(layout, nu)
    B = np.linalg.inv(M)
    # |I - fl(B M)|: the diagonal's - 1 rounds once, which the 1 + 4u below
    # covers
    E = B @ M
    E[np.diag_indices(N)] -= 1.0
    S = group_col_sums(w, np.abs(E, out=E), layout)
    V = group_col_sums(w, np.abs(B, out=E), layout)
    del E
    S = _up(S + _up(_gemm_gamma(N) * mm_up_nonneg(V, np.abs(M, out=M))))
    z0 = float(_up(opnorm_upper(cos_sin_block_norms(S, layout, nu)) * (1.0 + 4.0 * _U)))
    inner = _up(norm_im + _up(9.0 * _U * norm_J))
    per = float(_up(_up(inner * (1.0 + 4.0 * _U)) + _up(4.0 * _U * norm_J)))
    # M and Im are spent: they are the work arrays of Jhat
    return from_cos_sin(B, layout, M, Im), z0, per
