"""Verified operator-norm bookkeeping for block matrices.

Every stage works on one product space X = C^ns x (l^1_nu)^9 at a window K,
with the norm max(|scalars|, max_i ||seq_i||).  A bounded operator on X
splits into blocks indexed by (row group, column group), one group per
scalar and one per window; its norm is bounded by

    ||B|| <= max_r sum_c N[r,c],   N[r,c] = sup_{l in c} (1/w_l) sum_{k in r} w_k |B_kl|

with w the nu-power weight (1 on scalar positions).  Everything here returns
float upper bounds computed with outward nudges; midpoint-radius matrix
products come from ivarray.  A layout may hold one class of the
half-period reflection Q (`SpaceLayout`).
"""

from __future__ import annotations

import numpy as np

from .ivarray import _up, up_sum
from .seqspace import nu_weights

__all__ = [
    "Q_SIGMA",
    "class_slots",
    "SpaceLayout",
    "block_norms",
    "group_col_sums",
    "norm_rows",
    "opnorm_upper",
    "group_vec_norms",
]

_ETA = np.nextafter(0.0, 1.0)


def _weighted_col_sums(w, a):
    """Upper bound of w @ a for a nonnegative weight vector w and matrix a."""
    n = a.shape[0]
    fac = 1.0 + (4.0 * n + 64.0) * 2.0**-50
    return _up((w @ a) * fac + _ETA * n)


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
    group per scalar, then one per window, and `kabs` is |k| per slot (0 on
    the scalars)."""

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
        window = np.abs(self.slots % n - (K - 1))
        self.kabs = np.concatenate([np.zeros(ns, dtype=int), window])

    def weights_up(self, nu: float):
        """(w_up, winv_up): upper bounds of nu^|k| and nu^-|k| per slot."""
        w_dn, w_up = nu_weights(nu, int(self.kabs.max()) + 1)
        return w_up[self.kabs], _up(_up(1.0 / w_dn))[self.kabs]


def group_col_sums(w, X, layout: SpaceLayout):
    """Upper bounds of the weighted column sums sum_k w_k X[k, :] over the
    rows k of each group of `layout`, one row per group, for a nonnegative X
    whose rows are the slots of the layout and their weights w."""
    out = np.zeros((len(layout.slices), X.shape[1]))
    for ri, rows in enumerate(layout.slices):
        out[ri] = _weighted_col_sums(w[rows], X[rows])
    return out


def block_norms(absU, layout: SpaceLayout, nu: float):
    """Upper bounds N[r,c] of the block operator norms of |U| on X."""
    absU = np.asarray(absU, dtype=float)
    if absU.shape != (layout.n, layout.n):
        raise ValueError("matrix shape does not match layout")
    w_up, winv_up = layout.weights_up(nu)
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
    w_up, _ = layout.weights_up(nu)
    weighted = _up(absv * w_up)
    ns = layout.ns
    return np.concatenate([weighted[:ns],
                           [up_sum(weighted[sl]) for sl in layout.slices[ns:]]])
