"""Verified operator-norm bookkeeping for block matrices.

Every stage works on one product space X = C^ns x (l^1_nu)^9 at a window K,
with the norm max(|scalars|, max_i ||seq_i||).  A bounded operator on X
splits into blocks indexed by (row group, column group), one group per
scalar and one per window; its norm is bounded by

    ||B|| <= max_r sum_c N[r,c],   N[r,c] = sup_{l in c} (1/w_l) sum_{k in r} w_k |B_kl|

with w the nu-power weight (1 on scalar positions).  Everything here returns
float upper bounds computed with outward nudges; midpoint-radius matrix
products come from ivarray.
"""

from __future__ import annotations

import numpy as np

from .ivarray import _up, up_sum
from .seqspace import nu_weights

__all__ = [
    "SpaceLayout",
    "block_norms",
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


class SpaceLayout:
    """The slots of X = C^ns x (l^1_nu)^9 at window K: ns scalars, then nine
    windows of 2K-1 slots each, ordered k = -(K-1)..K-1.  `slices` holds
    one group per scalar, then one per window; `kabs` is |k| per slot (0 on
    the scalars)."""

    def __init__(self, ns: int, K: int):
        if K < 1:
            raise ValueError("seq window must be >= 1")
        n = 2 * K - 1
        self.ns = ns
        self.n = ns + 9 * n
        self.slices = ([slice(i, i + 1) for i in range(ns)]
                       + [slice(ns + j * n, ns + (j + 1) * n) for j in range(9)])
        window = np.abs(np.arange(-(K - 1), K))
        self.kabs = np.concatenate([np.zeros(ns, dtype=int), np.tile(window, 9)])

    def weights_up(self, nu: float):
        """(w_up, winv_up): upper bounds of nu^|k| and nu^-|k| per slot."""
        w_dn, w_up = nu_weights(nu, int(self.kabs.max()) + 1)
        return w_up[self.kabs], _up(_up(1.0 / w_dn))[self.kabs]


def block_norms(absU, layout: SpaceLayout, nu: float):
    """Upper bounds N[r,c] of the block operator norms of |U| on X."""
    absU = np.asarray(absU, dtype=float)
    if absU.shape != (layout.n, layout.n):
        raise ValueError("matrix shape does not match layout")
    w_up, winv_up = layout.weights_up(nu)
    ns = layout.ns
    out = np.zeros((ns + 9, ns + 9))
    for ri, rs in enumerate(layout.slices):
        colsum = _up(_weighted_col_sums(w_up[rs], absU[rs, :]) * winv_up)
        out[ri, :ns] = colsum[:ns]
        out[ri, ns:] = colsum[ns:].reshape(9, -1).max(axis=1)
    return out


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
