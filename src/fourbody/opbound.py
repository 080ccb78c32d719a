"""Verified operator-norm bookkeeping for block matrices.

The validation stages work on product spaces X = C^s x (l^1_nu)^9 with the
norm max(|scalars|, max_i ||seq_i||).  A bounded operator splits into blocks
indexed by (row group, column group); its norm is bounded by

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


def _up_sum_axis0(a):
    """Upper bound of column sums of a nonnegative matrix."""
    n = a.shape[0]
    fac = 1.0 + (4.0 * n + 64.0) * 2.0**-50
    return a.sum(axis=0) * fac + _ETA * n


class SpaceLayout:
    """Ordered groups: ("scalar",) entries and ("seq", K) Fourier windows.

    A seq group of window K occupies 2K-1 slots ordered k = -(K-1)..K-1.
    """

    def __init__(self, groups):
        self.groups = tuple(groups)
        self.kinds = []
        self.slices = []
        kabs = []
        pos = 0
        for g in self.groups:
            if g[0] == "scalar":
                self.kinds.append("scalar")
                self.slices.append(slice(pos, pos + 1))
                kabs.append(np.zeros(1, dtype=int))
                pos += 1
            elif g[0] == "seq":
                K = int(g[1])
                if K < 1:
                    raise ValueError("seq window must be >= 1")
                self.kinds.append("seq")
                self.slices.append(slice(pos, pos + 2 * K - 1))
                kabs.append(np.abs(np.arange(-(K - 1), K)))
                pos += 2 * K - 1
            else:
                raise ValueError("unknown group kind %r" % (g[0],))
        self.kabs = np.concatenate(kabs) if kabs else np.zeros(0, dtype=int)
        self.n = pos

    @classmethod
    def mixed(cls, n_scalar: int, n_seq: int, K: int) -> "SpaceLayout":
        return cls([("scalar",)] * n_scalar + [("seq", K)] * n_seq)

    def weights_up(self, nu: float):
        """(w_up, winv_up): upper bounds of nu^|k| and nu^-|k| per slot."""
        if self.n == 0:
            return np.zeros(0), np.zeros(0)
        top = int(self.kabs.max()) + 1
        w_dn, w_up = nu_weights(nu, top)
        return w_up[self.kabs], _up(_up(1.0 / w_dn))[self.kabs]


def block_norms(absU, rows: SpaceLayout, cols: SpaceLayout, nu: float):
    """Upper bounds N[r,c] of the block operator norms of |U|."""
    absU = np.asarray(absU, dtype=float)
    if absU.shape != (rows.n, cols.n):
        raise ValueError("matrix shape does not match layouts")
    w_up, _ = rows.weights_up(nu)
    _, winv_up = cols.weights_up(nu)
    scaled = _up(_up(w_up[:, None] * absU) * winv_up[None, :])
    out = np.zeros((len(rows.groups), len(cols.groups)))
    for ri, rs in enumerate(rows.slices):
        colsum = _up_sum_axis0(scaled[rs, :])
        for ci, cs in enumerate(cols.slices):
            block = colsum[cs]
            out[ri, ci] = float(block.max()) if block.size else 0.0
    return out


def norm_rows(N):
    """Row sums of the block-norm table, rounded up."""
    return np.array([up_sum(row) for row in np.asarray(N, dtype=float)])


def opnorm_upper(N) -> float:
    rows = norm_rows(N)
    return float(rows.max()) if rows.size else 0.0


def group_vec_norms(absv, layout: SpaceLayout, nu: float):
    """Per-group norm upper bounds of a nonnegative vector: weighted sums
    on seq groups, plain entries on scalar groups."""
    absv = np.asarray(absv, dtype=float)
    if absv.shape != (layout.n,):
        raise ValueError("vector length does not match layout")
    w_up, _ = layout.weights_up(nu)
    weighted = _up(absv * w_up)
    out = []
    for kind, sl in zip(layout.kinds, layout.slices):
        if kind == "scalar":
            out.append(float(weighted[sl][0]))
        else:
            out.append(up_sum(weighted[sl]))
    return np.array(out)

