"""Floating-point lane of the stages: Newton residuals, Jacobians, operator.

Newton iterations only need fast approximate residuals and Jacobians; the
rigorous interval lane re-derives every bound afterwards.  Arrays here are
plain complex numpy vectors over the Fourier window k = -(K-1)..K-1, and
Fourier-Taylor grids are dicts (m, n) -> array.  Convolutions keep their
full support; equations project back to the window when assembled.  The
embedded field and its derivative are the ones of `model`, evaluated in the
float arithmetic `FloatArith`.  Its Cauchy product is one fold, made layer
by layer, and it serves every float evaluation of the field: seeding, the
order-0 residual and kernels, the jets' right-hand sides (through
`stages`), and `remainder_layer`.  `base_block` assembles the window block
of the linear operator that every stage shares.
"""

from __future__ import annotations

import numpy as np

from . import model

__all__ = [
    "NewtonDivergence",
    "cfg_floats",
    "kvals",
    "crop",
    "pad_sum",
    "toeplitz_window",
    "FloatArith",
    "derivative_kernels",
    "base_block",
    "ft_truncate",
    "field_grid",
    "remainder_layer",
    "newton_polish",
]


class NewtonDivergence(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


def cfg_floats(cfg):
    """Midpoint masses (3,) and primary positions (3, 3) of a configuration."""
    ms = np.array([cfg.masses[j].mid for j in range(3)])
    pos = np.array([[p.mid for p in cfg.position(j)] for j in range(3)])
    return ms, pos


def kvals(K: int):
    return np.arange(-(K - 1), K)


def crop(arr, K: int):
    """Central window of 2K-1 coefficients (zero-padded if shorter)."""
    n = 2 * K - 1
    arr = np.asarray(arr)
    if len(arr) == n:
        return arr
    if len(arr) < n:
        out = np.zeros(n, dtype=arr.dtype)
        off = (n - len(arr)) // 2
        out[off:off + len(arr)] = arr
        return out
    off = (len(arr) - n) // 2
    return arr[off:off + n]


def pad_sum(*arrays):
    """Sum of centered arrays of different odd lengths."""
    n = max(len(a) for a in arrays)
    out = np.zeros(n, dtype=complex)
    for a in arrays:
        off = (n - len(a)) // 2
        out[off:off + len(a)] += a
    return out


def _delta(value: complex, n: int):
    out = np.zeros(n, dtype=complex)
    out[(n - 1) // 2] = value
    return out


def toeplitz_window(ker, K: int):
    """Matrix of h -> (ker * h) restricted to the window on both sides."""
    n = 2 * K - 1
    W = (len(ker) - 1) // 2
    i = np.arange(n)
    D = i[:, None] - i[None, :]
    inside = np.abs(D) <= W
    idx = np.clip(D + W, 0, len(ker) - 1)
    return np.where(inside, np.asarray(ker)[idx], 0.0)


def derivative_kernels(A, ms, pos):
    """(const, kernels): finite part of the field derivative at a 9-window A.

    Entry (i, j) acts as const[i][j] * h_j + kernels[i][j] * h_j with the
    kernel a full-support centered array (None when absent).
    """
    return model.field_derivative(FloatArith(ms, pos), [{(0, 0): a} for a in A])


def base_block(const, kernels, K: int, diag, out=None):
    """Window block (9n x 9n) of h -> diag h + const h + kernels * h.

    diag is the diagonal of one component (length n = 2K-1), shared by all
    nine; const and kernels are the tables of `derivative_kernels`.  The
    block is added into out (a zero 9n x 9n view) when one is given.
    """
    n = 2 * K - 1
    base = np.zeros((9 * n, 9 * n), dtype=complex) if out is None else out
    for i in range(9):
        rs = slice(i * n, (i + 1) * n)
        base[rs, rs] += np.diag(diag)
        for j in range(9):
            cs = slice(j * n, (j + 1) * n)
            if const[i][j] != 0.0:
                base[rs, cs] += const[i][j] * np.eye(n)
            if kernels[i][j] is not None:
                base[rs, cs] += toeplitz_window(kernels[i][j], K)
    return base


# ---------------------------------------------------------------------------
# Fourier-Taylor grids as dicts (m, n) -> centered array


def ft_truncate(grid, cap: int):
    return {a: v for a, v in grid.items() if a[0] + a[1] <= cap}


def _product_keys(b, c, cap: int):
    """The layers of the Cauchy product b*c through order cap, sorted."""
    return sorted({(m1 + m2, n1 + n2) for (m1, n1) in b for (m2, n2) in c
                   if m1 + n1 + m2 + n2 <= cap})


def _cauchy_plan(b, c, alphas):
    """(alpha, [(beta, alpha - beta), ...]) for each layer alpha of b*c in
    alphas: the keys of its factor pairs (b_beta, c_(alpha - beta)).

    beta runs in lexicographic order, so a layer is the same fold whichever
    other layers are computed with it.  Only the keys of b and c are read,
    so one plan serves every arithmetic whose grids have those keys: the
    arrays of `FloatArith` and the (N, r) pairs of the norm lane of `stages`.
    """
    betas = sorted(b)
    return [((m, n), [(beta, (m - beta[0], n - beta[1])) for beta in betas
                      if beta[0] <= m and beta[1] <= n
                      and (m - beta[0], n - beta[1]) in c])
            for m, n in alphas]


def _grid_scale(grid, c):
    return {a: c * v for a, v in grid.items()}


def _grid_sum(*grids):
    out = {}
    for g in grids:
        for a, v in g.items():
            prev = out.get(a)
            out[a] = v.copy() if prev is None else pad_sum(prev, v)
    return out


def _grid_shift(grid, c: complex):
    out = {a: v.copy() for a, v in grid.items()}
    base = out.get((0, 0))
    if base is None:
        out[(0, 0)] = _delta(c, 1)
    else:
        out[(0, 0)] = pad_sum(base, _delta(c, 1))
    return out


class FloatArith:
    """Float Fourier-Taylor grids for `model.embedded_field`.

    A Cauchy product is made one layer at a time (`product_layers`), and
    layer alpha folds its pairs of `_cauchy_plan` in beta order, one
    `np.convolve` per pair: a single pair's product as it is, otherwise each
    added into an accumulator of zeros.  `entry` is the grid value of one
    lower-order center, whatever its radius.
    """

    def __init__(self, ms, pos):
        self.masses = tuple(ms)
        self.positions = tuple(tuple(p) for p in pos)
        self.zero = {}

    sum = staticmethod(_grid_sum)
    scale = staticmethod(_grid_scale)
    truncate = staticmethod(ft_truncate)

    def mul(self, b, c, cap):
        return self.product_layers(b, c, _cauchy_plan(b, c, _product_keys(b, c, cap)))

    @staticmethod
    def product_layers(b, c, plan):
        """The layers of b*c that plan (`_cauchy_plan`) names."""
        out = {}
        for g, keys in plan:
            pairs = [(b[x], c[y]) for x, y in keys]
            if len(pairs) == 1:
                out[g] = np.convolve(*pairs[0])
                continue
            L = max(len(u) + len(v) - 1 for u, v in pairs)
            acc = np.zeros(L, dtype=complex)
            for u, v in pairs:
                off = (L - len(u) - len(v) + 1) // 2
                acc[off:L - off] += np.convolve(u, v)
            out[g] = acc
        return out

    @staticmethod
    def entry(seq, radius):
        return seq.c.mid()

    @staticmethod
    def shift(grid, p):
        return _grid_shift(grid, -p)

    @staticmethod
    def neg(grid):
        return {a: -v for a, v in grid.items()}

    @staticmethod
    def layer(grid, alpha):
        return grid.get(alpha, np.zeros(1, dtype=complex))


def field_grid(A, ms, pos, cap: int):
    """Embedded field applied to a 9-tuple of Fourier-Taylor grids."""
    return model.embedded_field(FloatArith(ms, pos), A, cap)


def remainder_layer(A, alpha, ms, pos):
    """Layer alpha of the field applied to the orders-below-|alpha| data.

    It evaluates the whole field afresh.  The jets do not call it: each level
    of `stages` evaluates the field once in `FloatArith` and reuses the
    product layers of the level below, with the same fold, so their float
    right-hand side equals this one byte for byte.  The tests compare
    against it, and the benchmark tracer wraps it.
    """
    m, n = int(alpha[0]), int(alpha[1])
    order = m + n
    low = [ft_truncate(g, order - 1) for g in A]
    grid = field_grid(low, ms, pos, cap=order)
    zero = np.zeros(1, dtype=complex)
    return [g.get((m, n), zero) for g in grid]


# ---------------------------------------------------------------------------
# Newton driver


# at most _NEWTON_ITMAX steps, each halved at most _NEWTON_DAMPING times
_NEWTON_ITMAX = 50
_NEWTON_DAMPING = 8
_FLOOR_SLACK = 100.0


def newton_polish(residual, jacobian, x0, tol: float):
    """Damped Newton on a complex vector map; returns the polished point.

    Convergence to the rounding floor above tol is accepted (within
    _FLOOR_SLACK * tol) once damping stops producing progress.
    """
    x = np.asarray(x0, dtype=complex).copy()
    r = residual(x)
    best = float(np.abs(r).max())
    for _ in range(_NEWTON_ITMAX):
        if best < tol:
            return x
        J = jacobian(x)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            # exactly singular (e.g. an unfolding column vanishing at a
            # symmetric seed); the minimum-norm step escapes the stratum
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        if not np.isfinite(step).all():
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        scale = 1.0
        accepted = False
        for _ in range(_NEWTON_DAMPING):
            cand = x + scale * step
            rc = residual(cand)
            nc = float(np.abs(rc).max())
            if np.isfinite(nc) and (nc < best or nc < tol):
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            if best < _FLOOR_SLACK * tol:
                return x
            raise NewtonDivergence("damping failed to reduce the residual")
        x, r, best = cand, rc, nc
    if best < _FLOOR_SLACK * tol:
        return x
    raise NewtonDivergence("no convergence in %d iterations" % _NEWTON_ITMAX)
