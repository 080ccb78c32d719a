"""Floating-point lane of the stages: Newton residuals, Jacobians, operator.

Newton iterations only need fast approximate residuals and Jacobians; the
rigorous interval lane re-derives every bound afterwards.  Arrays here are
plain complex numpy vectors over the Fourier window k = -(K-1)..K-1, and
Fourier-Taylor grids are dicts (m, n) -> array.  Convolutions keep their
full support; equations project back to the window when assembled.  The
embedded field and its derivative are the ones of `model`, evaluated in the
float arithmetic `FloatArith`; `base_block` assembles the window block of
the linear operator that every stage shares.
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
    "eta_rows",
    "eta_jacobian_entries",
    "ft_truncate",
    "ft_conv_grid",
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


def eta_rows(A, anchor, pos):
    """The four phase/consistency scalars at a 9-window A."""
    g = np.array([a.sum() for a in A])
    e = np.zeros(4, dtype=complex)
    u0 = np.asarray(anchor.u0, dtype=float)
    u1 = np.asarray(anchor.u1, dtype=float)
    e[0] = np.sum(u1 * (u0 - g))
    for j in range(3):
        d2 = (g[0] - pos[j][0]) ** 2 + (g[2] - pos[j][1]) ** 2 + g[4] ** 2
        e[1 + j] = d2 * g[6 + j] ** 2 - 1.0
    return e


def eta_jacobian_entries(A, anchor, pos):
    """Per-slot column constants of the phase rows (same value for every k)."""
    g = np.array([a.sum() for a in A])
    u1 = np.asarray(anchor.u1, dtype=float)
    rows = np.zeros((4, 9), dtype=complex)
    rows[0, :] = -u1
    for j in range(3):
        d2 = (g[0] - pos[j][0]) ** 2 + (g[2] - pos[j][1]) ** 2 + g[4] ** 2
        w2 = g[6 + j] ** 2
        rows[1 + j, 0] = 2.0 * (g[0] - pos[j][0]) * w2
        rows[1 + j, 2] = 2.0 * (g[2] - pos[j][1]) * w2
        rows[1 + j, 4] = 2.0 * g[4] * w2
        rows[1 + j, 6 + j] = 2.0 * d2 * g[6 + j]
    return rows


# ---------------------------------------------------------------------------
# Fourier-Taylor grids as dicts (m, n) -> centered array


def ft_truncate(grid, cap: int):
    return {a: v for a, v in grid.items() if a[0] + a[1] <= cap}


def ft_conv_grid(b, c, cap: int):
    out = {}
    for (m1, n1), v1 in b.items():
        for (m2, n2), v2 in c.items():
            m, n = m1 + m2, n1 + n2
            if m + n > cap:
                continue
            prod = np.convolve(v1, v2)
            prev = out.get((m, n))
            out[(m, n)] = prod if prev is None else pad_sum(prev, prod)
    return out


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
    """Float Fourier-Taylor grids for `model.embedded_field`."""

    def __init__(self, ms, pos):
        self.masses = tuple(ms)
        self.positions = tuple(tuple(p) for p in pos)
        self.zero = {}

    mul = staticmethod(ft_conv_grid)
    sum = staticmethod(_grid_sum)
    scale = staticmethod(_grid_scale)
    truncate = staticmethod(ft_truncate)

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

    No stage calls this: the jets take their float right-hand side from the
    float lane of `stages` (`_Float`), which folds each product layer in
    place and repeats these values.  It stays as the float oracle the tests
    compare that lane against, and as a layer the benchmark tracer wraps.
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
