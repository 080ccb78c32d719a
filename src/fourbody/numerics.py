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
of the linear operator that every stage shares, whole or on one class of
the half-period reflection Q.

`one_blas_thread` runs the dense algebra of a public stage call on one
OpenBLAS thread.  An operator's N^3 work is one block on a class of Q
(`stages._operator`), too little to keep a second BLAS thread busy; that
thread would spin between calls and take a core from whatever else runs.
One thread also makes every float result, and so every digest, the same
whatever OPENBLAS_NUM_THREADS is.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

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
    "one_blas_thread",
]


class NewtonDivergence(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


# (get, set) of the thread count, by the names of numpy's OpenBLAS builds:
# the scipy-openblas wheels (ILP64 and LP64), older 64-bit builds, the rest
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when numpy's BLAS is not OpenBLAS.  The library is the one that
    numpy's linear algebra extension links: a handle to the extension finds
    the symbols of the libraries it loaded."""
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREADS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block, or the decorated function, on one OpenBLAS thread and
    restore the count it found on exit.  The count is the process's, so
    nested uses are fine and concurrent ones from several Python threads
    are not; without OpenBLAS it does nothing."""
    api = _openblas_threads()
    before = 1 if api is None else api[0]()
    if before != 1:
        api[1](1)
    try:
        yield
    finally:
        if before != 1:
            api[1](before)


def cfg_floats(cfg):
    """Midpoint masses (3,) and primary positions (3, 3) of a configuration."""
    ms = np.array([cfg.masses[j].mid for j in range(3)])
    pos = np.array([[p.mid for p in cfg.position(j)] for j in range(3)])
    return ms, pos


def kvals(K: int):
    return np.arange(-(K - 1), K)


def crop(arr, K: int):
    """Central window of 2K-1 coefficients along the last axis (zero-padded
    if shorter)."""
    n = 2 * K - 1
    arr = np.asarray(arr)
    L = arr.shape[-1]
    if L == n:
        return arr
    if L < n:
        out = np.zeros(arr.shape[:-1] + (n,), dtype=arr.dtype)
        off = (n - L) // 2
        out[..., off:off + L] = arr
        return out
    off = (L - n) // 2
    return arr[..., off:off + n]


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


def toeplitz_window(ker, K: int, rows=None, cols=None):
    """Matrix of h -> (ker * h) restricted to the window on both sides, or
    to the window positions rows and cols (index arrays into 0..2K-2)."""
    n = 2 * K - 1
    rows = np.arange(n) if rows is None else rows
    cols = np.arange(n) if cols is None else cols
    W = (len(ker) - 1) // 2
    D = rows[:, None] - cols[None, :]
    inside = np.abs(D) <= W
    idx = np.clip(D + W, 0, len(ker) - 1)
    return np.where(inside, np.asarray(ker)[idx], 0.0)


def derivative_kernels(A, ms, pos):
    """(const, kernels): finite part of the field derivative at a 9-window A.

    Entry (i, j) acts as const[i][j] * h_j + kernels[i][j] * h_j with the
    kernel a full-support centered array (None when absent).
    """
    return model.field_derivative(FloatArith(ms, pos), [{(0, 0): a} for a in A])


def base_block(const, kernels, K: int, diag, out=None, slots=None):
    """Window block of h -> diag h + const h + kernels * h.

    diag is the diagonal of one component (length n = 2K-1), shared by all
    nine; const and kernels are the tables of `derivative_kernels`.  The
    block is 9n x 9n, or only the rows and columns of slots, a sorted index
    array into the nine windows (`opbound.class_slots`), made directly.  It
    is added into out (a zero view of its shape) when one is given.
    """
    n = 2 * K - 1
    slots = np.arange(9 * n) if slots is None else slots
    pos, ends = slots % n, np.searchsorted(slots, n * np.arange(10))
    blocks = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    base = np.zeros((len(slots),) * 2, dtype=complex) if out is None else out
    for i, rs in enumerate(blocks):
        base[rs, rs] += np.diag(diag[pos[rs]])
        for j, cs in enumerate(blocks):
            if const[i][j] != 0.0:
                base[rs, cs] += const[i][j] * np.equal.outer(pos[rs], pos[cs])
            if kernels[i][j] is not None:
                base[rs, cs] += toeplitz_window(kernels[i][j], K, pos[rs], pos[cs])
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
    """(alpha, interior, ends) for each layer alpha of b*c in alphas: the
    keys (beta, alpha - beta) of its factor pairs (b_beta, c_(alpha - beta)).

    Every product layer folds its pairs interior first: interior holds the
    pairs with no factor of order 0, beta in lexicographic order, and ends
    the pairs beta = 0 and beta = alpha, in that order (one pair for alpha
    = 0).  An interior pair reads only layers of orders 1..|alpha| - 1, so
    the interior fold of a layer is the same at every level of the jets that
    computes it, and `stages._Incremental` carries it from the level that
    first computes the layer to the level that completes it with the
    factors of order |alpha|.  The interior keys are those of b and c, and
    ends are read where both factors are present when the layer is made.
    Only the keys of b and c are read, so one plan serves every arithmetic
    whose grids have those keys: the arrays of `FloatArith` and the (N, r)
    pairs of the norm lane of `stages`.
    """
    zero = (0, 0)
    out = []
    for m, n in alphas:
        interior = [(beta, (m - beta[0], n - beta[1])) for beta in sorted(b)
                    if beta != zero and beta != (m, n) and beta[0] <= m and beta[1] <= n
                    and (m - beta[0], n - beta[1]) in c]
        ends = [(zero, (m, n))] + ([((m, n), zero)] if (m, n) != zero else [])
        out.append(((m, n), interior, ends))
    return out


def _fold_into(acc, pairs):
    """acc plus the convolution of each pair, centred, in order, in place."""
    L = len(acc)
    for u, v in pairs:
        off = (L - len(u) - len(v) + 1) // 2
        acc[off:L - off] += np.convolve(u, v)
    return acc


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

    A Cauchy product is made one layer at a time (`product_layers`).  Layer
    alpha folds the pairs of its `_cauchy_plan` interior first, one
    `np.convolve` per pair: a single pair's product as it is, otherwise each
    added into an accumulator of zeros, the interior pairs in beta order and
    then the pairs with a factor of order 0.  `entry` is the grid value of
    one lower-order center, whatever its radius.
    """

    def __init__(self, ms, pos):
        self.masses = tuple(ms)
        self.positions = tuple(tuple(p) for p in pos)
        self.zero = {}

    sum = staticmethod(_grid_sum)
    scale = staticmethod(_grid_scale)
    truncate = staticmethod(ft_truncate)

    def mul(self, b, c, cap):
        return self.product_layers(b, c, _cauchy_plan(b, c, _product_keys(b, c, cap)))[0]

    @staticmethod
    def product_layers(b, c, plan, carried=None):
        """(layers, interiors): the layers of b*c that plan (`_cauchy_plan`)
        names, and for each layer with interior pairs the fold of those
        pairs, (accumulator, number of pairs).

        carried maps a layer to the interior fold of an earlier call on
        factors with the same layers below its order; such a layer folds
        only its ends onto it, which is the fold of all its pairs byte for
        byte.  The interior fold starts from zeros, so it holds no -0.0 and
        placing it into the zeros of a longer accumulator adds nothing to
        its bytes; the entries that no interior pair reaches stay +0.0."""
        carried = carried or {}
        out, interiors = {}, {}
        for g, interior, ends in plan:
            tail = [(b[x], c[y]) for x, y in ends if x in b and y in c]
            inner = carried.get(g) if tail else None
            if inner is None:
                pairs = [(b[x], c[y]) for x, y in interior]
                if len(pairs) + len(tail) == 1:
                    out[g] = np.convolve(*(pairs + tail)[0])
                    if pairs:
                        interiors[g] = (out[g] + 0.0, 1)
                    continue
                L = max([len(u) + len(v) - 1 for u, v in pairs] or [0])
                inner = (_fold_into(np.zeros(L, dtype=complex), pairs), len(pairs))
            head, n = inner
            L = max([len(head)] + [len(u) + len(v) - 1 for u, v in tail])
            acc = np.zeros(L, dtype=complex)
            if n:
                interiors[g] = inner
                off = (L - len(head)) // 2
                acc[off:L - off] = head
            out[g] = _fold_into(acc, tail)
        return out, interiors

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
    product layers of the level below, and the interior folds of the layers
    it completes (`_cauchy_plan`: every layer folds its pairs with no factor
    of order 0 first, the two with one last), so their float right-hand side
    equals this one byte for byte.  The tests compare against it, and the
    benchmark tracer wraps it.
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
