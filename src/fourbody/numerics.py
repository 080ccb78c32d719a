"""Floating-point lane of the stages: Newton residuals, Jacobians, operator.

Newton iterations only need fast approximate residuals and Jacobians; the
rigorous interval lane re-derives every bound afterwards.  Arrays here are
plain complex numpy vectors over the Fourier window k = -(K-1)..K-1, and
Fourier-Taylor grids are dicts (m, n) -> array.  Convolutions keep their
full support; equations project back to the window when assembled.  The
embedded field and its derivative are the ones of `model`, evaluated in the
float arithmetic `FloatArith`.  Its Cauchy product is one fold, made layer
by layer, and it serves every float evaluation of the field: seeding, the
order-0 residual and seeding's kernels, the jets' right-hand sides, and
`remainder_layer`.  A product folds only its solved layers (m, n), m >= n;
its mirror layer (n, m) is the conjugate reflection of layer (m, n), which
the inputs' mirror rule makes exact (`_NormRad`).  Order 0 has no mirror
layer, so seeding, order 0 and the kernels fold every layer.  `base_block`
assembles the window block of the linear operator that every stage shares,
whole or on one class of the half-period reflection Q.

It holds both lanes of a jet's right-hand side, `FloatArith` and the norm
lane `_NormRad`, which bounds the float value's distance from the exact
field, and the fold they share: `_product_layers` walks the pairs of each
product layer for both, which differ only in `fold`, `close` and `mirror`.
`_level_fields` evaluates both lanes for one level of jets.  The
derivative kernels at order 0's centre take a third arithmetic, the discs
of `_DiscArith`: their midpoints are the float kernels that the stages'
window blocks hold, and their radii bound them coefficient by coefficient,
for the stage context (`stages._StageContext`).

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
import math

import numpy as np

from .interval import Interval, _as_iv, _next
from .ivarray import _ETA, _gemm_gamma, _up, _up_factor, cmat_abs_up, mr_add
from .opbound import nu_bounds
from .seqspace import FourierSeq
from .table import mirror, solved, source
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


def base_block(const, kernels, layout, diag, out=None):
    """Window block of h -> diag h + const h + kernels * h.

    diag is the diagonal of one component (length n = 2K-1), shared by all
    nine; const and kernels are the tables of `derivative_kernels`.  The
    block holds the rows and columns of the window slots of layout (an
    `opbound.SpaceLayout`, whose scalars it leaves out): 9n x 9n, or one
    class of Q, made directly.  It is added into out (a zero view of its
    shape) when one is given.
    """
    ns = layout.ns
    blocks = [slice(sl.start - ns, sl.stop - ns) for sl in layout.slices[ns:]]
    pos = layout.wpos[ns:]
    base = np.zeros((layout.n - ns,) * 2, dtype=complex) if out is None else out
    for i, rs in enumerate(blocks):
        base[rs, rs] += np.diag(diag[pos[rs]])
        for j, cs in enumerate(blocks):
            if const[i][j] != 0.0:
                base[rs, cs] += const[i][j] * np.equal.outer(pos[rs], pos[cs])
            if kernels[i][j] is not None:
                base[rs, cs] += toeplitz_window(kernels[i][j], layout.K, pos[rs], pos[cs])
    return base


# ---------------------------------------------------------------------------
# Fourier-Taylor grids as dicts (m, n) -> centered array


def ft_truncate(grid, cap: int):
    return {a: v for a, v in grid.items() if a[0] + a[1] <= cap}


def _product_keys(b, c, cap: int):
    """The layers of the Cauchy product b*c through order cap, sorted."""
    return sorted({(m1 + m2, n1 + n2) for (m1, n1) in b for (m2, n2) in c
                   if m1 + n1 + m2 + n2 <= cap})


def _split_mirrors(layers):
    """(solved, mirrors): the layers alpha = (m, n) with m >= n, which a
    product folds, and the others, each made from its source (m < n)."""
    return ([g for g in layers if source(g) == g], [g for g in layers if source(g) != g])


def _cauchy_plan(b, c, alphas):
    """(alpha, interior, ends) for each solved layer alpha = (m, n), m >= n,
    of b*c in alphas: the keys (beta, alpha - beta) of its factor pairs
    (b_beta, c_(alpha - beta)).  A mirror layer (m < n) has no plan: it is
    the lane's mirror of its source (`_product_layers`).

    Every product layer folds its pairs interior first: interior holds the
    pairs with no factor of order 0, beta in lexicographic order, and ends
    the pairs beta = 0 and beta = alpha, in that order (one pair for alpha
    = 0).  An interior pair reads only layers of orders 1..|alpha| - 1, so
    the interior fold of a layer is the same at every level of the jets that
    computes it, and `_Incremental` carries it from the level that
    first computes the layer to the level that completes it with the
    factors of order |alpha|.  The interior keys are those of b and c, and
    ends are read where both factors are present when the layer is made.
    Only the keys of b and c are read, so one plan serves every arithmetic
    whose grids have those keys: the arrays of `FloatArith` and the (N, r)
    pairs of `_NormRad`.
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


def _grid_scale(grid, c):
    return {a: c * v for a, v in grid.items()}


def _grid_sum(*grids):
    out = {}
    for g in grids:
        for a, v in g.items():
            prev = out.get(a)
            out[a] = v.copy() if prev is None else pad_sum(prev, v)
    return out


def _product_layers(lane, b, c, plan, mirrors, carried=None):
    """(layers, interiors): the layers of b*c that plan (`_cauchy_plan`)
    and mirrors name, in the arithmetic of lane (`FloatArith` or
    `_NormRad`), and the interior fold, (accumulator, number of pairs), of
    each planned layer that has interior pairs.  `lane.fold` folds a layer's
    interior pairs and then its end pairs onto them, in the order of the
    plan, and `lane.close` makes the layer from the fold and its number of
    pairs.  carried maps a layer to its interior fold from an earlier call
    on factors with the same layers below its order; a layer with end pairs
    folds only those onto it, and so is the layer that folding all its
    pairs makes, bit for bit.  Each mirror layer (n, m) is then
    `lane.mirror` of its source (m, n), which plan makes: the factors keep
    the mirror rule (`_NormRad`), and so does their product."""
    carried = carried or {}
    out, interiors = {}, {}
    for g, interior, ends in plan:
        tail = [(b[x], c[y]) for x, y in ends if x in b and y in c]
        inner = carried.get(g) if tail else None
        if inner is None:
            inner = (lane.fold(None, [(b[x], c[y]) for x, y in interior]), len(interior))
        if inner[1]:
            interiors[g] = inner
        out[g] = lane.close(lane.fold(inner[0], tail), inner[1] + len(tail))
    for g in mirrors:
        out[g] = lane.mirror(out[mirror(g)])
    return out, interiors


class FloatArith:
    """Float Fourier-Taylor grids for `model.embedded_field`.

    A Cauchy product is made one layer at a time (`product_layers`).  A
    solved layer alpha folds the pairs of its `_cauchy_plan` interior first,
    one `np.convolve` per pair: a single pair's product as it is, otherwise
    each added into an accumulator of zeros, the interior pairs in beta
    order and then the pairs with a factor of order 0.  A mirror layer is
    the conjugate reflection of its source (`mirror`), which is exact.
    `entry` is the grid value of one lower-order center, whatever its
    radius.
    """

    def __init__(self, ms, pos):
        self.masses = tuple(ms)
        self.positions = tuple(tuple(p) for p in pos)
        self.zero = {}

    sum = staticmethod(_grid_sum)
    scale = staticmethod(_grid_scale)
    truncate = staticmethod(ft_truncate)

    def mul(self, b, c, cap):
        folds, mirrors = _split_mirrors(_product_keys(b, c, cap))
        return self.product_layers(b, c, _cauchy_plan(b, c, folds), mirrors)[0]

    product_layers = classmethod(_product_layers)

    @staticmethod
    def mirror(x):
        """(R x)_k = conj(x_-k)."""
        return np.conj(x[::-1])

    @staticmethod
    def fold(head, pairs):
        """head, an accumulator or None, plus the convolution of each pair,
        centred, in order: head as it is without pairs, a lone pair's product
        as it is without head, and otherwise a new accumulator of zeros into
        which head and the products are added."""
        if not pairs:
            return head
        if head is None and len(pairs) == 1:
            return np.convolve(*pairs[0])
        parts = ([] if head is None else [head]) + [np.convolve(u, v) for u, v in pairs]
        L = max(len(x) for x in parts)
        acc = np.zeros(L, dtype=complex)
        for x in parts:
            off = (L - len(x)) // 2
            acc[off:L - off] += x
        return acc

    close = staticmethod(lambda acc, P: acc)

    @staticmethod
    def entry(seq, radius):
        return seq.c.mid()

    @staticmethod
    def shift(grid, p):
        return _grid_sum(grid, {(0, 0): np.full(1, -p, dtype=complex)})

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
    (`_level_fields`) evaluates the field once in `FloatArith` and reuses the
    product layers of the level below, and the interior folds of the layers
    it completes (`_cauchy_plan`: every layer folds its pairs with no factor
    of order 0 first, the two with one last).  Both make each mirror layer
    of a product as the conjugate reflection of its source and fold the
    solved layers alone, so their float right-hand side equals this one byte
    for byte.  A contains mirrors as a table does: layer (n, m) the
    reflection of layer (m, n).  The tests compare against it, and the
    benchmark tracer wraps it.
    """
    m, n = int(alpha[0]), int(alpha[1])
    order = m + n
    low = [ft_truncate(g, order - 1) for g in A]
    grid = field_grid(low, ms, pos, cap=order)
    zero = np.zeros(1, dtype=complex)
    return [g.get((m, n), zero) for g in grid]


# ---------------------------------------------------------------------------
# the norm lane: bounds of the float lane's field on the lower orders, by layer


# a complex addition, or a scaling by a real, errs by at most u times the
# modulus of the exact result; 2u leaves room
_ADD_ROUND = 2.0 ** -52


def _iv_rad_up(v: Interval) -> float:
    m = v.mid
    return float(max(_up(v.hi - m), _up(m - v.lo), 0.0))


class _NormRad:
    """Grids (m, n) -> (N, r) for `model.embedded_field`, the bounds of the
    `FloatArith` evaluation on the same lower orders.  It has no `mul`: its
    products are made by `_Incremental`, through `product_layers`.

    N bounds the nu-norm of the float value of the layer, and r its
    distance from the exact value of the layer at any inputs within the
    radii of the lower orders that keep the mirror rule, with the true
    masses and positions.  The mirror rule: layer (n, m) of each input is
    the conjugate reflection R of layer (m, n), (R h)_k = conj(h_-k), and
    each diagonal layer (m, m) is R-fixed.  The field's constants are real,
    so it commutes with R: every product, sum, real scaling and shift of
    such inputs keeps the rule, and a product's mirror layer (n, m), m > n,
    is R of its source (m, n).  The float lane makes it so, exactly
    (`FloatArith.mirror`), and R is an isometry of the nu-norm, so the
    mirror layer takes its source's (N, r) (`mirror`) and folds no pair.
    The rule asks nothing beyond what the table asserts of its mirrors
    (`table.JetTable.write`): the true orbit is R-fixed, because R maps the
    zero of order 0's map to a zero within r_max of its centre, which is
    R-fixed up to rounding, and that zero is unique there; and each true jet
    is the unique zero of an affine problem that R maps onto the problem of
    its mirror, so the true jet (n, m) is R of the true (m, n), and a
    diagonal one is R-fixed.  So r takes in the radii, the widths of the
    constants and every rounding of the float lane:

    * a product layer of P pairs: (gamma + (P - 1) 2^-52) sum N_b N_c + P
      eta, with gamma = 2 gamma_gemm(n) the bound of a complex inner
      product of at most n terms and 2^-52 |partial sum| the rounding of
      each addition of the fold;
    * a sum: 2^-52 N per addition;
    * scaling by c: rad(c) (N + r) + 2^-52 |mid c| N + eta, and nothing
      when c is a point power of two of modulus at least 1; negation is
      exact;
    * a shift by p: rad(p) and the rounding of the k = 0 entry.

    The field has degree five, so on inputs of at most L coefficients every
    array it forms has fewer than n = 5L, and no inner product has more
    terms.  eta bounds the nu-norm of the underflow slack _ETA n of each of
    fewer than n coefficients of one product or scaling (an addition does
    not underflow).  Every value is a Python float, rounded up by
    `interval._next` (the IEEE nextafter of `_up`, without its numpy call).
    """

    def __init__(self, cfg, nu: float, L: int):
        self.masses = tuple(cfg.masses)
        self.positions = tuple(cfg.position(j) for j in range(3))
        self.zero = {}
        n = 5 * L
        self.gamma = 2.0 * _gemm_gamma(n)
        w_up = float(nu_bounds(nu, [n // 2])[0][0])
        self.eta = _next(_next(_ETA * n) * _next(n * w_up))

    truncate = staticmethod(ft_truncate)

    @staticmethod
    def entry(seq, radius):
        """A center's norm and radius; a center that is a box (a rescaled
        table's) adds the norm of its width about the midpoint, the float
        lane's value."""
        if not seq.is_point():
            radius = _next(radius + FourierSeq.point(seq.c.rad(), seq.nu).norm_upper())
        return (seq.norm_upper(), radius)

    product_layers = _product_layers
    mirror = staticmethod(lambda x: x)

    @staticmethod
    def fold(head, pairs):
        """The (N, r) sums of the products of the pairs, added onto head, an
        (N, r) pair, or onto zeros when head is None."""
        Nacc, racc = head or (0.0, 0.0)
        for (N1, r1), (N2, r2) in pairs:
            Np = _next(N1 * N2)
            rp = _next(_next(_next(N1 * r2) + _next(r1 * N2)) + _next(r1 * r2))
            Nacc, racc = _next(Nacc + Np), _next(racc + rp)
        return Nacc, racc

    def close(self, acc, P: int):
        """The (N, r) of a layer of P pairs whose sums are acc."""
        Nacc, racc = acc
        e = _next(_next(_next(self.gamma + (P - 1) * _ADD_ROUND) * Nacc) + _next(P * self.eta))
        return (_next(Nacc + e), _next(racc + e))

    @staticmethod
    def sum(*grids):
        out = {}
        for g in grids:
            for a, v in g.items():
                prev = out.get(a)
                if prev is None:
                    out[a] = v
                    continue
                Ns = _next(prev[0] + v[0])
                e = _next(Ns * _ADD_ROUND)
                out[a] = (_next(Ns + e), _next(_next(prev[1] + v[1]) + e))
        return out

    def scale(self, g, c):
        c = _as_iv(c)
        m, rad = abs(c.mid), (0.0 if c.lo == c.hi else _iv_rad_up(c))
        exact = rad == 0.0 and m >= 1.0 and math.frexp(m)[0] == 0.5
        out = {}
        for a, (Nv, rv) in g.items():
            r2 = _next(m * rv) if rv else 0.0
            if rad:
                r2 = _next(r2 + _next(rad * _next(Nv + rv)))
            e = 0.0 if exact else _next(_next(m * _ADD_ROUND * Nv) + self.eta)
            out[a] = (_next(_next(m * Nv) + e), _next(r2 + e) if e else r2)
        return out

    @classmethod
    def shift(cls, g, p: Interval):
        c = -p
        return cls.sum(g, {(0, 0): (abs(c.mid), _iv_rad_up(c))})

    @staticmethod
    def neg(g):
        return g


class _DiscArith:
    """Order-zero discs (midpoint array, radius array) for
    `model.field_derivative` at a centre of radius zero: a float evaluation
    and its bound in one.  The midpoints are made as `FloatArith` makes
    them, from the midpoints of the masses and positions (and of the
    interval m_j * -3), and radius k bounds the distance of coefficient k
    from the exact value with the true masses and positions.

    A product's radius is that of `ivarray.cconv_mr`, but with g_k = 2
    gamma_gemm(n_k) and underflow slack _ETA n_k for coefficient k, n_k the
    number of its terms b_i c_(k-i) with no factor an exact zero disc: the
    others are exact zeros, and adding them rounds nothing.  A sum, and a
    shift by p with rad(p) on the centre, is `ivarray.mr_add`.  Scaling by
    c, m its midpoint, takes |m| r + rad(c) (|x| + r), the rounding
    2^-52 |m x| and _ETA; negation is exact.  An exact zero disc stays one
    through each of these, so a coefficient that no product reaches, as
    those off a class of Q, has midpoint and radius zero: a subnormal slack
    there would slow every convolution of the kernels' tail bounds.
    """

    zero = None
    neg = staticmethod(lambda g: (-g[0], g[1]))
    layer = staticmethod(lambda g, alpha: g)

    def __init__(self, cfg):
        self.masses = tuple(cfg.masses)
        self.positions = tuple(cfg.position(j) for j in range(3))

    @staticmethod
    def mul(b, c, cap):
        (bm, br), (cm, cr) = b, c
        n = min(len(bm), len(cm))
        nk = np.convolve(((bm != 0) | (br != 0)).astype(float), ((cm != 0) | (cr != 0)).astype(float))
        B, C = cmat_abs_up(bm, None), cmat_abs_up(cm, None)
        rad = 2.0 * _gemm_gamma(nk) * np.convolve(B, C) + np.convolve(B, cr)
        if br.any():
            rad += np.convolve(br, C + cr)
        return (np.convolve(bm, cm), rad * _up_factor(n + 3) + _ETA * nk)

    @staticmethod
    def _add(u, v):
        zm, zr = mr_add(*u, *v)
        # radii zero and a midpoint sum of zero: the sum is exact
        zr[(zm == 0) & (pad_sum(u[1], v[1]) == 0)] = 0.0
        return (zm, zr)

    @classmethod
    def sum(cls, *discs):
        discs = [d for d in discs if d is not None]
        return functools.reduce(cls._add, discs) if discs else None

    @staticmethod
    def scale(g, c):
        c = _as_iv(c)
        (gm, gr), m = g, c.mid
        x = m * gm
        rc = 0.0 if c.lo == c.hi else _iv_rad_up(c)
        rad = _up(_up(abs(m) * gr) + _up(rc * cmat_abs_up(gm, gr)))
        rad = _up(_up(rad + _ADD_ROUND * cmat_abs_up(x, None)) + _ETA)
        rad[(gm == 0) & (gr == 0)] = 0.0
        return (x, rad)

    @classmethod
    def shift(cls, g, p: Interval):
        rp = 0.0 if p.lo == p.hi else _iv_rad_up(p)
        return cls._add(g, (np.full(1, -p.mid, dtype=complex), np.full(1, rp)))


class _NodePlan:
    """The plans of one product node of the field for one table: each
    solved layer's `_cauchy_plan`, made once and dropped once the layer is
    complete, and the layers the node holds and computes at the level being
    evaluated, the folded ones and the mirrors, made by the lane that
    reaches the node first."""

    __slots__ = ("layers", "order", "keys", "made", "mirrors")

    def __init__(self):
        self.layers = {}
        self.order = None
        self.keys = self.made = self.mirrors = ()


class _Incremental:
    """One evaluation of the field at order `order` in `base`, a
    `FloatArith` or a `_NormRad`.

    `model.embedded_field` makes its products in a fixed sequence, so the
    k-th `mul` of every evaluation is the same product node, and layer gamma
    of a node reads only the inputs of order <= |gamma|.  `old` is the
    evaluation of the level below, on the same lower orders, or None.  The
    node layers below `keep` are taken from it, the layers keep..order-1
    are computed in full, and of the order-`order` layers only the jets the
    level solves: layer alpha of a product reads no other layer of its own
    order.  The layers a node computes go to the base's `product_layers` in
    one call, which folds the solved ones (m >= n) and makes each mirror
    layer of orders keep..order-1 as the lane's mirror of its source.

    Every product layer folds its Cauchy pairs interior first
    (`_cauchy_plan`): the pairs without a factor of order 0, which
    read only complete layers of orders 1..|alpha| - 1, and then the two
    pairs with one.  So the interior fold of a layer of order `order` is
    final when the layer is first computed, and `carry` keeps it, per node,
    for the next level, which completes the layer by folding only its two
    end pairs onto it.  `nodes` collects each node's layers below `order`,
    all complete, and `inputs` keeps the nine input grids, so that the next
    level adds only the entries of its new order.  Every operation but
    `mul` is the base arithmetic's.

    The grids of the two lanes have the same keys, node by node, so their
    evaluations share `plans`, one `_NodePlan` per node, which the levels
    of a table hand on: a layer's plan is made once for the table.  The
    nodes of one level have few key sets (the three masses' nodes have the
    same), and `_product_keys` runs once for each, in `keysets`.
    """

    def __init__(self, base, order: int, old, keep: int, inputs, plans):
        self.base = base
        self.order = order
        self.top = set(solved(order))
        self.old = old
        self.keep = keep
        self.inputs = inputs
        self.plans = plans
        self.nodes = []
        self.carry = []
        self.keysets = {}

    def __getattr__(self, name):
        return getattr(self.base, name)

    def mul(self, b, c, cap):
        k = len(self.nodes)
        if k == len(self.plans):
            self.plans.append(_NodePlan())
        plan = self.plans[k]
        if plan.order != self.order:
            plan.order = self.order
            plan.layers = {g: v for g, v in plan.layers.items() if g[0] + g[1] >= self.keep}
            keyset = (frozenset(b), frozenset(c))
            if keyset not in self.keysets:
                self.keysets[keyset] = _product_keys(b, c, cap)
            plan.keys = self.keysets[keyset]
            folds, plan.mirrors = _split_mirrors(
                [g for g in plan.keys if self.keep <= g[0] + g[1]
                 and (g[0] + g[1] < self.order or g in self.top)])
            plan.layers.update((g, (interior, ends)) for g, interior, ends in
                               _cauchy_plan(b, c, [g for g in folds if g not in plan.layers]))
            plan.made = [(g, *plan.layers[g]) for g in folds]
        old, carried = (self.old.nodes[k], self.old.carry[k]) if self.keep else ({}, {})
        made, interiors = self.base.product_layers(b, c, plan.made, plan.mirrors, carried)
        out, done = {}, {}
        for g in plan.keys:
            p = g[0] + g[1]
            if p < self.keep:
                out[g] = done[g] = old[g]
            elif g in made:
                out[g] = made[g]
                if p < self.order:
                    done[g] = made[g]
        self.nodes.append(done)
        self.carry.append({g: interiors[g] for g in self.top if g in interiors})
        return out


def _level_fields(jet, cfg, order: int, prev=None):
    """`model.embedded_field` on the orders of the table jet (a
    `table.JetTable`) below `order`, as one (`_Incremental`, nine grids)
    pair per lane, `FloatArith` first and `_NormRad` second.

    The grids of order `order` hold the layers of the jets the level solves.
    prev is the pair of an earlier level on the same lower orders, or None:
    its input entries, its product layers below its order, the interior
    folds of its top layers and its plans are taken over, not recomputed.

    Each product folds only its solved layers (m >= n), and each mirror
    layer below `order` is R of its source in the float lane and the
    source's (N, r) in the norm lane, as the table's mirror (n, m) holds
    the conjugate reflection R of (m, n) with the same radius.  The norm
    lane's bound holds at the true lower orders because they keep the
    mirror rule of `_NormRad`: the field has real coefficients, so it
    commutes with R; the true orbit is R-fixed, by uniqueness within r_max
    about a centre that is R-fixed up to rounding; and each true jet is the
    unique zero of an R-equivariant affine problem, so the true (n, m) is R
    of the true (m, n).
    """
    lower = [(beta, seqs, jet.radii.get(beta))
             for beta, seqs in sorted(jet.orders.items())
             if beta[0] + beta[1] < order]
    L = max(len(s.c) for _, seqs, _ in lower for s in seqs)
    fields = []
    plans = [] if prev is None else prev[0][0].plans
    for k, arith in enumerate((FloatArith(*cfg_floats(cfg)), _NormRad(cfg, jet.nu, L))):
        if prev is None:
            was, keep, grids = None, 0, [{} for _ in range(9)]
        else:
            was = prev[k][0]
            keep, grids = was.order, [dict(g) for g in was.inputs]
        for beta, seqs, r in lower:
            if beta not in grids[0]:
                for i in range(9):
                    grids[i][beta] = arith.entry(seqs[i], r)
        ar = _Incremental(arith, order, was, keep, grids, plans)
        fields.append((ar, model.embedded_field(ar, grids, order)))
        # the level below is spent: a chain of levels would keep every one
        ar.old = None
    return tuple(fields)


def _jet_rhs(fields, alpha):
    """(rhs, rho) of jet alpha from its level's `_level_fields`: layer alpha
    of the float field, nine arrays or None, and a bound of its distance
    from the exact layer (the `_NormRad` field)."""
    (_, floats), (_, norms) = fields
    return ([f.get(alpha) for f in floats],
            max(r.get(alpha, (0.0, 0.0))[1] for r in norms))


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
