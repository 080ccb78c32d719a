"""Order-by-order computation and validation of the manifold jets.

Three stage kinds share one validation scheme.  The unknowns live in
X = C^s x (l^1_nu)^9 with norm max(|scalars|, max_i ||seq_i||); each stage
fixes an approximate derivative A_dag (numeric Jacobian on the Fourier
window, exact diagonal -i*omega*k - s beyond it) and an approximate inverse
A (float inverse of the window block, exact reciprocal diagonal on the
tail).  A certificate for the stage is a radius r with

    Y + (Z0 + Z1 - 1) r + Z2(r) r^2 < 0,

where Y bounds ||A F(x_bar)||, Z0 bounds ||I - A A_dag||, Z1 bounds
||A (DF(x_bar) - A_dag)||, and Z2(r) r bounds the Lipschitz defect
||A (DF(x_bar + c) - DF(x_bar))|| over ||c|| <= r.  The nonlinearity is
polynomial (degree five after the reciprocal-distance embedding), so Z2 is
an explicit quartic assembled from product-rule inflations of the factor
norms.

On the window A_dag is the float block J, so there DF(x_bar) - A_dag is only
what J misses of DF(x_bar): the rounding of the float kernels and of J's
float sums.  `_window_defect` bounds it by one norm delta per stage (block
norms of X, summed over each row group, maximum over the groups), and
Z1 = Z1_tail + ||J^-1|| delta + ||A||_seq pre_Z1, where Z1_tail bounds A
times the parts of DF(x_bar) - A_dag that reach the tail, and pre_Z1 bounds
a known perturbation of the derivative that maps sequences to sequences
(order 0's y terms, the lower orders' radii, a jet's shift error).  The
kernel part of delta, ||ker_ij - fker_ij||_nu per block, and the kernels'
tail coupling are made once per context.  Of the bounds, A, Z0, ||A|| and
Z1 less its data part are the operator part of a certificate (`_operator`):
they read the context, the shift s and the stage's scalar rows and columns
only.  Y, the data parts pre_Y and pre_Z1, and Z2 are the stage's own
(`_certify`), and its report carries all of them, with Y0, the residual
part of Y, and Y_group, the row group that sets it.  `_certify` reads the
residual as discs.  Order 1 and the jets build theirs,
(-omega d_theta - s + DF0) a + R, in discs from end to end
(`_affine_residual`); order 0 makes its own in endpoint intervals, whose
widths set its radius, and converts the finished boxes once.

Every shift s is real: 0 for order 0, the real Floquet exponent
lambda_bar for order 1 and p lambda_bar for a jet of order p.  So J
commutes, up to rounding, with the conjugate reflection R,
(R h)_k = conj(h_-k), because the orbit is real.  T^H J T is then real for
the T that takes each pair of modes (k, -k) to (cos, sin), and
A = T B T^H with B a float64 inverse of M, the real part of the float
T^H J T (`opbound.cos_sin_inverse`; opbound owns T, the slots of each class
and the packing of X).  Z0 is the sum of three terms: |I - B M|
carried back by |T| and |T^-1|, ||A|| times what M misses of T^H J T (its
imaginary part and the rounding of forming it), and the rounding of
forming A times ||J||.  Of |I - B M| the bound reads only the weighted
column sums per row group, so the gemm error gamma |B| |M| enters as
(W |B|) |M|, with W the (ns + 9) x N group weights: the only N^3 products
are the inverse and B M.  A is the complex Jhat, and the bounds and the
jets' step read Jhat and |Jhat|.

Every stage is posed on one class c of the half-period reflection Q,
(Q h)_(c,k) = sigma_c (-1)^k h_(c,k) with sigma = -1 on z and vz: on
R^ns x X_c, X_c the modes of class c of each component (`SpaceLayout`
with cls), K or K - 1 of the 2K - 1 per window.  F commutes with Q: the
field is symmetric under z -> -z, the primaries lie in z = 0 (the context
checks it), and each w_j is even in z.  So on data of class c a stage maps
R^ns x X_c into R^ns x Y_c: its eta and xi rows are scalars, and its y
columns, a_1 and w_j^3, lie in class +1.  a_0 has class +1, a_1 the class
c1 of its Hill eigenvector (+1 for both kinds on the reference orbit), and
jet alpha class c1^|alpha|.  A centre lies in its class exactly, and a
validator refuses one with a nonzero entry off it.  The Newton-Kantorovich
argument runs in the class: it proves a zero there, which is all the
manifold needs, and r_max is the radius of uniqueness within the class.
No bound grows: with a centre in its class, the whole J maps the
(scalars, class) slots into themselves, so it is block upper triangular in
((scalars, class), other class) and the class inverse is the (scalars,
class) block of the whole one; ||A||, Z0, Z1 and Y sum over part of the
rows and columns of the whole-space bounds.  J, the inverse, the Newton
solves and the jets' step thus carry about half the slots, and the N^3
work is an eighth of the whole.

Stages:

* order 0: the periodic orbit with four unfolding scalars y and the
  phase/initialization conditions eta; a valid certificate forces the
  y-enclosure to contain zero.  Its J is DF at y = 0 (`_orbit_jacobian`,
  which seeding's Newton takes too), exact on the true orbit, where y = 0.
  The y terms of DF(x_bar), E_y = y0 on component 1 and y_j 3 sq_j * on
  component 6+j (sq_j the square of a_(6+j)), enter Z1 through
  pre_Z1 = max(|y0|, 3 |y_j| ||sq_j||).
* order 1: the Floquet bundle (lambda, a_1) normalized by the quadratic
  phase scalar xi, with lambda real and a_1 fixed by R and in one class of
  Q; resonances are excluded by checking that the enclosure of Re(lambda)
  omits zero, and the kind by checking its sign.
* orders 2..N_t: the jets a_alpha, affine problems (Z2 = 0) whose data
  uncertainty (radii of all lower orders) is folded into Y and Z1.  Only
  the jets with m >= n are solved (`table.solved`); a_(n,m) is the
  conjugate reflection of a_(m,n) with the same radius.

Orders 0 and 1 solve their truncated maps by Newton's method to the
residual tolerance NEWTON_TOL (order 0 in `seeding`).  A jet's map is affine,
so its center is one step from zero with the approximate inverse A of its own
certificate: z = -A R, for R the window of its right-hand side.  That step
is one O(N^2) product, taken however small R is; no jet is solved by a
dense factorization.  Every stage looks for its radius r below the cap
R_STAR.

The right-hand side of a jet of order p is layer alpha of the field on the
orders below p, evaluated in two lanes, both in `numerics`.  The float lane
(`numerics.FloatArith`, the one float fold of the field) gives the float
right-hand side: the jet's step reads it, and so does the residual of
its certificate, as exact discs.  The norm lane (`numerics._NormRad`)
gives, per layer, a bound N of the float value's nu-norm and a bound r of
its distance from the field at the true lower orders.  r takes in the radii
of the lower orders and the rounding of every float operation, so the
jet's budget rho bounds the whole distance and enters Y through pre_Y.
Both lanes fold only the solved layers (m >= n) of each product: as the
table's mirrors are, a mirror layer (n, m) is the conjugate reflection of
layer (m, n), exactly, with its (N, r), because the field is real and the
true lower orders keep the same rule (`numerics._NormRad`).
`numerics._level_fields` makes both lanes once per level, and `_extend`
hands each level's evaluation to the next: that level reuses the lower
orders' entries and every product layer below p - 1, completes layer p - 1
from the interior folds the level below made of it, and computes layer p
only for the jets it solves (`numerics._Incremental`).  Nothing of it is
kept on the table; `jet_problem` and `validate_jet`, which take one jet of
a table, evaluate its level afresh.

A jet takes its right-hand side and rho from its level's fields
(`numerics._jet_rhs`), and lambda_bar, the kind, the radii of orders 0
and 1 and the order-1 digest from its table; `_certify_jets` assembles and
certifies the jets of a level as one batch, and `validate_jet` one jet as a
batch of one.  A batch stacks its residuals: DF0 runs once per kernel on all the
centres, A once on all the residual windows, and every stacked step gives
each jet the bits it gets alone, so `validate_jet` reproduces the level's
certificate.  Orders 0 and 1 are batches of one too: there is one residual
path and one certify path (`_certify`).  The context holds what the
stages share: the kernel part of the window defect, the kernels' tail
tables (`kmags`, `kprofiles`, `knorms`, `const`), which the tail bounds of
`opbound` read, and DF0 as discs (`df0`), all made from one evaluation of
the kernels in the discs of `numerics._DiscArith`: their midpoints are the
float kernels fker that J holds, and radius k bounds the distance of
coefficient k of fker from that of the kernel at a0.  kgap is the nu-norm
of the radii and knorms that of kmags.  It is not changed once built and
holds no N x N array: a stage builds its float window block J
(`_StageContext.window_block`) and its operator where it needs them, and
lets them go when it returns.  Every jet of order p has s = p lambda_bar,
and the jets come level by level, so `_level_parallel` makes one operator
(inverse, Z0 and Z1) per level.

Every jet runs in the calling process, level by level in a fixed order.
The jets of one level are independent, but a process pool only added a
fork, a pickled N x N operator per task and BLAS threads competing for the
same cores: on 2 cores it made the jets slower, not faster.  The public
stage calls run their dense algebra on one BLAS thread
(`numerics.one_blas_thread`): on one class of Q a second thread finds
too little N^3 work to pay for its spinning between calls, which took a
core from whatever else ran.  So one certified table costs one core, and
its digests do not depend on the BLAS thread count.

The jet table (`table.JetTable`) collects centers, radii, eigenvalue
enclosures, and the certificates with a digest chain binding each stage to
its predecessors.  The `table` module owns which (m, n) a table holds, the
names of its stages and their digests; a stage's result goes in through
`JetTable.write`, which writes its mirror too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .interval import ComplexInterval, Interval
from .ivarray import (
    CArr,
    cmat_abs_up,
    cmm,
    matmul_by_column,
    mm_up_nonneg,
    mr_add,
    up_sum,
    zero_masked_up,
    _dn,
    _up,
)
from .opbound import (
    Q_SIGMA,
    ResonantExponents,
    SpaceLayout,
    block_norms,
    class_slots,
    cos_sin_inverse,
    group_max,
    group_vec_norms,
    inv_dist_up,
    norm_rows,
    nu_bounds,
    opnorm_upper,
    seq_tail_weighted,
    tail_col_profile,
    tail_row_bounds,
)
from .radii import Certificate, NKBounds, NoNegativeRadius, radii_newton
from .seqspace import FourierSeq, project
from .table import JetTable, _strip_unvalidated, rescale_jets
from . import model
from . import numerics
from . import table

__all__ = [
    "ResonantExponents",
    "UnfoldingNotZero",
    "OrbitSolution",
    "BundleSolution",
    "Order0Result",
    "Order1Result",
    "JetResult",
    "newton_stage",
    "bundle_problem",
    "jet_problem",
    "validate_order0",
    "validate_order1",
    "validate_jet",
    "start_jet_table",
    "extend_with_jets",
]

# the largest radius any stage certificate may use
R_STAR = 1e-2
# residual tolerance of the Newton solves of order 0 (in seeding) and order 1;
# the jets are affine and take one step with their certificate's inverse
NEWTON_TOL = 1e-13


class UnfoldingNotZero(RuntimeError):
    """The certified ball around the unfolding parameters misses zero."""


# ---------------------------------------------------------------------------
# small verified helpers


def _civ_ball(z: complex, r: float) -> ComplexInterval:
    return ComplexInterval(
        Interval(_dn(z.real - r), _up(z.real + r)),
        Interval(_dn(z.imag - r), _up(z.imag + r)),
    )


def _up_horner(coeffs, r: float) -> float:
    """Upward evaluation of a polynomial with nonnegative coefficients at r >= 0."""
    val = 0.0
    for c in reversed(list(coeffs)):
        val = _up(_up(val * r) + c)
    return float(val)


# ---------------------------------------------------------------------------
# product-rule inflation polynomials for Z2 and for data-uncertainty bounds


def _poly_mul_up(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = float(_up(out[i + j] + _up(a * b)))
    return out


def _deriv_diff_coeffs(mus):
    """Coefficients (of r^1, r^2, ...) of sum_i [prod_{k!=i}(mu_k+r) - prod mu_k].

    This bounds the row sum of the derivative difference of the monomial
    with unit-Lipschitz affine factors of center sizes mu_k.
    """
    d = len(mus)
    total = [0.0] * max(d - 1, 1)
    for i in range(d):
        p = [1.0]
        for k, mu in enumerate(mus):
            if k != i:
                p = _poly_mul_up(p, [float(mu), 1.0])
        for deg in range(1, len(p)):
            total[deg - 1] = float(_up(total[deg - 1] + p[deg]))
    return total


def _row_polys(monomials):
    """Accumulate scaled inflation polynomials per row key."""
    rows = {}
    for row, coeff, mus in monomials:
        if len(mus) < 2:
            continue
        cs = _deriv_diff_coeffs(mus)
        acc = rows.setdefault(row, [0.0] * len(cs))
        if len(acc) < len(cs):
            acc.extend([0.0] * (len(cs) - len(acc)))
        for d, c in enumerate(cs):
            acc[d] = float(_up(acc[d] + _up(coeff * c)))
        rows[row] = acc
    return rows


def _polys_max_coeffs(rows):
    if not rows:
        return (0.0,)
    deg = max(len(v) for v in rows.values())
    out = []
    for d in range(deg):
        out.append(max(v[d] if d < len(v) else 0.0 for v in rows.values()))
    return tuple(out)


def _polys_eval_max(rows, r: float) -> float:
    # row lists start at degree 1: the value is r * horner(coeffs, r)
    if not rows:
        return 0.0
    return max(float(_up(r * _up_horner(v, r))) for v in rows.values())


# ---------------------------------------------------------------------------
# stage context: everything derived from the certified order-zero center


class _StageContext:
    """Derivative kernels and monomial tables at a fixed order-zero center."""

    def __init__(self, a0_seqs, cfg, omega: float, K: int, nu: float):
        if any(p[2].lo or p[2].hi for p in map(cfg.position, range(3))):
            raise ValueError("a primary lies off z = 0, so the field does not commute with Q")
        self.cfg = cfg
        self.omega = float(omega)
        self.K = int(K)
        self.nu = float(nu)
        self.a0 = tuple(a0_seqs)
        self.A0 = np.array([s.c.mid() for s in self.a0])
        self.ms, self.pos = numerics.cfg_floats(cfg)
        # the kernels at a0 as discs: one float evaluation, the kernels J
        # holds, and per coefficient its distance from the kernel with the
        # true masses and positions
        self.fconst, discs = model.field_derivative(
            numerics._DiscArith(cfg), [(a, np.zeros(len(a))) for a in self.A0])
        self.fkers = [[None if d is None else d[0] for d in row] for row in discs]
        self.kmags = [[None] * 9 for _ in range(9)]
        # `tail_col_profile` of each of kmags: it reads only the kernel, K
        # and nu, so one serves every operator of the context
        self.kprofiles = [[None] * 9 for _ in range(9)]
        self.knorms = np.zeros((9, 9))
        # per block of the window defect: ||ker - fker||_nu, and the
        # enclosure c + ker(0) of the diagonal without -i omega k - s
        self.kgap = np.zeros((9, 9))
        centre = np.zeros((4, 9, 9))
        for i in range(9):
            for j in range(9):
                if discs[i][j] is not None:
                    fker, rad = discs[i][j]
                    # exact zeros where the disc is one: no subnormal moduli
                    mags = cmat_abs_up(fker, None) + rad
                    self.kmags[i][j] = zero_masked_up(mags, mags)
                    self.kprofiles[i][j] = tail_col_profile(self.kmags[i][j], self.K, self.nu)
                    self.knorms[i, j] = FourierSeq.point(self.kmags[i][j], self.nu).norm_upper()
                    self.kgap[i, j] = FourierSeq.point(rad, self.nu).norm_upper()
                    W = (len(fker) - 1) // 2
                    z, r = fker[W], rad[W]
                    centre[:, i, j] = (_dn(z.real - r), _up(z.real + r),
                                       _dn(z.imag - r), _up(z.imag + r))
        self.df0 = model.DF0(self.fconst, discs)
        self.const = np.array(self.fconst)
        self.dconst = CArr.point(self.const.astype(complex)).add(CArr(*centre))
        self._build_monomials()

    def window_block(self, s: float, layout: SpaceLayout) -> np.ndarray:
        """Float window block of h -> DF0 h - i omega k h - s h, built afresh,
        on the window slots of `layout`: whole, or one class of Q."""
        return numerics.base_block(self.fconst, self.fkers, layout,
                                   -1j * self.omega * numerics.kvals(self.K) - s)

    def jet_operator_data(self, s: float, cls: int) -> "_OperatorData":
        """What `_operator` reads for the jets of class cls with shift s."""
        layout = SpaceLayout(0, self.K, cls)
        J = self.window_block(s, layout)
        return _OperatorData(layout=layout, s=s, J=J,
                             window_defect=_window_defect(self, J, layout, s),
                             scalar_tail_sup=np.zeros((0, 9)), ycol_tail_mags=[])

    def _build_monomials(self):
        a0n = [s.norm_upper() for s in self.a0]
        monos = []
        for j in range(3):
            px, py, pz = self.cfg.position(j)
            mj = self.cfg.masses[j].mag()
            wn = a0n[6 + j]
            dxn = self.a0[0].sub(model._const_seq(px, self.nu)).norm_upper()
            dyn = self.a0[2].sub(model._const_seq(py, self.nu)).norm_upper()
            dzn = self.a0[4].sub(model._const_seq(pz, self.nu)).norm_upper()
            monos.append((("seq", 1), mj, (dxn, wn, wn, wn)))
            monos.append((("seq", 3), mj, (dyn, wn, wn, wn)))
            monos.append((("seq", 5), mj, (dzn, wn, wn, wn)))
            for dn_, slot in ((dxn, 1), (dyn, 3), (dzn, 5)):
                monos.append((("seq", 6 + j), 1.0, (dn_, wn, wn, wn, a0n[slot])))
        self.field_monos = monos
        self.a0_norms = a0n
        self._field_polys = _row_polys(monos)

    def field_dd(self, r: float) -> float:
        """Operator-norm bound for DF0(a0 + d) - DF0(a0) over ||d|| <= r."""
        return _polys_eval_max(self._field_polys, r)


# ---------------------------------------------------------------------------
# float-lane residual/Jacobian closures (Newton and the window block of A_dag)


def newton_stage(problem, guess) -> np.ndarray:
    """Damped Newton on a stage's truncated map.

    problem is a (residual, jacobian) pair such as `bundle_problem` or
    `jet_problem`; both act on packed complex vectors [scalars, window rows
    flattened].
    """
    residual, jacobian = problem
    return numerics.newton_polish(residual, jacobian, guess, tol=NEWTON_TOL)


def _class_of(stage, mags, K: int, cls=None) -> int:
    """The class of Q of a centre whose moduli are mags (nine windows of
    2K - 1): cls, or the class of its largest entry.  With a stage, an exact
    test refuses the centre (ValueError) when an entry off it is not zero."""
    off = np.ravel(mags).copy()
    if cls is None:
        cls = 1 if off[class_slots(K, 1)].max(initial=0.0) >= off.max(initial=0.0) else -1
    off[class_slots(K, cls)] = 0.0
    if stage and off.any():
        raise ValueError("%s: the centre is not in class %+d of Q: an entry off "
                         "the class has modulus %.3e" % (stage, cls, off.max()))
    return cls


def _jet_class(jet: "JetTable", p: int) -> int:
    """The class of Q of the jets of order p: c1^p, with c1 that of a_1."""
    return _class_of(table.stage_key((1, 0), jet.kind),
                     [s.c.mag() for s in jet.orders[(1, 0)]], jet.K) ** p


def _orbit_residual(z, omega, anchor, layout: SpaceLayout, ms, pos):
    """Order-zero residual [eta, F(a) - i omega k a + G(y, a) on the window
    slots of `layout`] at z = [y, a on those slots] (`SpaceLayout.pack`,
    ns = 4)."""
    y, A = layout.unpack(z)
    K = layout.K
    diag = -1j * omega * numerics.kvals(K)
    F = numerics.field_grid([{(0, 0): a} for a in A], ms, pos, cap=0)
    rows = np.zeros_like(A)
    for i in range(9):
        rows[i] = numerics.crop(F[i][(0, 0)], K) + diag * A[i]
    rows[1] += y[0] * A[1]
    for j in range(3):
        w = A[6 + j]
        cube = np.convolve(np.convolve(w, w), w)
        rows[6 + j] += y[1 + j] * numerics.crop(cube, K)
    eta, _ = model.eta_terms(A.sum(axis=1), anchor, pos)
    return layout.pack(eta, rows)


def _orbit_jacobian(z, omega, anchor, layout: SpaceLayout, ms, pos, out=None, kernels=None):
    """Jacobian of `_orbit_residual` in (y, a) at fixed omega and y = 0.

    It reads no y: the y-terms of the a-derivative, y0 on component 1 and
    y_j 3 w_j^2 * on component 6+j, vanish on the solution, where y = 0.
    So it is the exact Jacobian there, seeding's Newton takes it, and order
    0's certificate takes it as its J; `_assemble_orbit` bounds the dropped
    terms at y_bar in Z1.  Written into out (a zero square view of the same
    order) when given.  kernels is (const, kers) at the rows of z, of
    `numerics.derivative_kernels` or the stage context's, when the caller
    already has them.  z, the rows and the columns hold the slots of
    `layout` (ns = 4).
    """
    _, A = layout.unpack(z)
    K, N = layout.K, layout.n
    J = np.zeros((N, N), dtype=complex) if out is None else out
    _, gradient = model.eta_terms(A.sum(axis=1), anchor, pos)
    for r, row in enumerate(gradient):
        for j, c in row.items():
            J[r, layout.slices[4 + j]] = c
    if kernels is None:
        kernels = numerics.derivative_kernels(A, ms, pos)
    const, kers = kernels
    numerics.base_block(const, kers, layout, -1j * omega * numerics.kvals(K), out=J[4:, 4:])
    cols = np.zeros((4, 9, 2 * K - 1), dtype=complex)
    cols[0, 1] = A[1]
    for j in range(3):
        w = A[6 + j]
        cols[1 + j, 6 + j] = numerics.crop(np.convolve(np.convolve(w, w), w), K)
    J[4:, :4] = cols.reshape(4, -1)[:, layout.slots].T
    return J


def _xi_cols(layout: SpaceLayout, k0: int) -> list:
    """Per component, the columns of `layout` of the modes |k| < k0, which
    the phase scalar xi sums."""
    return [np.flatnonzero(layout.kabs[sl] < k0) + sl.start
            for sl in layout.slices[layout.ns:]]


def _bundle_jacobian(base: np.ndarray, z, layout: SpaceLayout, k0: int) -> np.ndarray:
    """Jacobian of the bundle residual in (lambda, a_1) around the base block,
    on the slots of `layout` (ns = 1)."""
    lam = z[0]
    N = layout.n
    J = np.zeros((N, N), dtype=complex)
    J[1:, 1:] = base - lam * np.eye(N - 1)
    J[1:, 0] = -z[1:]
    S = numerics.crop(layout.unpack(z)[1], k0).sum(axis=1)
    for i, cols in enumerate(_xi_cols(layout, k0)):
        J[0, cols] = 2.0 * S[i]
    return J


def bundle_problem(jet: "JetTable", cfg, cls: int):
    """Floquet bundle stage: unknowns (lambda, a_1) at the table's orbit
    center, a_1 in class cls of Q, packed as [lambda, its slots]."""
    K, k0, xi0 = jet.K, jet.k0, jet.xi0
    layout = SpaceLayout(1, K, cls)
    base = _context_for(jet, cfg).window_block(0.0, layout)

    def residual(z):
        S = numerics.crop(layout.unpack(z)[1], k0).sum(axis=1)
        xi = np.sum(S * S) - xi0
        return np.concatenate([[xi], base @ z[1:] - z[0] * z[1:]])

    return residual, lambda z: _bundle_jacobian(base, z, layout, k0)


def jet_problem(alpha, jet: "JetTable", cfg):
    """Homological stage for a single alpha with |alpha| >= 2 (linear).

    The jets of a table are not solved with it: each takes one step with the
    inverse of its certificate (`_level_parallel`), and this residual
    measures the step."""
    alpha = _solved_jet(alpha)
    ctx = _context_for(jet, cfg)
    rhs, _ = numerics._jet_rhs(numerics._level_fields(jet, cfg, sum(alpha)), alpha)
    base = ctx.window_block(sum(alpha) * jet.lambda_bar, SpaceLayout(0, ctx.K))
    Rwin = _rhs_window(rhs, ctx.K).ravel()
    return (lambda z: base @ z + Rwin), (lambda z: base)


def _rhs_window(rhs, K: int) -> np.ndarray:
    """The window of a jet's right-hand side, nine rows: the float lane of
    its remainder, which the certificate of the jet reads too."""
    return np.array([np.zeros(2 * K - 1, dtype=complex) if f is None
                     else numerics.crop(f, K)
                     for f in rhs])


# ---------------------------------------------------------------------------
# assembled stage data handed to the common certifier


@dataclass
class _OperatorData:
    """What the operator part of a stage certificate reads besides its
    context: the layout of the stage's scalars and class of Q, the shift s,
    the float window block J on that layout, the window defect, and the
    parts of DF(x_bar) - A_dag that reach the tail from the scalars (the eta
    rows of order 0, and its y columns as (column, component, moduli)).  The
    kernels' tail coupling is the context's, the same for every stage."""

    layout: SpaceLayout
    s: float
    J: np.ndarray
    window_defect: np.ndarray
    scalar_tail_sup: np.ndarray
    ycol_tail_mags: list


class _Operator(NamedTuple):
    """The operator part of a stage certificate: A = Jhat, a float inverse of
    J on the window of the layout's class (the exact reciprocal diagonal on
    the tail), and the bounds that read A but not the stage's residual."""

    layout: SpaceLayout
    nu: float
    omega: float
    s: float
    Jhat: np.ndarray
    Z0: float
    normA: float
    normA_seq: float
    Z1_window: float
    Z1_tail: float


@dataclass
class _Assembled:
    """The own part of the certificates of a batch of stages that share one
    operator (the jets of a level, or one stage): per stage its tag, the
    monomials of Z2 and the data uncertainty pre_Y, pre_Z1; and the
    residuals as discs, stacked with one stage per row: (mid, rad) of the
    scalars and (mid, rad, moduli) of each component's whole sequences."""

    tags: list
    resid_scalars: tuple
    resid_seqs: list
    monomials: list
    pre_Y: list
    pre_Z1: list


def _diagonal_term(a: np.ndarray, omega: float, s: float):
    """(mid, rad), discs of (-s - i omega k) a_k for a point window a of
    modes k = -(K-1)..K-1 along its last axis (or a stack of windows) and a
    real s.

    With t = fl(omega k), mid is (-s a_re + t a_im) + i (-s a_im - t a_re),
    each product and sum rounded to nearest; -s is exact.  A product errs
    by at most half the spacing of the floats at its result, underflow
    included, and the error of a sum is found exactly (Knuth's two-sum).
    t's own error adds half the spacing at t times |a_im| and |a_re|.  rad
    is the modulus of the two parts' error bounds, rounded up."""
    def half(x):  # at least half the spacing of the floats at |x|
        return _up(0.5 * np.spacing(np.abs(x)))

    t = omega * numerics.kvals((a.shape[-1] + 1) // 2)
    ar, ai = a.real, a.imag
    parts, err = [], []
    for x, y, other in ((-s * ar, t * ai, ai), (-s * ai, -(t * ar), ar)):
        part = x + y
        yv = part - x
        e = _up(_up(half(x) + half(y)) + np.abs((x - (part - yv)) + (y - yv)))
        err.append(_up(e + _up(half(t) * np.abs(other))))
        parts.append(part)
    return parts[0] + 1j * parts[1], _up(cmat_abs_up(err[0] + 1j * err[1], None))


def _affine_residual(ctx: "_StageContext", rows, s: float, rhs=None) -> list:
    """The residual (-omega d_theta - s + DF0) a + R of order 1 or of a jet
    as nine (mid, rad, moduli): a is nine point window arrays, s the real
    shift and R the float right-hand side, nine arrays or None (zero).  The
    arrays may be stacks, one stage of a batch per row, all at one s.  Each
    component sums DF0 a (`model.DF0.apply`), the `_diagonal_term` and the
    exact R, in that order, with `mr_add`."""
    out = []
    for i, (m, r) in enumerate(ctx.df0.apply(rows)):
        m, r = mr_add(m, r, *_diagonal_term(rows[i], ctx.omega, s))
        if rhs is not None and rhs[i] is not None:
            m, r = mr_add(m, r, rhs[i], np.zeros(np.shape(rhs[i])))
        out.append((m, r, cmat_abs_up(m, r)))
    return out


def _operator(ctx: _StageContext, d: _OperatorData) -> _Operator:
    """The operator part of a stage's certificate, on the stage's layout:
    its scalars and its class of Q.

    The real shift s makes the inverse in the cos/sin basis
    (`opbound.cos_sin_inverse`), and Z0 sums three terms there: the real product
    |I - B M| carried back by |T| and |T^-1|, ||A|| times what M misses of
    T^H J T, and the rounding of forming A times ||J||.  ||A||, Z1_window
    and Z1_tail read the complex Jhat and |Jhat|, taken once from Jhat's
    moduli, rounded up."""
    K, nu, omega, s, layout = ctx.K, ctx.nu, ctx.omega, d.s, d.layout
    ns, N = layout.ns, layout.n
    ngroups = ns + 9
    Jhat, z0, z0_per_normA = cos_sin_inverse(d.J, layout, nu)
    # np.abs rounds a modulus to nearest, down about half the time
    absJ = cmat_abs_up(Jhat, None)

    Bmat = block_norms(absJ, layout, nu)
    rowsJ = norm_rows(Bmat)
    Z0 = float(_up(z0 + _up(z0_per_normA * float(rowsJ.max()))))
    dtK = float(inv_dist_up(np.array([float(K)]), omega, s)[0])
    normA = group_max(rowsJ, ns, dtK)
    # pre_Y / pre_Z1 bound perturbations supported on the sequence block only
    # (no scalar components), so their amplification constant may drop the
    # scalar columns of A.  The quadratic terms keep the full norm: their
    # difference operators can involve the scalar directions.
    normA_seq = group_max(norm_rows(Bmat[:, ns:]), ns, dtK)

    # the window part of Z1: J^-1 (pi (DF(x_bar) - J) pi), by norms
    Z1_window = float(_up(rowsJ.max() * opnorm_upper(d.window_defect)))
    # the tail part: U holds, per window row and column group, the sup over
    # the tail columns l of |DF_kl| nu^-|l|; a row reads the profile at its
    # mode, the sup over every tail column, of its class or not
    U = np.zeros((N, ngroups))
    for j in range(9):
        U[:ns, ns + j] = d.scalar_tail_sup[:, j]
        for i in range(9):
            if ctx.kmags[i][j] is not None:
                sl = layout.slices[ns + i]
                U[sl, ns + j] = ctx.kprofiles[i][j][layout.wpos[sl]]
    Wmat = mm_up_nonneg(absJ, U)
    del absJ
    Np = np.zeros((ngroups, ngroups))
    for ci in range(ngroups):
        Np[:, ci] = group_vec_norms(Wmat[:, ci], layout, nu)
    kernel_tails = tail_row_bounds(ctx.kmags, ctx.knorms, K, nu, omega, s)
    for i in range(9):
        R = ns + i
        for j in range(9):
            add = float(kernel_tails[i, j])
            cconst = abs(ctx.const[i, j])
            if cconst:
                add = float(_up(add + _up(cconst * dtK)))
            if add:
                Np[R, ns + j] = _up(Np[R, ns + j] + add)
        for col, slot, mags in d.ycol_tail_mags:
            if slot == i:
                t = seq_tail_weighted(mags, K, nu, omega, s)
                Np[R, col] = _up(Np[R, col] + t)
    Z1_tail = max(up_sum(Np[R]) for R in range(ngroups))
    return _Operator(layout, nu, omega, s, Jhat, Z0, normA, normA_seq, Z1_window, Z1_tail)


def _certify(op: _Operator, asm: _Assembled, digests: list) -> list:
    """The certificate and report of each stage of the batch, in order, with
    its inputs digest; a failure raises, for the first stage that fails, a
    NoNegativeRadius that carries its report's bounds as `bounds`.

    The batch shares the operator: A is applied to the residual windows of
    all its stages in one `cmm`, whose columns are those of each stage
    alone, and the tail sums of each component run over the stack."""
    layout, nu, omega, s = op.layout, op.nu, op.omega, op.s
    ns, K = layout.ns, layout.K
    # the residuals on the class, one column per stage; the exact ones have
    # nothing off it
    vm, vr = (layout.pack(asm.resid_scalars[t],
                          np.stack([numerics.crop(seq[t], K) for seq in asm.resid_seqs],
                                   axis=-2)).T
              for t in (0, 1))
    absY = cmat_abs_up(*cmm(op.Jhat, None, vm, vr))
    tails = np.array([seq_tail_weighted(g, K, nu, omega, s) for _, _, g in asm.resid_seqs])
    out = []
    for b, tag in enumerate(asm.tags):
        gY = group_vec_norms(absY[:, b], layout, nu)
        # the residual part of Y per row group, and the group that sets it
        per_group = np.concatenate([gY[:ns], _up(gY[ns:] + tails[:, b])])
        g = int(np.argmax(per_group))
        Y0 = float(per_group[g])
        Y_group = "scalar %d" % g if g < ns else "seq %d" % (g - ns)
        pre_Y, pre_Z1 = asm.pre_Y[b], asm.pre_Z1[b]
        Y = float(_up(Y0 + _up(op.normA_seq * pre_Y)))
        Z1 = float(_up(_up(op.Z1_tail + op.Z1_window) + _up(op.normA_seq * pre_Z1)))

        coeffs = _polys_max_coeffs(_row_polys(asm.monomials[b]))
        Z2 = tuple(float(_up(op.normA * c)) for c in coeffs)

        bounds = NKBounds(Y=Y, Z0=op.Z0, Z1=Z1, Z2=Z2, r_star=R_STAR)
        report = {
            "Y": Y, "Y0": Y0, "Y_group": Y_group, "Z0": op.Z0, "Z1": Z1,
            "Z1_window": op.Z1_window, "Z1_tail": op.Z1_tail, "pre_Y": pre_Y,
            "pre_Z1": pre_Z1, "Z2": list(Z2), "normA": op.normA,
            "cls": layout.cls, "N": layout.n,
        }
        try:
            cert = radii_newton(bounds, stage=tag, inputs_digest=digests[b])
        except NoNegativeRadius as exc:
            raise NoNegativeRadius(
                "no verified radius below r_star = %.3e for stage %r in class %+d "
                "of Q (N = %d): Y = %.3e (residual %.3e, set by row group %s), "
                "Z0 = %.3e, Z1 = %.3e (window %.3e, tail %.3e), ||A|| = %.3e"
                % (R_STAR, tag, layout.cls, layout.n, Y, Y0, Y_group, op.Z0, Z1,
                   op.Z1_window, op.Z1_tail, op.normA),
                poly=exc.poly, bounds=report) from exc
        report.update(r0=cert.r0, r_max=cert.r_max)
        out.append((cert, report))
    return out


# ---------------------------------------------------------------------------
# per-stage assembly


def _gap(c: ComplexInterval, z) -> float:
    """Upper bound of |x - z_k| over x in c and every entry z_k of z."""
    return float(CArr.from_civ_list([c]).sub(CArr.point(z)).mag().max())


def _window_defect(ctx: _StageContext, J: np.ndarray, layout: SpaceLayout,
                   s: float) -> np.ndarray:
    """Block norms, over the groups of `layout`, of
    pi (DF0 - i omega k - s - J) pi on the sequence blocks of J.

    Every stage's J holds there the context's float block at s: off its
    diagonal, block (i, j) is the float kernel fker_ij as it is, so that
    part is at most ||ker_ij - fker_ij||_nu (`ctx.kgap`), on the whole
    window or on a class of Q alike.  On its diagonal J holds a float sum,
    which is compared entry by entry with the enclosure of DF0's entry:
    c_ij + ker_ij(0), plus -i omega k - s when i = j.  In a class of Q,
    blocks (i, j) with sigma_i != sigma_j hold no diagonal: their rows and
    columns have modes of opposite parity.  The assembler adds the blocks
    of the stage's scalar rows and columns; what else the stage's DF(x_bar)
    holds on the sequence blocks (order 0's y terms) is not J's to miss and
    enters Z1 through pre_Z1.
    """
    ns = layout.ns
    m = ctx.omega * numerics.kvals(ctx.K).astype(float)
    gap = np.zeros((9, 9))
    groups = ([np.arange(9)] if layout.cls is None else
              [np.flatnonzero(Q_SIGMA == sg) for sg in (1, -1)])
    for G in groups:
        # the windows of G hold the same modes; Jd[k, a, b]: entry k of the
        # diagonal of block (G[a], G[b])
        sls = [layout.slices[ns + c] for c in G]
        L = sls[0].stop - sls[0].start
        if not L:
            continue
        k = np.arange(L)[:, None, None]
        b = np.array([sl.start for sl in sls])
        Jd = J[k + b[:, None], k + b]
        gap[np.ix_(G, G)] = ctx.dconst.slice(np.ix_(G, G)).sub(
            CArr.point(Jd)).mag().max(axis=0)
        # on the diagonal blocks: -i omega k - s (s an exact float) as a
        # column, then c + ker(0)
        mk = m[layout.wpos[sls[0]]][:, None]
        re = np.full((L, 1), -s)
        box = CArr(re, re, -_up(mk), -_dn(mk)).add(ctx.dconst.slice((G, G)))
        ii = np.arange(len(G))
        gap[G, G] = box.sub(CArr.point(Jd[:, ii, ii])).mag().max(axis=0)
    N = np.zeros((ns + 9, ns + 9))
    N[ns:, ns:] = _up(ctx.kgap + gap)
    return N


def _assemble_orbit(sol: "OrbitSolution", ctx: _StageContext):
    """(`_OperatorData`, `_Assembled`) of the order-0 certificate.

    J is DF at y = 0 (`_orbit_jacobian`).  What it leaves out of DF(x_bar),
    E_y = y0 on component 1 and y_j 3 sq_j * on component 6+j, maps
    sequences to sequences, on the window and on the tail alike, with norm
    at most max(|y0|, 3 |y_j| ||sq_j||): that is the stage's pre_Z1.  The
    field is order 0's endpoint products, from one IntervalArith, which
    goes when the call returns; the squares and cubes of w_j are the
    field's own."""
    cfg = ctx.cfg
    K, nu, omega = ctx.K, ctx.nu, ctx.omega
    ns = 4
    layout = SpaceLayout(ns, K, 1)
    anchor = sol.anchor
    y = np.asarray(sol.y, dtype=complex)
    ymag = [float(_up(abs(complex(t)))) for t in y]

    J = _orbit_jacobian(layout.pack(y, sol.coeffs), omega, anchor, layout, ctx.ms,
                        ctx.pos, kernels=(ctx.fconst, ctx.fkers))
    Nw = _window_defect(ctx, J, layout, 0.0)
    powers = []
    F = model.field_F_grid(ctx.a0, model.IntervalArith(cfg), powers)
    # J's y0 column (a_1) is DF's, exactly; its y_j column holds the float
    # cube, on the class, where the cube lies
    cubes = [cube for _, cube in powers]
    pre_Z1 = ymag[0]
    for j, (sq, cube) in enumerate(powers):
        pre_Z1 = max(pre_Z1, float(_up(_up(3.0 * ymag[1 + j]) * sq.norm_upper())))
        col = layout.unpack(J[:, 1 + j])[1][6 + j]
        Nw[ns + 6 + j, 1 + j] = project(cube, K).sub(FourierSeq.point(col, nu)).norm_upper()

    # J's eta row 0 (-u1) is DF's, exactly; rows 1..3 hold the float gradient
    gs = [model._mode_sum(a) for a in ctx.a0]
    positions = [cfg.position(j) for j in range(3)]
    eta, gradient = model.eta_terms(gs, anchor, positions)
    eta_consts = np.zeros((ns, 9))
    eta_consts[0] = np.abs(np.asarray(anchor.u1, dtype=float))
    for r in range(1, ns):
        for slot, c in gradient[r].items():
            Nw[r, ns + slot] = _gap(c, J[r, layout.slices[ns + slot]])
            eta_consts[r, slot] = c.mag()
    eta_monos = []
    for j, (px, py, pz) in enumerate(positions):
        gw = gs[6 + j].mag()
        for fv in (gs[0] - px, gs[2] - py, gs[4] - pz):
            eta_monos.append((("scalar", 1 + j), 1.0, (fv.mag(), fv.mag(), gw, gw)))

    # the unfolding G(y, a): y0 a_1 in row 1 and y_j times the cubes in row 6+j
    G = [FourierSeq.zeros(1, nu)] * 9
    G[1] = ctx.a0[1].scale(complex(y[0]))
    for j in range(3):
        G[6 + j] = cubes[j].scale(complex(y[1 + j]))
    # the endpoint chain sets order 0's radius; its boxes become discs once
    boxes = [ctx.a0[i].dtheta().scale(-omega).add(F[i]).add(G[i]).c for i in range(9)]
    etas = CArr.from_civ_list(eta)

    nuinvK = float(nu_bounds(nu, [K])[1][0])
    monos = list(ctx.field_monos) + eta_monos
    monos.append((("seq", 1), 1.0, (ymag[0], ctx.a0_norms[1])))
    for j in range(3):
        wn = ctx.a0_norms[6 + j]
        monos.append((("seq", 6 + j), 1.0, (ymag[1 + j], wn, wn, wn)))

    data = _OperatorData(
        layout=layout, s=0.0, J=J, window_defect=Nw,
        scalar_tail_sup=_up(eta_consts * nuinvK),
        ycol_tail_mags=[(1 + j, 6 + j, cubes[j].c.mag()) for j in range(3)],
    )
    return data, _Assembled([table.cert_tag((0, 0), "")], (etas.mid()[None], etas.rad()[None]),
                            [(c.mid()[None], c.rad()[None], c.mag()[None]) for c in boxes],
                            [monos], pre_Y=[0.0], pre_Z1=[pre_Z1])


def _assemble_bundle(sol: "BundleSolution", ctx: _StageContext, r0: float):
    """(`_OperatorData`, `_Assembled`) of the order-1 certificate, on the
    class of Q that a_1 lies in; ValueError when a_1 has entries in both."""
    K, nu = ctx.K, ctx.nu
    ns = 1
    lam = sol.lam
    rows = np.asarray(sol.coeffs, dtype=complex)
    tag = table.cert_tag((1, 0), sol.kind)
    layout = SpaceLayout(ns, K, _class_of(tag, np.abs(rows), K))
    a1 = [FourierSeq.point(row, nu) for row in rows]

    J = _bundle_jacobian(ctx.window_block(0.0, layout), layout.pack([lam], rows), layout,
                         sol.k0)

    # J's -a_1 column is DF's, exactly; its xi row holds fl(2 S_i)
    Nw = _window_defect(ctx, J, layout, lam)
    k0 = sol.k0
    Smags = []
    for i, cols in enumerate(_xi_cols(layout, k0)):
        win = project(a1[i], k0)
        Si = model._mode_sum(win)
        Smags.append(Si.mag())
        if cols.size:
            Nw[0, ns + i] = _gap(Si * 2.0, J[0, cols])

    xi = CArr.from_civ_list([model.xi_phase(a1, sol.k0, sol.xi0)])

    a1n = [sq.norm_upper() for sq in a1]
    monos = [(("seq", i), 1.0, (_up(abs(lam)), a1n[i])) for i in range(9)]
    monos += [(("scalar", 0), 1.0, (Smags[i], Smags[i])) for i in range(9)]

    dd = ctx.field_dd(r0)
    data = _OperatorData(layout=layout, s=lam, J=J, window_defect=Nw,
                         scalar_tail_sup=np.zeros((ns, 9)), ycol_tail_mags=[])
    return data, _Assembled([tag], (xi.mid()[None], xi.rad()[None]),
                            _affine_residual(ctx, rows[:, None], lam), [monos],
                            pre_Y=[float(_up(dd * max(a1n)))], pre_Z1=[dd])


def _certify_jets(jet: "JetTable", ctx: _StageContext, alphas, rhss, rhos, centers,
                  op: _Operator) -> list:
    """Assemble and certify the jets alphas of one level at centers, as one
    batch; rhss and rhos are their `_jet_rhs`, and op the operator part of
    their certificates, made from the context, the level's shift and its
    class of Q (`_StageContext.jet_operator_data`).  The residuals of the
    batch are made as one stack, and each jet's equals the one it has alone
    (`validate_jet`, a batch of one)."""
    p = sum(alphas[0])
    lam = jet.lambda_bar
    s = p * lam
    tags = [table.cert_tag(alpha, jet.kind) for alpha in alphas]
    for tag, seqs in zip(tags, centers):
        if not all(row.is_point() for row in seqs):
            raise ValueError("jet centers must be point sequences")
        _class_of(tag, [np.abs(row.c.mid()) for row in seqs], ctx.K, op.layout.cls)
    rows = [np.array([seqs[i].c.mid() for seqs in centers]) for i in range(9)]
    rhs = [None if parts[0] is None else np.stack(parts) for parts in zip(*rhss)]
    resid = _affine_residual(ctx, rows, s, rhs)

    # uncertainty of the chosen diagonal shift versus <alpha, lambda>
    ds = (Interval.point(lam) * float(p) - s).mag()
    dd = ctx.field_dd(jet.radii[(0, 0)])
    shift_err = float(_up(dd + _up(p * jet.radii[(1, 0)] + ds)))
    pre_Y = [float(_up(_up(shift_err * max(sq.norm_upper() for sq in seqs)) + rho))
             for seqs, rho in zip(centers, rhos)]
    B = len(alphas)
    asm = _Assembled(tags, (np.zeros((B, 0), dtype=complex), np.zeros((B, 0))), resid,
                     [[]] * B, pre_Y=pre_Y, pre_Z1=[shift_err] * B)
    digests = [table.inputs_digest(alpha, jet.kind, jet.prev_digest(alpha), seqs)
               for alpha, seqs in zip(alphas, centers)]
    return [JetResult(alpha, tuple(seqs), cert.r0, cert, report)
            for alpha, seqs, (cert, report) in zip(alphas, centers, _certify(op, asm, digests))]


def _solved_jet(alpha):
    """alpha as a pair of ints, if a jet stage certifies it (`table.solved`)."""
    alpha = (int(alpha[0]), int(alpha[1]))
    if sum(alpha) < 2 or table.source(alpha) != alpha:
        raise ValueError("jet stages start at |alpha| = 2" if sum(alpha) < 2 else
                         "jet (%d,%d) is the reflection of (%d,%d)"
                         % (*alpha, *table.mirror(alpha)))
    return alpha


# ---------------------------------------------------------------------------
# public solution containers and validators


@dataclass
class OrbitSolution:
    omega: float
    K: int
    nu: float
    anchor: model.PhaseAnchor
    y: np.ndarray
    coeffs: np.ndarray

    def seqs(self):
        return tuple(FourierSeq.point(row, self.nu) for row in self.coeffs)


@dataclass
class BundleSolution:
    kind: str
    lam: float
    coeffs: np.ndarray
    k0: int
    xi0: float


@dataclass
class Order0Result:
    y_enclosure: tuple
    r0: float
    cert: Certificate
    bounds: dict
    # (solution, cfg, _StageContext) of the validation, for start_jet_table
    context: object = field(default=None, repr=False, compare=False)


@dataclass
class Order1Result:
    lambda1: ComplexInterval
    r1: float
    cert: Certificate
    bounds: dict


@dataclass
class JetResult:
    alpha: tuple
    centers: tuple
    r: float
    cert: Certificate
    bounds: dict


@numerics.one_blas_thread()
def validate_order0(solution: OrbitSolution, cfg) -> Order0Result:
    """Certify the periodic orbit, in class +1 of Q; the unfolding enclosure
    must contain zero."""
    _class_of(table.cert_tag((0, 0), ""), np.abs(solution.coeffs), solution.K, 1)
    ctx = _StageContext(solution.seqs(), cfg, solution.omega, solution.K, solution.nu)
    data, asm = _assemble_orbit(solution, ctx)
    (cert, report), = _certify(_operator(ctx, data), asm, [table.order0_digest(solution, cfg)])
    r0 = cert.r0
    for t in solution.y:
        if abs(complex(t)) > r0:
            raise UnfoldingNotZero(
                "unfolding parameter %r exceeds the certified radius %.3e"
                % (t, r0)
            )
    yenc = tuple(_civ_ball(complex(t), r0) for t in solution.y)
    return Order0Result(yenc, r0, cert, report,
                        context=(solution, cfg, ctx))


def _context_for(jet: "JetTable", cfg) -> _StageContext:
    cached = jet.ctx_cache
    if cached is not None and cached[0] is cfg:
        return cached[1]
    ctx = _StageContext(jet.orders[(0, 0)], cfg, jet.omega, jet.K, jet.nu)
    jet.ctx_cache = (cfg, ctx)
    return ctx


@numerics.one_blas_thread()
def validate_order1(solution: BundleSolution, jet: "JetTable", cfg) -> Order1Result:
    """Certify the Floquet eigenpair at an already-certified orbit."""
    ctx = _context_for(jet, cfg)
    r0 = jet.radii[(0, 0)]
    data, asm = _assemble_bundle(solution, ctx, r0)
    digest = table.inputs_digest(
        (1, 0), solution.kind, jet.prev_digest((1, 0)),
        [FourierSeq.point(row, jet.nu) for row in solution.coeffs],
        (solution.lam, solution.k0, solution.xi0))
    (cert, report), = _certify(_operator(ctx, data), asm, [digest])
    r1 = cert.r0
    lam = solution.lam
    if abs(lam) <= r1:
        raise ResonantExponents(
            "Re(lambda) enclosure [%g, %g] contains zero" % (lam - r1, lam + r1))
    if (lam < 0.0) != (solution.kind == "stable"):
        raise ValueError("Re(lambda) enclosure [%g, %g] is not %s"
                         % (lam - r1, lam + r1, solution.kind))
    return Order1Result(_civ_ball(complex(lam), r1), r1, cert, report)


@numerics.one_blas_thread()
def validate_jet(alpha, jet: "JetTable", cfg) -> JetResult:
    """Certify one homological jet whose center is staged in the table."""
    alpha = _solved_jet(alpha)
    rhs, rho = numerics._jet_rhs(numerics._level_fields(jet, cfg, sum(alpha)), alpha)
    ctx = _context_for(jet, cfg)
    p = sum(alpha)
    op = _operator(ctx, ctx.jet_operator_data(p * jet.lambda_bar, _jet_class(jet, p)))
    return _certify_jets(jet, ctx, [alpha], [rhs], [rho], [jet.orders[alpha]], op)[0]


# ---------------------------------------------------------------------------
# orchestration


def _check_kind(kind: str):
    """ValueError unless kind names a bundle: "stable" or "unstable"."""
    if kind not in ("stable", "unstable"):
        raise ValueError("bundle kind %r is neither 'stable' nor 'unstable'" % (kind,))


@numerics.one_blas_thread()
def start_jet_table(kind: str, sol: OrbitSolution, res: Order0Result, cfg,
                    lam_guess: float, v_guess: np.ndarray, k0: int,
                    xi0: float, N_t: int) -> JetTable:
    """Solve/certify one Floquet bundle on top of a certified orbit."""
    _check_kind(kind)
    jet = JetTable(
        kind=kind, omega=sol.omega, K=sol.K, nu=sol.nu, N_t=N_t, k0=k0,
        xi0=xi0, anchor=sol.anchor, y_bar=tuple(complex(t) for t in sol.y),
        lambda_bar=float(lam_guess),
    )
    jet.write((0, 0), sol.seqs(), res.r0, res.cert)
    if res.context is not None and res.context[0] is sol and res.context[1] is cfg:
        # the order-0 context of validate_order0 is the one the table needs
        jet.ctx_cache = res.context[1:]
    # Newton runs on the class of Q that holds the guess (the guess of
    # `seeding.bundle_guess` lies in one exactly); the problem, and with it
    # Newton's N x N block, goes before order 1's operator is made
    v = np.asarray(v_guess, dtype=complex).reshape(9, 2 * sol.K - 1)
    layout = SpaceLayout(1, sol.K, _class_of(None, np.abs(v), sol.K))
    z = newton_stage(bundle_problem(jet, cfg, layout.cls), layout.pack([lam_guess], v))
    # keep lambda real and a_1 fixed by (R a)_k = conj(a_-k), as the complex
    # solve does only up to rounding; a fixed a_1 stays put
    a1 = layout.unpack(z)[1]
    a1 = 0.5 * (a1 + np.conj(a1[:, ::-1]))
    bsol = BundleSolution(kind, float(z[0].real), a1, k0, xi0)
    jet.lambda_bar = bsol.lam
    r1 = validate_order1(bsol, jet, cfg)
    jet.write((1, 0), [FourierSeq.point(row, sol.nu) for row in bsol.coeffs], r1.r1, r1.cert)
    jet.lambda1 = r1.lambda1
    return jet


def _level_parallel(jet: "JetTable", cfg, alphas, fields):
    """Solve and certify the jets alphas of one level, in order, from the
    level's `_level_fields`: each center is the step z = -Jhat R on the
    level's class of Q, and zero off it.

    The operator part of a jet's certificate reads only the context, the
    jet's shift p lambda_bar and its class, which every jet of the level
    shares, so one operator serves the level and goes with it.  The steps
    are one product of Jhat with the right-hand sides of the level, column
    by column (`ivarray.matmul_by_column`), and the certificates one batch
    (`_certify_jets`).  The benchmark's tracer wraps this function by name
    as `stages.pool` and reads the table and the jets from its first three
    arguments.
    """
    ctx = _context_for(jet, cfg)
    p = sum(alphas[0])
    op = _operator(ctx, ctx.jet_operator_data(p * jet.lambda_bar, _jet_class(jet, p)))
    layout = op.layout
    rhss, rhos = zip(*(numerics._jet_rhs(fields, alpha) for alpha in alphas))
    Z = -matmul_by_column(op.Jhat, np.array([layout.pack((), _rhs_window(rhs, ctx.K))
                                             for rhs in rhss]).T)
    centers = [tuple(FourierSeq.point(row, ctx.nu) for row in layout.unpack(z)[1])
               for z in Z.T]
    return _certify_jets(jet, ctx, alphas, rhss, rhos, centers, op)


def _extend(jet: JetTable, cfg) -> JetTable:
    """Solve and certify the jets the table lacks, level by level."""
    fields = None
    for p in range(2, jet.N_t + 1):
        alphas = [a for a in table.solved(p) if a not in jet.radii]
        if not alphas:
            continue
        fields = numerics._level_fields(jet, cfg, p, fields)
        for res in _level_parallel(jet, cfg, alphas, fields):
            jet.write(res.alpha, res.centers, res.r, res.cert)
    return jet


@numerics.one_blas_thread()
def extend_with_jets(jet: JetTable, cfg, *, gamma: float = 0.7,
                     jobs: int = 1) -> JetTable:
    """Solve and certify all jets through order N_t (one rescale retry).

    Every jet runs in this process, on one BLAS thread, whatever `jobs` is:
    the value changes nothing.  A process pool for the independent jets of
    a level made them slower, not faster, and the level's operator, on one
    class of Q, leaves a second BLAS thread too little to do.
    `jobs` stays because the benchmark's `pool` workload
    (perfbench/pipeline.py) still passes it.
    The argument is left as it was: the jets go into a copy, which keeps
    the context and no operator of its levels."""
    jet = _strip_unvalidated(jet)
    try:
        return _extend(jet, cfg)
    except NoNegativeRadius:
        scaled = rescale_jets(_strip_unvalidated(jet), gamma)
    return _extend(scaled, cfg)

