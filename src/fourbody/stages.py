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
T^H J T (`_cos_sin_inverse`).  Z0 is the sum of three terms: |I - B M|
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
  the jets with m >= n are solved; a_(n,m) is the conjugate reflection of
  a_(m,n) with the same radius.

Orders 0 and 1 solve their truncated maps by Newton's method to the
residual tolerance NEWTON_TOL (order 0 in `seeding`).  A jet's map is affine,
so its center is one step from zero with the approximate inverse A of its own
certificate: z = -A R, for R the window of its right-hand side.  That step
is one O(N^2) product, taken however small R is; no jet is solved by a
dense factorization.  Every stage looks for its radius r below the cap
R_STAR.

The right-hand side of a jet of order p is layer alpha of the field on the
orders below p, evaluated in two lanes.  The float lane
(`numerics.FloatArith`, the one float fold of the field) gives the float
right-hand side: the jet's step reads it, and so does the residual of
its certificate, as exact discs.  The norm lane (`_NormRad`) gives, per
layer, a bound N of the float value's nu-norm and a bound r of its distance
from the field at the true lower orders.  r takes in the radii of the lower
orders and the rounding of every float operation, so the jet's budget rho
bounds the whole distance and enters Y through pre_Y.  `_level_fields`
makes both lanes once per level, and `_extend` hands each level's
evaluation to the next: that level reuses the lower orders' entries and
every product layer below p - 1, completes layer p - 1 from the interior
folds the level below made of it, and computes layer p only for the jets
it solves (`_Incremental`).  Nothing of it is kept on the table;
`jet_problem` and `validate_jet`, which take one jet of a table, evaluate
its level afresh.

A jet takes its right-hand side and rho from its level's fields
(`_jet_rhs`), and lambda_bar, the kind, the radii of orders 0 and 1 and the
order-1 digest from its table; `_certify_jets` assembles and certifies
the jets of a level as one batch, and `validate_jet` one jet as a batch of
one.  A batch stacks its residuals: DF0 runs once per kernel on all the
centres, A once on all the residual windows, and every stacked step gives
each jet the bits it gets alone, so `validate_jet` reproduces the level's
certificate.  Orders 0 and 1 are batches of one too: there is one residual
path and one certify path (`_certify`).  The context holds what the
stages share: the kernel part of the window defect, the kernels' tail
tables (`kmags`, `kprofiles`, `knorms`, `const`) and DF0 as discs (`df0`),
all made from the endpoint kernels of `model.field_derivative`, which it
does not keep.  It is not
changed once built and holds no N x N array: a stage builds its float
window block J (`_StageContext.window_block`) and its operator where it
needs them, and lets them go when it returns.  Every jet of order p has
s = p lambda_bar, and the jets come level by level, so `_level_parallel`
makes one operator (inverse, Z0 and Z1) per level.

Every jet runs in the calling process, level by level in a fixed order.
The jets of one level are independent, but a process pool only added a
fork, a pickled N x N operator per task and BLAS threads competing for the
same cores: on 2 cores it made the jets slower, not faster.  The public
stage calls run their dense algebra on one BLAS thread
(`numerics.one_blas_thread`): on one class of Q a second thread finds
too little N^3 work to pay for its spinning between calls, which took a
core from whatever else ran.  So one certified table costs one core, and
its digests do not depend on the BLAS thread count.

The jet table collects centers, radii, eigenvalue enclosures, and the
certificates with a digest chain binding each stage to its predecessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .interval import ComplexInterval, Interval, _as_iv, _next
from .ivarray import (
    CArr,
    cmat_abs_up,
    cmm,
    conv_up_nonneg,
    matmul_by_column,
    mm_up_nonneg,
    mr_add,
    up_sum,
    _ETA,
    _dn,
    _gemm_gamma,
    _U,
    _up,
)
from .opbound import (
    Q_SIGMA,
    SpaceLayout,
    block_norms,
    class_slots,
    group_col_sums,
    group_vec_norms,
    norm_rows,
    opnorm_upper,
)
from .radii import Certificate, NKBounds, NoNegativeRadius, content_digest, radii_newton
from .seqspace import FourierSeq, nu_weights, project
from . import model
from . import numerics

__all__ = [
    "ResonantExponents",
    "UnfoldingNotZero",
    "OrbitSolution",
    "BundleSolution",
    "Order0Result",
    "Order1Result",
    "JetResult",
    "JetTable",
    "newton_stage",
    "bundle_problem",
    "jet_problem",
    "validate_order0",
    "validate_order1",
    "validate_jet",
    "inputs_digest",
    "rescale_jets",
    "start_jet_table",
    "extend_with_jets",
]

# the largest radius any stage certificate may use
R_STAR = 1e-2
# residual tolerance of the Newton solves of order 0 (in seeding) and order 1;
# the jets are affine and take one step with their certificate's inverse
NEWTON_TOL = 1e-13


class ResonantExponents(ArithmeticError):
    """The enclosure of Re(lambda) contains zero; no spectral gap."""


class UnfoldingNotZero(RuntimeError):
    """The certified ball around the unfolding parameters misses zero."""


# ---------------------------------------------------------------------------
# small verified helpers


def _civ_ball(z: complex, r: float) -> ComplexInterval:
    return ComplexInterval(
        Interval(_dn(z.real - r), _up(z.real + r)),
        Interval(_dn(z.imag - r), _up(z.imag + r)),
    )


def _iv_rad_up(v: Interval) -> float:
    m = v.mid
    return float(max(_up(v.hi - m), _up(m - v.lo), 0.0))


def _nu_inv_up(nu: float, kabs) -> np.ndarray:
    """Upper bounds of nu^-|k| for an integer array of |k| values."""
    kabs = np.asarray(kabs, dtype=int)
    top = int(kabs.max()) + 1 if kabs.size else 1
    w_dn, _ = nu_weights(nu, top)
    return _up(1.0 / w_dn)[kabs]


def _nu_pow_up(nu: float, kabs) -> np.ndarray:
    kabs = np.asarray(kabs, dtype=int)
    top = int(kabs.max()) + 1 if kabs.size else 1
    _, w_up = nu_weights(nu, top)
    return w_up[kabs]


def _inv_dist_up(kabs, omega: float, s: float) -> np.ndarray:
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


def _seq_tail_weighted(mags: np.ndarray, K: int, nu: float, omega: float, s: float):
    """Upper bound of sum_{|k| >= K} nu^|k| |r_k| / |-i omega k - s| for a
    sequence r whose moduli are at most mags, its modes in ascending order
    along the last axis: one bound, or one per sequence of a stack."""
    h = (mags.shape[-1] - 1) // 2
    kabs = np.abs(np.arange(-h, h + 1))
    mask = kabs >= K
    if not mask.any():
        return np.zeros(mags.shape[:-1])
    ka = kabs[mask]
    terms = _up(_up(mags[..., mask] * _nu_pow_up(nu, ka)) * _inv_dist_up(ka, omega, s))
    sums = [up_sum(row) for row in terms.reshape(-1, terms.shape[-1])]
    return np.array(sums).reshape(mags.shape[:-1])


def _tail_col_profile(gabs: np.ndarray, K: int, nu: float) -> np.ndarray:
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
        prof = _up(vals * _nu_inv_up(nu, np.abs(ls))[None, :]).max(axis=1)
        out = np.maximum(out, prof)
    return out


def _tail_weights(W: int, K: int, nu: float, omega: float, s: float):
    """What `_tail_row_bound` reads of K, nu, omega and s for a kernel of
    half-width W: the tail weights u_k = nu^|k| / |-i omega k - s| (zero on
    the window), the columns |l| <= K-1+2W it correlates exactly with their
    nu^-|l|, and 1 / dist(K + W) for the columns beyond."""
    Lmax = K - 1 + 2 * W
    Ku = Lmax + W
    kabs = np.abs(np.arange(-Ku, Ku + 1))
    mask = kabs >= K
    u = np.zeros(kabs.size)
    u[mask] = _up(_nu_pow_up(nu, kabs[mask]) * _inv_dist_up(kabs[mask], omega, s))
    ls = np.abs(np.arange(2 * (Ku + W) + 1) - (Ku + W))
    sel = ls <= Lmax
    far = float(_inv_dist_up(np.array([K + W]), omega, s)[0])
    return u, sel, _nu_inv_up(nu, ls[sel]), far


def _tail_row_bound(gabs: np.ndarray, gnorm: float, weights) -> float:
    """sup over all columns l of nu^-|l| sum_{|k| >= K} nu^|k| |g(k-l)| / |-i omega k - s|,
    with weights the `_tail_weights` of g's half-width.

    Exact correlation on |l| <= K-1+2W; beyond that every contributing k has
    |k| >= |l| - W, so the column is capped by gnorm / dist(K + W).
    """
    if not gabs.any():
        return 0.0
    u, sel, nu_inv, far = weights
    S = conv_up_nonneg(u, gabs[::-1])
    near = float(_up(S[sel] * nu_inv).max())
    return max(near, float(_up(gnorm * far)))


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

    def __init__(self, a0_seqs, cfg, omega: float, K: int, nu: float, arith):
        # arith: the IntervalArith of cfg; neither it nor the kernels are kept
        if any(p[2].lo or p[2].hi for p in map(cfg.position, range(3))):
            raise ValueError("a primary lies off z = 0, so the field does not commute with Q")
        self.cfg = cfg
        self.omega = float(omega)
        self.K = int(K)
        self.nu = float(nu)
        self.a0 = tuple(a0_seqs)
        self.A0 = np.array([s.c.mid() for s in self.a0])
        self.ms, self.pos = numerics.cfg_floats(cfg)
        self.fconst, self.fkers = numerics.derivative_kernels(self.A0, self.ms, self.pos)
        const, kernels = model.field_derivative(arith, self.a0)
        self.df0 = model.DF0(const, kernels)
        self.kmags = [[None] * 9 for _ in range(9)]
        # `_tail_col_profile` of each of kmags: it reads only the kernel, K
        # and nu, so one serves every operator of the context
        self.kprofiles = [[None] * 9 for _ in range(9)]
        self.knorms = np.zeros((9, 9))
        # per block of the window defect: ||ker - fker||_nu, and the
        # enclosure c + ker(0) of the diagonal without -i omega k - s
        self.kgap = np.zeros((9, 9))
        centre = np.zeros((4, 9, 9))
        for i in range(9):
            for j in range(9):
                ker = kernels[i][j]
                if ker is not None:
                    self.kmags[i][j] = ker.c.mag()
                    self.kprofiles[i][j] = _tail_col_profile(self.kmags[i][j], self.K, self.nu)
                    self.knorms[i, j] = ker.norm_upper()
                    fker = FourierSeq.point(self.fkers[i][j], self.nu)
                    self.kgap[i, j] = ker.sub(fker).norm_upper()
                    W = (len(ker.c) - 1) // 2
                    c = ker.c
                    centre[:, i, j] = c.rl[W], c.rh[W], c.il[W], c.ih[W]
        self.const = np.array(const)
        self.dconst = CArr.point(self.const.astype(complex)).add(CArr(*centre))
        self._build_monomials()

    def window_block(self, s: float, slots=None) -> np.ndarray:
        """Float window block of h -> DF0 h - i omega k h - s h, built afresh:
        whole, or on the slots of one class of Q."""
        return numerics.base_block(self.fconst, self.fkers, self.K,
                                   -1j * self.omega * numerics.kvals(self.K) - s,
                                   slots=slots)

    def jet_operator_data(self, s: float, cls: int) -> "_OperatorData":
        """What `_operator` reads for the jets of class cls with shift s."""
        layout = SpaceLayout(0, self.K, cls)
        J = self.window_block(s, layout.slots)
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


def _pack(scalars, A, slots):
    """[scalars, the slots `slots` of the window rows A flattened]."""
    return np.concatenate([np.asarray(scalars, dtype=complex).ravel(),
                           np.asarray(A, dtype=complex).ravel()[slots]])


def _unpack(z, ns: int, K: int, slots):
    """(scalars, the nine window rows) of a z packed by `_pack`, zero off slots."""
    A = np.zeros(9 * (2 * K - 1), dtype=complex)
    A[slots] = z[ns:]
    return z[:ns], A.reshape(9, -1)


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
    return _class_of("order1", [s.c.mag() for s in jet.orders[(1, 0)]], jet.K) ** p


def _orbit_residual(z, omega, anchor, K: int, ms, pos, slots):
    """Order-zero residual [eta, F(a) - i omega k a + G(y, a) on the window
    slots `slots`] at z = [y, a on those slots] (`_pack`)."""
    y, A = _unpack(z, 4, K, slots)
    n = 2 * K - 1
    diag = -1j * omega * numerics.kvals(K)
    F = numerics.field_grid([{(0, 0): a} for a in A], ms, pos, cap=0)
    rows = np.zeros((9, n), dtype=complex)
    for i in range(9):
        rows[i] = numerics.crop(F[i][(0, 0)], K) + diag * A[i]
    rows[1] += y[0] * A[1]
    for j in range(3):
        w = A[6 + j]
        cube = np.convolve(np.convolve(w, w), w)
        rows[6 + j] += y[1 + j] * numerics.crop(cube, K)
    eta, _ = model.eta_terms(A.sum(axis=1), anchor, pos)
    return _pack(eta, rows, slots)


def _orbit_jacobian(z, omega, anchor, K: int, ms, pos, slots, out=None, kernels=None):
    """Jacobian of `_orbit_residual` in (y, a) at fixed omega and y = 0.

    It reads no y: the y-terms of the a-derivative, y0 on component 1 and
    y_j 3 w_j^2 * on component 6+j, vanish on the solution, where y = 0.
    So it is the exact Jacobian there, seeding's Newton takes it, and order
    0's certificate takes it as its J; `_assemble_orbit` bounds the dropped
    terms at y_bar in Z1.  Written into out (a zero square view of the same
    order) when given.  kernels is (const, kers) of
    `numerics.derivative_kernels` at the rows of z, when the caller already
    has them.  z, the rows and the columns hold the window slots `slots`.
    """
    _, A = _unpack(z, 4, K, slots)
    n = 2 * K - 1
    N = 4 + len(slots)
    J = np.zeros((N, N), dtype=complex) if out is None else out
    _, gradient = model.eta_terms(A.sum(axis=1), anchor, pos)
    for r, row in enumerate(gradient):
        J[r, 4:] = np.array([row.get(j, 0.0) for j in range(9)])[slots // n]
    if kernels is None:
        kernels = numerics.derivative_kernels(A, ms, pos)
    const, kers = kernels
    numerics.base_block(const, kers, K, -1j * omega * numerics.kvals(K), out=J[4:, 4:],
                        slots=slots)
    cols = np.zeros((4, 9, n), dtype=complex)
    cols[0, 1] = A[1]
    for j in range(3):
        w = A[6 + j]
        cols[1 + j, 6 + j] = numerics.crop(np.convolve(np.convolve(w, w), w), K)
    J[4:, :4] = cols.reshape(4, -1)[:, slots].T
    return J


def _window_sum(A: np.ndarray, K: int, k0: int) -> np.ndarray:
    n = 2 * K - 1
    lo = max(K - 1 - (k0 - 1), 0)
    hi = min(K - 1 + k0, n)
    return A[:, lo:hi].sum(axis=1)


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
    S = _window_sum(_unpack(z, 1, layout.K, layout.slots)[1], layout.K, k0)
    for i, cols in enumerate(_xi_cols(layout, k0)):
        J[0, cols] = 2.0 * S[i]
    return J


def bundle_problem(jet: "JetTable", cfg, cls: int):
    """Floquet bundle stage: unknowns (lambda, a_1) at the table's orbit
    center, a_1 in class cls of Q, packed as [lambda, its slots]."""
    K, k0, xi0 = jet.K, jet.k0, jet.xi0
    layout = SpaceLayout(1, K, cls)
    base = _context_for(jet, cfg).window_block(0.0, layout.slots)

    def residual(z):
        S = _window_sum(_unpack(z, 1, K, layout.slots)[1], K, k0)
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
    rhs, _ = _jet_rhs(_level_fields(jet, cfg, sum(alpha)), alpha)
    base = ctx.window_block(sum(alpha) * jet.lambda_bar)
    Rwin = _rhs_window(rhs, ctx.K)
    return (lambda z: base @ z + Rwin), (lambda z: base)


def _rhs_window(rhs, K: int) -> np.ndarray:
    """The window of a jet's right-hand side, packed: the float lane of its
    remainder, which the certificate of the jet reads too."""
    return np.array([np.zeros(2 * K - 1, dtype=complex) if f is None
                     else numerics.crop(f, K)
                     for f in rhs]).ravel()


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
    K: int
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


def _run_pairs(X: np.ndarray, start: int, count: int, L: int, axis: int):
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


def _window_runs(layout: SpaceLayout) -> list:
    """The windows of `layout` as runs (start, count, L) for `_run_pairs`:
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


def _cos_sin_form(J: np.ndarray, ns: int, runs: list):
    """(M, Im), the real and imaginary part of the float T^H J T, on the ns
    scalars and the windows `runs` (`_window_runs`).

    T^H takes each pair of rows (h_k, h_-k) to (h_k + h_-k, i (h_-k - h_k)),
    T each pair of columns (x_k, x_-k) to (x_k + x_-k, i (x_k - x_-k)); the
    scalars and mode 0 stay.  Each entry is two rounded sums, the second
    step made in place."""
    N = J.shape[0]
    jr, ji = J.real, J.imag
    yr, yi = np.empty((N, N)), np.empty((N, N))
    yr[:ns], yi[:ns] = jr[:ns], ji[:ns]
    for run in runs:
        (rp, rm, r0), (ip, im, i0) = _run_pairs(jr, *run, 0), _run_pairs(ji, *run, 0)
        (yrp, yrm, yr0), (yip, yim, yi0) = _run_pairs(yr, *run, 0), _run_pairs(yi, *run, 0)
        np.add(rp, rm, out=yrp)
        np.add(ip, im, out=yip)
        np.subtract(ip, im, out=yrm)
        np.subtract(rm, rp, out=yim)
        if r0 is not None:
            yr0[...], yi0[...] = r0, i0
    for run in runs:
        (rp, rm, _), (ip, im, _) = _run_pairs(yr, *run, 1), _run_pairs(yi, *run, 1)
        t = rp - rm
        rp += rm
        np.subtract(im, ip, out=rm)
        ip += im
        im[...] = t
    return yr, yi


def _from_cos_sin(B: np.ndarray, ns: int, runs: list, zr: np.ndarray,
                  zi: np.ndarray) -> np.ndarray:
    """T B T^H for a real B, as a complex array, on the scalars and the
    windows `runs` (`_window_runs`); zr and zi are work arrays of B's shape.
    B T^H only moves entries and flips signs; T then makes each part of an
    entry one rounded sum."""
    N = B.shape[0]
    zr[:, :ns], zi[:, :ns] = B[:, :ns], 0.0
    for run in runs:
        bp, bm, b0 = _run_pairs(B, *run, 1)
        (rp, rm, r0), (ip, im, i0) = _run_pairs(zr, *run, 1), _run_pairs(zi, *run, 1)
        rp[...], rm[...] = bp, bp
        np.negative(bm, out=ip)
        im[...] = bm
        if b0 is not None:
            r0[...], i0[...] = b0, 0.0
    A = np.empty((N, N), dtype=complex)
    ar, ai = A.real, A.imag
    ar[:ns], ai[:ns] = zr[:ns], zi[:ns]
    for run in runs:
        (rp, rm, r0), (ip, im, i0) = _run_pairs(zr, *run, 0), _run_pairs(zi, *run, 0)
        (arp, arm, ar0), (aip, aim, ai0) = _run_pairs(ar, *run, 0), _run_pairs(ai, *run, 0)
        np.subtract(rp, im, out=arp)
        np.add(ip, rm, out=aip)
        np.add(rp, im, out=arm)
        np.subtract(ip, rm, out=aim)
        if r0 is not None:
            ar0[...], ai0[...] = r0, i0
    return A


def _cos_sin_weights(layout: SpaceLayout, nu: float) -> np.ndarray:
    """The weight of each slot in a row of |T| E: that row is the sum of the
    rows c_k and s_k, which carry the weight of k, so a slot of k != 0
    weighs 2 nu^|k| (T is the identity on the scalars and on mode 0)."""
    w_up, _ = layout.weights_up(nu)
    return np.where(layout.kabs > 0, 2.0 * w_up, w_up)


def _cos_sin_block_norms(S: np.ndarray, layout: SpaceLayout, nu: float) -> np.ndarray:
    """`block_norms` of |T| E |T^-1| for a nonnegative E, from S, an upper
    bound of W E, the column sums of E over each row group weighted by
    `_cos_sin_weights`: a column of E |T^-1| is half the sum of the columns
    c_l and s_l."""
    ns = layout.ns
    _, winv = layout.weights_up(nu)
    P = S.copy()
    for run in _window_runs(layout):
        (plus, minus, _), (pp, pm, _) = _run_pairs(S, *run, 1), _run_pairs(P, *run, 1)
        pp[...] = pm[...] = _up(plus + minus) * 0.5
    P[:, ns:] = _up(P[:, ns:] * winv[ns:])
    return np.array([P[:, sl].max(axis=1, initial=0.0) for sl in layout.slices]).T


def _cos_sin_inverse(J: np.ndarray, layout: SpaceLayout, nu: float):
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
      (`_cos_sin_block_norms`), which reads only W |I - B M|: the column
      sums over each row group, weighted by `_cos_sin_weights`.
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
    ns, N = layout.ns, layout.n
    runs = _window_runs(layout)
    M, Im = _cos_sin_form(J, ns, runs)
    norm_im = opnorm_upper(block_norms(np.abs(Im, out=Im), layout, nu))
    # np.abs of a complex entry is within 1 + 4u of its modulus
    norm_J = float(_up(opnorm_upper(block_norms(np.abs(J, out=Im), layout, nu))
                       * (1.0 + 4.0 * _U)))
    w = _cos_sin_weights(layout, nu)
    B = np.linalg.inv(M)
    # |I - fl(B M)|: the diagonal's - 1 rounds once, which the 1 + 4u below
    # covers
    E = B @ M
    E[np.diag_indices(N)] -= 1.0
    S = group_col_sums(w, np.abs(E, out=E), layout)
    V = group_col_sums(w, np.abs(B, out=E), layout)
    del E
    S = _up(S + _up(_gemm_gamma(N) * mm_up_nonneg(V, np.abs(M, out=M))))
    z0 = float(_up(opnorm_upper(_cos_sin_block_norms(S, layout, nu)) * (1.0 + 4.0 * _U)))
    inner = _up(norm_im + _up(9.0 * _U * norm_J))
    per = float(_up(_up(inner * (1.0 + 4.0 * _U)) + _up(4.0 * _U * norm_J)))
    # M and Im are spent: they are the work arrays of Jhat
    return _from_cos_sin(B, ns, runs, M, Im), z0, per


def _group_max(v: np.ndarray, ns: int, tail) -> float:
    """max over the groups of X of a per-group bound v: the ns scalar
    entries as they are, each window's entry plus its tail term, rounded up."""
    return float(max(v[:ns].max(initial=0.0), _up(v[ns:] + tail).max()))


def _operator(ctx: _StageContext, d: _OperatorData) -> _Operator:
    """The operator part of a stage's certificate, on the stage's layout:
    its scalars and its class of Q.

    The real shift s makes the inverse in the cos/sin basis
    (`_cos_sin_inverse`), and Z0 sums three terms there: the real product
    |I - B M| carried back by |T| and |T^-1|, ||A|| times what M misses of
    T^H J T, and the rounding of forming A times ||J||.  ||A||, Z1_window
    and Z1_tail read the complex Jhat and |Jhat|, taken once from Jhat's
    moduli, rounded up."""
    K, nu, omega, s, layout = ctx.K, ctx.nu, ctx.omega, d.s, d.layout
    ns, N = layout.ns, layout.n
    ngroups = ns + 9
    Jhat, z0, z0_per_normA = _cos_sin_inverse(d.J, layout, nu)
    # np.abs rounds a modulus to nearest, down about half the time
    absJ = cmat_abs_up(Jhat, None)

    Bmat = block_norms(absJ, layout, nu)
    rowsJ = norm_rows(Bmat)
    Z0 = float(_up(z0 + _up(z0_per_normA * float(rowsJ.max()))))
    dtK = float(_inv_dist_up(np.array([float(K)]), omega, s)[0])
    normA = _group_max(rowsJ, ns, dtK)
    # pre_Y / pre_Z1 bound perturbations supported on the sequence block only
    # (no scalar components), so their amplification constant may drop the
    # scalar columns of A.  The quadratic terms keep the full norm: their
    # difference operators can involve the scalar directions.
    normA_seq = _group_max(norm_rows(Bmat[:, ns:]), ns, dtK)

    # the window part of Z1: J^-1 (pi (DF(x_bar) - J) pi), by norms
    Z1_window = float(_up(rowsJ.max() * opnorm_upper(d.window_defect)))
    # the tail part: U holds, per window row and column group, the sup over
    # the tail columns l of |DF_kl| nu^-|l|; a row reads the profile at its
    # mode, the sup over every tail column, of its class or not
    U = np.zeros((N, ngroups))
    pos = layout.slots % (2 * K - 1)
    for j in range(9):
        U[:ns, ns + j] = d.scalar_tail_sup[:, j]
        for i in range(9):
            if ctx.kmags[i][j] is not None:
                sl = layout.slices[ns + i]
                U[sl, ns + j] = ctx.kprofiles[i][j][pos[sl.start - ns:sl.stop - ns]]
    Wmat = mm_up_nonneg(absJ, U)
    del absJ
    Np = np.zeros((ngroups, ngroups))
    for ci in range(ngroups):
        Np[:, ci] = group_vec_norms(Wmat[:, ci], layout, nu)
    tail_weights = {}  # per kernel half-width; the kernels have few widths
    for i in range(9):
        R = ns + i
        for j in range(9):
            add = 0.0
            g = ctx.kmags[i][j]
            if g is not None:
                W = (len(g) - 1) // 2
                if W not in tail_weights:
                    tail_weights[W] = _tail_weights(W, K, nu, omega, s)
                add = _tail_row_bound(g, ctx.knorms[i, j], tail_weights[W])
            cconst = abs(ctx.const[i, j])
            if cconst:
                add = float(_up(add + _up(cconst * dtK)))
            if add:
                Np[R, ns + j] = _up(Np[R, ns + j] + add)
        for col, slot, mags in d.ycol_tail_mags:
            if slot == i:
                t = _seq_tail_weighted(mags, K, nu, omega, s)
                Np[R, col] = _up(Np[R, col] + t)
    Z1_tail = max(up_sum(Np[R]) for R in range(ngroups))
    return _Operator(layout, K, nu, omega, s, Jhat, Z0, normA, normA_seq,
                     Z1_window, Z1_tail)


def _certify(op: _Operator, asm: _Assembled, digests: list) -> list:
    """The certificate and report of each stage of the batch, in order, with
    its inputs digest; a failure raises, for the first stage that fails, a
    NoNegativeRadius that carries its report's bounds as `bounds`.

    The batch shares the operator: A is applied to the residual windows of
    all its stages in one `cmm`, whose columns are those of each stage
    alone, and the tail sums of each component run over the stack."""
    layout, K, nu, omega, s = op.layout, op.K, op.nu, op.omega, op.s
    ns = layout.ns
    # the residuals on the class, one column per stage; the exact ones have
    # nothing off it
    keep = np.concatenate([np.arange(ns), ns + layout.slots])
    vm, vr = (np.concatenate([asm.resid_scalars[t]] + [numerics.crop(seq[t], K)
                                                       for seq in asm.resid_seqs],
                             axis=-1)[:, keep].T
              for t in (0, 1))
    absY = cmat_abs_up(*cmm(op.Jhat, None, vm, vr))
    tails = np.array([_seq_tail_weighted(g, K, nu, omega, s) for _, _, g in asm.resid_seqs])
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
    pos = layout.slots % len(m)
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
        mk = m[pos[sls[0].start - ns:sls[0].stop - ns]][:, None]
        re = np.full((L, 1), -s)
        box = CArr(re, re, -_up(mk), -_dn(mk)).add(ctx.dconst.slice((G, G)))
        ii = np.arange(len(G))
        gap[G, G] = box.sub(CArr.point(Jd[:, ii, ii])).mag().max(axis=0)
    N = np.zeros((ns + 9, ns + 9))
    N[ns:, ns:] = _up(ctx.kgap + gap)
    return N


def _assemble_orbit(sol: "OrbitSolution", ctx: _StageContext, ar):
    """(`_OperatorData`, `_Assembled`) of the order-0 certificate.

    J is DF at y = 0 (`_orbit_jacobian`).  What it leaves out of DF(x_bar),
    E_y = y0 on component 1 and y_j 3 sq_j * on component 6+j, maps
    sequences to sequences, on the window and on the tail alike, with norm
    at most max(|y0|, 3 |y_j| ||sq_j||): that is the stage's pre_Z1.  ar is
    the IntervalArith that made the context's dF0: the field and the cubes
    reuse its products."""
    cfg = ctx.cfg
    K, nu, omega = ctx.K, ctx.nu, ctx.omega
    ns = 4
    layout = SpaceLayout(ns, K, 1)
    anchor = sol.anchor
    y = np.asarray(sol.y, dtype=complex)
    ymag = [float(_up(abs(complex(t)))) for t in y]

    J = _orbit_jacobian(_pack(y, sol.coeffs, layout.slots), omega, anchor, K, ctx.ms,
                        ctx.pos, layout.slots, kernels=(ctx.fconst, ctx.fkers))
    Nw = _window_defect(ctx, J, layout, 0.0)
    # J's y0 column (a_1) is DF's, exactly; its y_j column holds the float
    # cube, on the class, where the cube lies
    cubes = []
    pre_Z1 = ymag[0]
    for j in range(3):
        w = ctx.a0[6 + j]
        sq = ar.mul(w, w, 0)
        cube = ar.mul(sq, w, 0)
        cubes.append(cube)
        pre_Z1 = max(pre_Z1, float(_up(_up(3.0 * ymag[1 + j]) * sq.norm_upper())))
        col = _unpack(J[:, 1 + j], ns, K, layout.slots)[1][6 + j]
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

    F = model.field_F_grid(ctx.a0, ar)
    # the unfolding G(y, a): y0 a_1 in row 1 and y_j times the cubes in row 6+j
    G = [FourierSeq.zeros(1, nu)] * 9
    G[1] = ctx.a0[1].scale(complex(y[0]))
    for j in range(3):
        G[6 + j] = cubes[j].scale(complex(y[1 + j]))
    # the endpoint chain sets order 0's radius; its boxes become discs once
    boxes = [ctx.a0[i].dtheta().scale(-omega).add(F[i]).add(G[i]).c for i in range(9)]
    etas = CArr.from_civ_list(eta)

    nuinvK = float(_nu_inv_up(nu, np.array([K]))[0])
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
    return data, _Assembled(["order0"], (etas.mid()[None], etas.rad()[None]),
                            [(c.mid()[None], c.rad()[None], c.mag()[None]) for c in boxes],
                            [monos], pre_Y=[0.0], pre_Z1=[pre_Z1])


def _assemble_bundle(sol: "BundleSolution", ctx: _StageContext, r0: float):
    """(`_OperatorData`, `_Assembled`) of the order-1 certificate, on the
    class of Q that a_1 lies in; ValueError when a_1 has entries in both."""
    K, nu = ctx.K, ctx.nu
    ns = 1
    lam = sol.lam
    rows = np.asarray(sol.coeffs, dtype=complex)
    tag = "order1:%s" % sol.kind
    layout = SpaceLayout(ns, K, _class_of(tag, np.abs(rows), K))
    a1 = [FourierSeq.point(row, nu) for row in rows]

    J = _bundle_jacobian(ctx.window_block(0.0, layout.slots),
                         _pack([lam], rows, layout.slots), layout, sol.k0)

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
    tags = ["jet:%d,%d:%s" % (m_, n_, jet.kind) for m_, n_ in alphas]
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
    digests = [inputs_digest(alpha, jet.kind, jet.digests["order1"], seqs)
               for alpha, seqs in zip(alphas, centers)]
    return [JetResult(alpha, tuple(seqs), cert.r0, cert, report)
            for alpha, seqs, (cert, report) in zip(alphas, centers, _certify(op, asm, digests))]


# ---------------------------------------------------------------------------
# verified remainder enclosures: the field on the lower orders, by layer


# a complex addition, or a scaling by a real, errs by at most u times the
# modulus of the exact result; 2u leaves room
_ADD_ROUND = 2.0 ** -52


class _NormRad:
    """Grids (m, n) -> (N, r) for `model.embedded_field`, the bounds of the
    `numerics.FloatArith` evaluation on the same lower orders.  It has no
    `mul`: its products are made by `_Incremental`, through
    `product_layers`.

    N bounds the nu-norm of the float value of the layer, and r its
    distance from the exact value of the layer at any inputs within the
    radii of the lower orders, with the true masses and positions.  So r
    takes in the radii, the widths of the constants and every rounding of
    the float lane:

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
        _, w_up = nu_weights(nu, n)
        self.eta = _next(_next(_ETA * n) * _next(n * float(w_up[n // 2])))

    truncate = staticmethod(numerics.ft_truncate)

    @staticmethod
    def entry(seq, radius):
        """A center's norm and radius; a center that is a box (a rescaled
        table's) adds the norm of its width about the midpoint, the float
        lane's value."""
        if not seq.is_point():
            radius = _next(radius + FourierSeq.point(seq.c.rad(), seq.nu).norm_upper())
        return (seq.norm_upper(), radius)

    def product_layers(self, b, c, plan, carried=None):
        """(layers, interiors) as `numerics.FloatArith.product_layers`: the
        pairs fold in the same order, and an interior fold, (N sum, r sum,
        number of pairs), is carried the same way."""
        carried = carried or {}
        out, interiors = {}, {}
        for g, interior, ends in plan:
            tail = [(b[x], c[y]) for x, y in ends if x in b and y in c]
            inner = carried.get(g)
            if inner is None:
                inner = self._fold(0.0, 0.0, [(b[x], c[y]) for x, y in interior]) + (
                    len(interior),)
            if inner[2]:
                interiors[g] = inner
            Nacc, racc = self._fold(inner[0], inner[1], tail)
            P = inner[2] + len(tail)
            e = _next(_next(_next(self.gamma + (P - 1) * _ADD_ROUND) * Nacc)
                      + _next(P * self.eta))
            out[g] = (_next(Nacc + e), _next(racc + e))
        return out, interiors

    @staticmethod
    def _fold(Nacc, racc, pairs):
        """(N, r) sums of the products of the pairs, added onto Nacc, racc."""
        for (N1, r1), (N2, r2) in pairs:
            Np = _next(N1 * N2)
            rp = _next(_next(_next(N1 * r2) + _next(r1 * N2)) + _next(r1 * r2))
            Nacc, racc = _next(Nacc + Np), _next(racc + rp)
        return Nacc, racc

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

    @staticmethod
    def shift(g, p: Interval):
        c = -p
        cm, crad = abs(c.mid), _iv_rad_up(c)
        out = dict(g)
        ent = out.get((0, 0))
        if ent is None:
            out[(0, 0)] = (cm, crad)
        else:
            Ns = _next(ent[0] + cm)
            e = _next(Ns * _ADD_ROUND)
            out[(0, 0)] = (_next(Ns + e), _next(_next(ent[1] + crad) + e))
        return out

    @staticmethod
    def neg(g):
        return g


class _NodePlan:
    """The plans of one product node of the field for one table: each
    layer's `numerics._cauchy_plan`, made once and dropped once the layer
    is complete, and the layers the node holds and computes at the level
    being evaluated, made by the lane that reaches the node first."""

    __slots__ = ("layers", "order", "keys", "made")

    def __init__(self):
        self.layers = {}
        self.order = None
        self.keys = self.made = ()


class _Incremental:
    """One evaluation of the field at order `order` in `base`, a
    `numerics.FloatArith` or a `_NormRad`.

    `model.embedded_field` makes its products in a fixed sequence, so the
    k-th `mul` of every evaluation is the same product node, and layer gamma
    of a node reads only the inputs of order <= |gamma|.  `old` is the
    evaluation of the level below, on the same lower orders, or None.  The
    node layers below `keep` are taken from it, the layers keep..order-1
    are computed in full, and of the order-`order` layers only the jets the
    level solves: layer alpha of a product reads no other layer of its own
    order.  The layers a node computes go to the base's `product_layers` in
    one call.

    Every product layer folds its Cauchy pairs interior first
    (`numerics._cauchy_plan`): the pairs without a factor of order 0, which
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
    of a table hand on: a layer's plan is made once for the table.
    """

    def __init__(self, base, order: int, old, keep: int, inputs, plans):
        self.base = base
        self.order = order
        self.top = set(_level_alphas(order))
        self.old = old
        self.keep = keep
        self.inputs = inputs
        self.plans = plans
        self.nodes = []
        self.carry = []

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
            plan.keys = numerics._product_keys(b, c, cap)
            made = [g for g in plan.keys if self.keep <= g[0] + g[1]
                    and (g[0] + g[1] < self.order or g in self.top)]
            plan.layers.update((g, (interior, ends)) for g, interior, ends in
                               numerics._cauchy_plan(b, c, [g for g in made
                                                            if g not in plan.layers]))
            plan.made = [(g, *plan.layers[g]) for g in made]
        old, carried = (self.old.nodes[k], self.old.carry[k]) if self.keep else ({}, {})
        made, interiors = self.base.product_layers(b, c, plan.made, carried)
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


def _level_fields(jet: "JetTable", cfg, order: int, prev=None):
    """`model.embedded_field` on the orders of the table below `order`, as
    one (`_Incremental`, nine grids) pair per lane, `numerics.FloatArith`
    first and `_NormRad` second.

    The grids of order `order` hold the layers of the jets the level solves.
    prev is the pair of an earlier level on the same lower orders, or None:
    its input entries, its product layers below its order, the interior
    folds of its top layers and its plans are taken over, not recomputed.
    """
    lower = [(beta, seqs, jet.radii.get(beta))
             for beta, seqs in sorted(jet.orders.items())
             if beta[0] + beta[1] < order]
    L = max(len(s.c) for _, seqs, _ in lower for s in seqs)
    fields = []
    plans = [] if prev is None else prev[0][0].plans
    floats = numerics.FloatArith(*numerics.cfg_floats(cfg))
    for k, arith in enumerate((floats, _NormRad(cfg, jet.nu, L))):
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


def _solved_jet(alpha):
    """alpha as a pair of ints; only the jets with m >= n are solved."""
    m_, n_ = int(alpha[0]), int(alpha[1])
    if m_ + n_ < 2:
        raise ValueError("jet stages start at |alpha| = 2")
    if m_ < n_:
        raise ValueError("jet (%d,%d) is the reflection of (%d,%d)" % (m_, n_, n_, m_))
    return (m_, n_)


def _jet_rhs(fields, alpha):
    """(rhs, rho) of jet alpha from its level's `_level_fields`: layer alpha
    of the float field, nine arrays or None, and a bound of its distance
    from the exact layer (the `_NormRad` field)."""
    (_, floats), (_, norms) = fields
    return ([f.get(alpha) for f in floats],
            max(r.get(alpha, (0.0, 0.0))[1] for r in norms))


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


def _cfg_digest_obj(cfg):
    return {
        "masses": [m.hex_pair() for m in cfg.masses],
        "positions": [[c.hex_pair() for c in cfg.position(j)] for j in range(3)],
    }


def _seqs_digest_obj(seqs):
    return [s.to_json_obj() for s in seqs]


def inputs_digest(alpha, kind: str, prev: str, centers, bundle=()) -> str:
    """The inputs_digest of the certificate of order 1 (alpha = (1, 0)) or of
    jet alpha: its kind, the digest of the stage below it and its centers;
    for order 1, bundle is (lambda, k0, xi0)."""
    obj = {"stage": "jet:%d,%d" % alpha, "kind": kind, "prev": prev,
           "coeffs": _seqs_digest_obj(centers)}
    if bundle:
        lam, k0, xi0 = bundle
        obj.update({"stage": "order1", "k0": k0, "xi0": float(xi0).hex(),
                    "lambda": [float(lam.real).hex(), float(lam.imag).hex()]})
    return content_digest(obj)


@numerics.one_blas_thread()
def validate_order0(solution: OrbitSolution, cfg) -> Order0Result:
    """Certify the periodic orbit, in class +1 of Q; the unfolding enclosure
    must contain zero."""
    _class_of("order0", np.abs(solution.coeffs), solution.K, 1)
    # one product table serves dF0, the field and the cubes; it is dropped
    # once they are made, and the context that the JetTable caches never
    # holds it
    ar = model.IntervalArith(cfg)
    ctx = _StageContext(solution.seqs(), cfg, solution.omega, solution.K,
                        solution.nu, ar)
    data, asm = _assemble_orbit(solution, ctx, ar)
    del ar
    digest = content_digest({
        "stage": "order0",
        "omega": float(solution.omega).hex(),
        "K": solution.K,
        "nu": float(solution.nu).hex(),
        "anchor": [[float(t).hex() for t in solution.anchor.u0],
                   [float(t).hex() for t in solution.anchor.u1]],
        "cfg": _cfg_digest_obj(cfg),
        "y": [[float(t.real).hex(), float(t.imag).hex()] for t in solution.y],
        "coeffs": _seqs_digest_obj(solution.seqs()),
    })
    (cert, report), = _certify(_operator(ctx, data), asm, [digest])
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
    ctx = _StageContext(jet.orders[(0, 0)], cfg, jet.omega, jet.K, jet.nu,
                        model.IntervalArith(cfg))
    jet.ctx_cache = (cfg, ctx)
    return ctx


def validate_order1(solution: BundleSolution, jet: "JetTable", cfg) -> Order1Result:
    """Certify the Floquet eigenpair at an already-certified orbit."""
    ctx = _context_for(jet, cfg)
    r0 = jet.radii[(0, 0)]
    data, asm = _assemble_bundle(solution, ctx, r0)
    digest = inputs_digest(
        (1, 0), solution.kind, jet.digests.get("order0", ""),
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
    rhs, rho = _jet_rhs(_level_fields(jet, cfg, sum(alpha)), alpha)
    ctx = _context_for(jet, cfg)
    p = sum(alpha)
    op = _operator(ctx, ctx.jet_operator_data(p * jet.lambda_bar, _jet_class(jet, p)))
    return _certify_jets(jet, ctx, [alpha], [rhs], [rho], [jet.orders[alpha]], op)[0]


# ---------------------------------------------------------------------------
# the jet table


@dataclass
class JetTable:
    """Certified Fourier-Taylor data for one invariant manifold."""

    kind: str
    omega: float
    K: int
    nu: float
    N_t: int
    k0: int
    xi0: float
    anchor: model.PhaseAnchor
    y_bar: tuple
    lambda_bar: float
    lambda1: ComplexInterval | None = None
    gamma_scale: float = 1.0
    orders: dict = field(default_factory=dict)
    radii: dict = field(default_factory=dict)
    certs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    ctx_cache: object = field(default=None, repr=False, compare=False)

    def re_lambda_mig(self) -> float:
        """Lower bound of |Re lambda| over the certified enclosure."""
        return self.lambda1.re.mig()

    def E_total(self) -> Interval:
        acc = Interval.point(0.0)
        for r in sorted(self.radii.values()):
            acc = acc + Interval.point(float(r))
        return acc

    def complete(self) -> bool:
        want = {(m, p - m) for p in range(self.N_t + 1) for m in range(p + 1)}
        return want <= set(self.orders) and want <= set(self.radii)

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "omega": float(self.omega).hex(),
            "K": self.K,
            "nu": float(self.nu).hex(),
            "N_t": self.N_t,
            "k0": self.k0,
            "xi0": float(self.xi0).hex(),
            "anchor": [[float(t).hex() for t in self.anchor.u0],
                       [float(t).hex() for t in self.anchor.u1]],
            "y_bar": [[float(t.real).hex(), float(t.imag).hex()] for t in self.y_bar],
            "lambda_bar": [float(self.lambda_bar).hex(), (0.0).hex()],
            "lambda1": None if self.lambda1 is None else list(self.lambda1.hex_quad()),
            "gamma_scale": float(self.gamma_scale).hex(),
            "orders": {"%d,%d" % a: [s.to_json_obj() for s in seqs]
                       for a, seqs in sorted(self.orders.items())},
            "radii": {"%d,%d" % a: float(r).hex()
                      for a, r in sorted(self.radii.items())},
            "certs": {k: v.to_json_obj() for k, v in sorted(self.certs.items())},
            "digests": dict(sorted(self.digests.items())),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "JetTable":
        def key(sk):
            m, n = sk.split(",")
            return (int(m), int(n))
        lam1 = obj["lambda1"]
        lam_re, lam_im = (float.fromhex(t) for t in obj["lambda_bar"])
        if lam_im != 0.0:
            raise ValueError("lambda_bar %r is not real" % obj["lambda_bar"])
        return cls(
            kind=obj["kind"],
            omega=float.fromhex(obj["omega"]),
            K=int(obj["K"]),
            nu=float.fromhex(obj["nu"]),
            N_t=int(obj["N_t"]),
            k0=int(obj["k0"]),
            xi0=float.fromhex(obj["xi0"]),
            anchor=model.PhaseAnchor(
                tuple(float.fromhex(t) for t in obj["anchor"][0]),
                tuple(float.fromhex(t) for t in obj["anchor"][1])),
            y_bar=tuple(complex(float.fromhex(a), float.fromhex(b))
                        for a, b in obj["y_bar"]),
            lambda_bar=lam_re,
            lambda1=None if lam1 is None else ComplexInterval.from_hex_quad(lam1),
            gamma_scale=float.fromhex(obj["gamma_scale"]),
            orders={key(sk): tuple(FourierSeq.from_json_obj(s) for s in seqs)
                    for sk, seqs in obj["orders"].items()},
            radii={key(sk): float.fromhex(r) for sk, r in obj["radii"].items()},
            certs={k: Certificate.from_json_obj(v) for k, v in obj["certs"].items()},
            digests=dict(obj["digests"]),
        )

    def digest(self) -> str:
        return content_digest(self.to_json_obj())


def rescale_jets(jet: JetTable, gamma: float) -> JetTable:
    """Scale every order-p layer and radius by gamma^p (eigenfunction rescale)."""
    gamma = float(gamma)
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        return replace(jet, orders=dict(jet.orders), radii=dict(jet.radii),
                       certs=dict(jet.certs), digests=dict(jet.digests))
    g = Interval.point(gamma)
    orders = {}
    radii = {}
    for alpha, seqs in jet.orders.items():
        p = alpha[0] + alpha[1]
        if p == 0:
            orders[alpha] = seqs
            if alpha in jet.radii:
                radii[alpha] = jet.radii[alpha]
            continue
        gp = g.pow_int(p)
        orders[alpha] = tuple(s.scale(gp) for s in seqs)
        if alpha in jet.radii:
            radii[alpha] = float(_up(jet.radii[alpha] * gp.hi))
    return replace(jet, gamma_scale=jet.gamma_scale * gamma,
                   orders=orders, radii=radii,
                   certs=dict(jet.certs), digests=dict(jet.digests))


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
    jet.orders[(0, 0)] = sol.seqs()
    jet.radii[(0, 0)] = res.r0
    jet.certs["order0"] = res.cert
    jet.digests["order0"] = content_digest(res.cert.to_json_obj())
    if res.context is not None and res.context[0] is sol and res.context[1] is cfg:
        # the order-0 context of validate_order0 is the one the table needs
        jet.ctx_cache = res.context[1:]
    # Newton runs on the class of Q that holds the guess (the guess of
    # `seeding.bundle_guess` lies in one exactly); the problem, and with it
    # Newton's N x N block, goes before order 1's operator is made
    v = np.asarray(v_guess, dtype=complex).reshape(9, 2 * sol.K - 1)
    cls = _class_of(None, np.abs(v), sol.K)
    slots = class_slots(sol.K, cls)
    z = newton_stage(bundle_problem(jet, cfg, cls), _pack([lam_guess], v, slots))
    # keep lambda real and a_1 fixed by (R a)_k = conj(a_-k), as the complex
    # solve does only up to rounding; a fixed a_1 stays put
    a1 = _unpack(z, 1, sol.K, slots)[1]
    a1 = 0.5 * (a1 + np.conj(a1[:, ::-1]))
    bsol = BundleSolution(kind, float(z[0].real), a1, k0, xi0)
    jet.lambda_bar = bsol.lam
    r1 = validate_order1(bsol, jet, cfg)
    a1 = tuple(FourierSeq.point(row, sol.nu) for row in bsol.coeffs)
    jet.orders[(1, 0)] = a1
    jet.orders[(0, 1)] = tuple(s.conj_reflect() for s in a1)
    jet.radii[(1, 0)] = r1.r1
    jet.radii[(0, 1)] = r1.r1
    jet.lambda1 = r1.lambda1
    jet.certs["order1"] = r1.cert
    jet.digests["order1"] = content_digest(r1.cert.to_json_obj())
    return jet


def _level_alphas(p: int):
    """The jets of order p that are solved: (m, p - m) with m >= p - m."""
    return [(m, p - m) for m in range(p, (p - 1) // 2, -1)]


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
    slots = op.layout.slots
    rhss, rhos = zip(*(_jet_rhs(fields, alpha) for alpha in alphas))
    Z = -matmul_by_column(op.Jhat, np.array([_rhs_window(rhs, ctx.K)[slots]
                                             for rhs in rhss]).T)
    centers = [tuple(FourierSeq.point(row, ctx.nu)
                     for row in _unpack(z, 0, ctx.K, slots)[1]) for z in Z.T]
    return _certify_jets(jet, ctx, alphas, rhss, rhos, centers, op)


def _extend(jet: JetTable, cfg) -> JetTable:
    """Solve and certify the jets the table lacks, level by level."""
    fields = None
    for p in range(2, jet.N_t + 1):
        alphas = [a for a in _level_alphas(p) if a not in jet.radii]
        if not alphas:
            continue
        fields = _level_fields(jet, cfg, p, fields)
        for res in _level_parallel(jet, cfg, alphas, fields):
            alpha = res.alpha
            centers = res.centers
            jet.orders[alpha] = centers
            jet.radii[alpha] = res.r
            jet.certs[res.cert.stage] = res.cert
            jet.digests[res.cert.stage] = content_digest(res.cert.to_json_obj())
            mirror = (alpha[1], alpha[0])
            if mirror != alpha:
                jet.orders[mirror] = tuple(s.conj_reflect() for s in centers)
                jet.radii[mirror] = res.r
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


def _strip_unvalidated(jet: JetTable) -> JetTable:
    orders = {a: s for a, s in jet.orders.items() if a in jet.radii}
    return replace(jet, orders=orders, radii=dict(jet.radii),
                   certs=dict(jet.certs), digests=dict(jet.digests))
