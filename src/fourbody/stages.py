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

Stages:

* order 0: the periodic orbit with four unfolding scalars y and the
  phase/initialization conditions eta; a valid certificate forces the
  y-enclosure to contain zero.
* order 1: the Floquet bundle (lambda, a_1) normalized by the quadratic
  phase scalar xi; resonances are excluded by checking that the enclosure
  of Re(lambda) omits zero.
* orders 2..N_t: the jets a_alpha, affine problems (Z2 = 0) whose data
  uncertainty (radii of all lower orders) is folded into Y and Z1.

The jet table collects centers, radii, eigenvalue enclosures, and the
certificates with a digest chain binding each stage to its predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .interval import ComplexInterval, Interval, _as_iv
from .ivarray import (
    CArr,
    cconv_mr,
    cmat_abs_up,
    cmm,
    conv_up_nonneg,
    mm_up_nonneg,
    up_sum,
    _dn,
    _up,
)
from .opbound import SpaceLayout, block_norms, group_vec_norms, norm_rows, opnorm_upper
from .radii import Certificate, NKBounds, NoNegativeRadius, content_digest, radii_newton
from .seqspace import BallElement, FourierSeq, FourierTaylorSeq, conv, nu_weights, project
from . import model
from . import numerics

__all__ = [
    "ResonantExponents",
    "UnfoldingNotZero",
    "StageProblem",
    "OrbitSolution",
    "BundleSolution",
    "Order0Result",
    "Order1Result",
    "JetResult",
    "JetTable",
    "newton_stage",
    "orbit_problem",
    "bundle_problem",
    "jet_problem",
    "validate_order0",
    "validate_order1",
    "validate_jet",
    "rescale_jets",
    "certified_orbit",
    "start_jet_table",
    "extend_with_jets",
    "build_jet_table",
]


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


def _inv_dist_up(kabs, omega: float, s: complex) -> np.ndarray:
    """Upper bounds of 1 / |-i omega k - s| over |k| in kabs.

    Valid for both signs of k: |omega k + Im s| >= max(omega |k| - |Im s|, 0)
    and the real part contributes |Re s| exactly (s is a chosen float).
    """
    kabs = np.asarray(kabs, dtype=float)
    t = _dn(omega * kabs)
    b = np.maximum(_dn(t - abs(s.imag)), 0.0)
    sr = abs(s.real)
    den2 = _dn(_dn(sr * sr) + _dn(b * b))
    den = _dn(np.sqrt(np.maximum(den2, 0.0)))
    if np.any(den <= 0.0):
        raise ResonantExponents(
            "diagonal tail is not bounded away from zero (omega=%r, s=%r)"
            % (omega, s)
        )
    return _up(1.0 / den)


def _seq_tail_weighted(seq: FourierSeq, K: int, nu: float, omega: float, s: complex) -> float:
    """Upper bound of sum_{|k| >= K} nu^|k| |seq_k| / |-i omega k - s|."""
    kv = seq.k_values()
    kabs = np.abs(kv)
    mask = kabs >= K
    if not mask.any():
        return 0.0
    mags = seq.c.mag()[mask]
    if not mags.any():
        return 0.0
    ka = kabs[mask]
    dt = _inv_dist_up(ka, omega, s)
    w = _nu_pow_up(nu, ka)
    return up_sum(_up(_up(mags * w) * dt))


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


def _tail_row_bound(gabs: np.ndarray, K: int, nu: float, omega: float,
                    s: complex, gnorm: float) -> float:
    """sup over all columns l of nu^-|l| sum_{|k| >= K} nu^|k| |g(k-l)| / |-i omega k - s|.

    Exact correlation on |l| <= K-1+2W; beyond that every contributing k has
    |k| >= |l| - W, so the column is capped by gnorm / dist(K + W).
    """
    W = (len(gabs) - 1) // 2
    if not gabs.any():
        return 0.0
    Lmax = K - 1 + 2 * W
    Ku = Lmax + W
    kk = np.arange(-Ku, Ku + 1)
    kabs = np.abs(kk)
    mask = kabs >= K
    u = np.zeros(kk.size)
    u[mask] = _up(_nu_pow_up(nu, kabs[mask]) * _inv_dist_up(kabs[mask], omega, s))
    S = conv_up_nonneg(u, gabs[::-1])
    ls = np.arange(S.size) - (Ku + W)
    sel = np.abs(ls) <= Lmax
    near = float(_up(S[sel] * _nu_inv_up(nu, np.abs(ls[sel]))).max())
    far = float(_up(gnorm * _inv_dist_up(np.array([K + W]), omega, s)[0]))
    return max(near, far)


def _mag_pad_sum(a, b) -> np.ndarray:
    """Centered upper-bound sum of two odd-length nonnegative arrays."""
    n = max(len(a), len(b))
    out = np.zeros(n)
    for arr in (a, b):
        off = (n - len(arr)) // 2
        seg = out[off:off + len(arr)]
        out[off:off + len(arr)] = _up(seg + arr)
    return out


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
# window enclosure of DF at the numeric center


class _EnclMat:
    """Endpoint-lane enclosure of the derivative on the finite window."""

    __slots__ = ("rl", "rh", "il", "ih")

    def __init__(self, n: int):
        self.rl = np.zeros((n, n))
        self.rh = np.zeros((n, n))
        self.il = np.zeros((n, n))
        self.ih = np.zeros((n, n))

    def _add(self, rows, cols, rl, rh, il, ih):
        self.rl[rows, cols] = _dn(self.rl[rows, cols] + rl)
        self.rh[rows, cols] = _up(self.rh[rows, cols] + rh)
        self.il[rows, cols] = _dn(self.il[rows, cols] + il)
        self.ih[rows, cols] = _up(self.ih[rows, cols] + ih)

    def add_toeplitz(self, rsl: slice, csl: slice, seq: FourierSeq, K: int):
        # the window block of convolution by seq: entry (k, l) = seq_{k-l}
        lanes = [numerics.toeplitz_window(a, K) for a in
                 (seq.c.rl, seq.c.rh, seq.c.il, seq.c.ih)]
        self._add(rsl, csl, *lanes)

    def add_diag_lanes(self, sl: slice, rl, rh, il, ih):
        idx = np.arange(sl.start, sl.stop)
        self._add(idx, idx, rl, rh, il, ih)

    def add_block_identity(self, rsl: slice, csl: slice, c: ComplexInterval):
        idx_r = np.arange(rsl.start, rsl.stop)
        idx_c = np.arange(csl.start, csl.stop)
        self._add(idx_r, idx_c, c.re.lo, c.re.hi, c.im.lo, c.im.hi)

    def add_row_const(self, row: int, cols, c: ComplexInterval):
        self._add(row, cols, c.re.lo, c.re.hi, c.im.lo, c.im.hi)

    def add_col_carr(self, rsl: slice, col: int, c: CArr):
        self._add(rsl, col, c.rl, c.rh, c.il, c.ih)

    def corner_abs(self, J: np.ndarray) -> np.ndarray:
        """Entrywise upper bound of sup_{z in box} |z - J|."""
        dr = np.maximum(_up(np.abs(self.rl - J.real)), _up(np.abs(self.rh - J.real)))
        di = np.maximum(_up(np.abs(self.il - J.imag)), _up(np.abs(self.ih - J.imag)))
        out = _up(np.sqrt(_up(_up(dr * dr) + _up(di * di))))
        out[(dr == 0.0) & (di == 0.0)] = 0.0
        return out


def _diag_lanes_iomega(kv: np.ndarray, omega: float, s: complex):
    """Endpoint lanes of -i omega k - s along a window (s an exact float)."""
    m = omega * kv.astype(float)
    rl = np.full(kv.size, -s.real)
    rh = rl.copy()
    il = _dn(-_up(m) - s.imag)
    ih = _up(-_dn(m) - s.imag)
    return rl, rh, il, ih


# ---------------------------------------------------------------------------
# stage context: everything derived from the certified order-zero center


class _StageContext:
    """Derivative kernels and monomial tables at a fixed order-zero center."""

    def __init__(self, a0_seqs, cfg, omega: float, K: int, nu: float):
        self.cfg = cfg
        self.omega = float(omega)
        self.K = int(K)
        self.nu = float(nu)
        self.a0 = tuple(a0_seqs)
        self.A0 = np.array([s.c.mid() for s in self.a0])
        self.ms, self.pos = numerics.cfg_floats(cfg)
        self.fconst, self.fkers = numerics.derivative_kernels(self.A0, self.ms, self.pos)
        self.df0 = model.dF0(self.a0, cfg)
        self.kmags = [[None] * 9 for _ in range(9)]
        self.knorms = np.zeros((9, 9))
        for i in range(9):
            for j in range(9):
                ker = self.df0.kernels[i][j]
                if ker is not None:
                    self.kmags[i][j] = ker.c.mag()
                    self.knorms[i, j] = ker.norm_upper()
        self.const = np.array(self.df0.const)
        self._build_monomials()

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


@dataclass
class StageProblem:
    """One stage of the order-by-order scheme.

    residual/jacobian act on packed complex vectors [scalars, a_0 rows
    flattened]; shift is the constant s of the exact diagonal tail
    -i omega k - s shared by A_dag and (reciprocally) by A.
    """

    order: tuple
    n_scalars: int
    K: int
    nu: float
    omega: float
    shift: complex
    residual: callable
    jacobian: callable
    tag: str
    tol: float = 1e-13


def newton_stage(problem: StageProblem, guess) -> np.ndarray:
    """Damped Newton on the stage's truncated map."""
    return numerics.newton_polish(
        problem.residual, problem.jacobian, guess, tol=problem.tol
    )


def _pack(scalars, A):
    return np.concatenate([np.asarray(scalars, dtype=complex).ravel(),
                           np.asarray(A, dtype=complex).ravel()])


def _unpack(z, ns: int, K: int):
    n = 2 * K - 1
    return z[:ns], z[ns:].reshape(9, n)


def _orbit_residual(z, omega, anchor, K: int, ms, pos):
    """Order-zero residual [eta, F(a) - i omega k a + G(y, a) on the window]."""
    y, A = _unpack(z, 4, K)
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
    eta = numerics.eta_rows(A, anchor, pos)
    return _pack(eta, rows)


def _orbit_jacobian(z, omega, anchor, K: int, ms, pos, out=None):
    """Jacobian of `_orbit_residual` in (y, a) at fixed omega.

    Written into out (a zero square view of the same order) when given.
    """
    y, A = _unpack(z, 4, K)
    n = 2 * K - 1
    N = 4 + 9 * n
    J = np.zeros((N, N), dtype=complex) if out is None else out
    ent = numerics.eta_jacobian_entries(A, anchor, pos)
    for r in range(4):
        for j in range(9):
            J[r, 4 + j * n:4 + (j + 1) * n] = ent[r, j]
    const, kers = numerics.derivative_kernels(A, ms, pos)
    numerics.base_block(const, kers, K, -1j * omega * numerics.kvals(K), out=J[4:, 4:])
    b1 = slice(4 + n, 4 + 2 * n)
    J[b1, b1] += y[0] * np.eye(n)
    J[b1, 0] = A[1]
    for j in range(3):
        w = A[6 + j]
        sq = np.convolve(w, w)
        cube = np.convolve(sq, w)
        bj = slice(4 + (6 + j) * n, 4 + (7 + j) * n)
        J[bj, bj] += y[1 + j] * numerics.toeplitz_window(3.0 * sq, K)
        J[bj, 1 + j] = numerics.crop(cube, K)
    return J


def orbit_problem(cfg, omega: float, anchor, K: int, nu: float,
                  tol: float = 1e-13) -> StageProblem:
    """Periodic orbit stage: unknowns (y in C^4, a_0); fixed frequency."""
    ms, pos = numerics.cfg_floats(cfg)
    return StageProblem(
        (0, 0), 4, K, nu, omega, 0.0 + 0.0j,
        lambda z: _orbit_residual(z, omega, anchor, K, ms, pos),
        lambda z: _orbit_jacobian(z, omega, anchor, K, ms, pos),
        "order0", tol)


def _window_sum(A: np.ndarray, K: int, k0: int) -> np.ndarray:
    n = 2 * K - 1
    lo = max(K - 1 - (k0 - 1), 0)
    hi = min(K - 1 + k0, n)
    return A[:, lo:hi].sum(axis=1)


def _bundle_jacobian(base: np.ndarray, z, K: int, k0: int) -> np.ndarray:
    """Jacobian of the bundle residual in (lambda, a_1) around the base block."""
    n = 2 * K - 1
    lam, A = z[0], z[1:].reshape(9, n)
    N = 1 + 9 * n
    J = np.zeros((N, N), dtype=complex)
    J[1:, 1:] = base - lam * np.eye(9 * n)
    J[1:, 0] = -A.ravel()
    S = _window_sum(A, K, k0)
    lo = max(K - 1 - (k0 - 1), 0)
    hi = min(K - 1 + k0, n)
    for i in range(9):
        J[0, 1 + i * n + lo:1 + i * n + hi] = 2.0 * S[i]
    return J


def bundle_problem(cfg, omega: float, A0: np.ndarray, k0: int, xi0: float,
                   K: int, nu: float, tol: float = 1e-13) -> StageProblem:
    """Floquet bundle stage: unknowns (lambda, a_1) at a frozen orbit center."""
    ms, pos = numerics.cfg_floats(cfg)
    n = 2 * K - 1
    const, kers = numerics.derivative_kernels(np.asarray(A0, dtype=complex), ms, pos)
    base = numerics.base_block(const, kers, K, -1j * omega * numerics.kvals(K))

    def residual(z):
        lam, A = z[0], z[1:].reshape(9, n)
        rows = (base @ A.ravel()).reshape(9, n) - lam * A
        S = _window_sum(A, K, k0)
        xi = np.sum(S * S) - xi0
        return _pack([xi], rows)

    return StageProblem((1, 0), 1, K, nu, omega, 0.0 + 0.0j, residual,
                        lambda z: _bundle_jacobian(base, z, K, k0), "order1", tol)


def _lower_grids(jet: "JetTable", order: int, entry):
    """Per component, the grid beta -> entry(seq, beta) over |beta| < order.

    Sorted, so accumulation order does not depend on table insertion history.
    """
    return [{beta: entry(seqs[i], beta) for beta, seqs in sorted(jet.orders.items())
             if beta[0] + beta[1] < order} for i in range(9)]


def jet_problem(alpha, jet: "JetTable", cfg, tol: float = 1e-13) -> StageProblem:
    """Homological stage for a single alpha with |alpha| >= 2 (linear)."""
    m_, n_ = int(alpha[0]), int(alpha[1])
    if m_ + n_ < 2:
        raise ValueError("jet stages start at |alpha| = 2")
    K, nu, omega = jet.K, jet.nu, jet.omega
    ms, pos = numerics.cfg_floats(cfg)
    n = 2 * K - 1
    lam = jet.lambda_bar
    s = complex((m_ + n_) * lam.real, (m_ - n_) * lam.imag)
    A0 = np.array([sq.c.mid() for sq in jet.orders[(0, 0)]])
    const, kers = numerics.derivative_kernels(A0, ms, pos)
    base = numerics.base_block(const, kers, K, -1j * omega * numerics.kvals(K) - s)
    grids = _lower_grids(jet, m_ + n_, lambda seq, beta: seq.c.mid())
    R = numerics.remainder_layer(grids, alpha, ms, pos)
    Rwin = np.array([numerics.crop(r, K) for r in R])

    def residual(z):
        A = z.reshape(9, n)
        return (base @ A.ravel()) + Rwin.ravel()

    def jacobian(z):
        return base

    return StageProblem((m_, n_), 0, K, nu, omega, s,
                        residual, jacobian, "jet:%d,%d" % (m_, n_), tol)


# ---------------------------------------------------------------------------
# assembled stage data handed to the common certifier


@dataclass
class _Assembled:
    tag: str
    ns: int
    K: int
    nu: float
    omega: float
    s: complex
    J: np.ndarray
    encl: _EnclMat
    resid_scalars: list
    resid_seqs: list
    tail_mags: list
    tail_norms: np.ndarray
    tail_consts: np.ndarray
    scalar_tail_sup: np.ndarray
    ycol_tail_seqs: list
    monomials: list
    pre_Y: float = 0.0
    pre_Z1: float = 0.0


def _resid_mid_rad(asm: _Assembled):
    parts_m = []
    parts_r = []
    if asm.ns:
        carr = CArr.from_civ_list(asm.resid_scalars)
        parts_m.append(carr.mid())
        parts_r.append(carr.rad())
    for seq in asm.resid_seqs:
        c = project(seq, asm.K).c
        parts_m.append(c.mid())
        parts_r.append(c.rad())
    return np.concatenate(parts_m), np.concatenate(parts_r)


def _certify(asm: _Assembled, r_star: float, digest: str):
    K, nu, ns, omega, s = asm.K, asm.nu, asm.ns, asm.omega, asm.s
    layout = SpaceLayout.mixed(ns, 9, K)
    N = layout.n
    ngroups = len(layout.groups)
    J = asm.J
    Jhat = np.linalg.inv(J)
    absJ = np.abs(Jhat)

    cm, cr = cmm(Jhat, None, J, None)
    cm[np.diag_indices(N)] -= 1.0
    Z0 = opnorm_upper(block_norms(cmat_abs_up(cm, cr), layout, layout, nu))

    Bmat = block_norms(absJ, layout, layout, nu)
    rowsJ = norm_rows(Bmat)
    dtK = float(_inv_dist_up(np.array([float(K)]), omega, s)[0])
    normA = 0.0
    for gi, kind in enumerate(layout.kinds):
        v = float(rowsJ[gi]) if kind == "scalar" else float(_up(rowsJ[gi] + dtK))
        normA = max(normA, v)
    # pre_Y / pre_Z1 bound perturbations supported on the sequence block only
    # (no scalar components), so their amplification constant may drop the
    # scalar columns of A.  The quadratic terms keep the full norm: their
    # difference operators can involve the scalar directions.
    seq_cols = [ci for ci, kind in enumerate(layout.kinds) if kind == "seq"]
    normA_seq = 0.0
    for gi, kind in enumerate(layout.kinds):
        v = up_sum(Bmat[gi, seq_cols])
        if kind == "seq":
            v = _up(v + dtK)
        normA_seq = max(normA_seq, float(v))

    vm, vr = _resid_mid_rad(asm)
    ym, yr = cmm(Jhat, None, vm, vr)
    gY = group_vec_norms(cmat_abs_up(ym, yr), layout, nu)
    Y0 = 0.0
    for gi, kind in enumerate(layout.kinds):
        if kind == "scalar":
            Y0 = max(Y0, float(gY[gi]))
        else:
            i = gi - ns
            t = _seq_tail_weighted(asm.resid_seqs[i], K, nu, omega, s)
            Y0 = max(Y0, float(_up(gY[gi] + t)))
    Y = float(_up(Y0 + _up(normA_seq * asm.pre_Y)))

    _, winv = layout.weights_up(nu)
    scaled = _up(asm.encl.corner_abs(J) * winv[None, :])
    U = np.zeros((N, ngroups))
    for ci, (kind, csl) in enumerate(zip(layout.kinds, layout.slices)):
        col = scaled[:, csl].max(axis=1)
        if kind == "seq":
            j = ci - ns
            prof = np.zeros(N)
            for r0_ in range(ns):
                prof[r0_] = asm.scalar_tail_sup[r0_, j]
            for i in range(9):
                g = asm.tail_mags[i][j]
                if g is not None:
                    prof[layout.slices[ns + i]] = _tail_col_profile(g, K, nu)
            col = np.maximum(col, prof)
        U[:, ci] = col
    Wmat = mm_up_nonneg(absJ, U)
    Np = np.zeros((ngroups, ngroups))
    for ci in range(ngroups):
        Np[:, ci] = group_vec_norms(Wmat[:, ci], layout, nu)
    for i in range(9):
        R = ns + i
        for j in range(9):
            add = 0.0
            g = asm.tail_mags[i][j]
            if g is not None:
                add = _tail_row_bound(g, K, nu, omega, s, asm.tail_norms[i, j])
            cconst = asm.tail_consts[i, j]
            if cconst:
                add = float(_up(add + _up(cconst * dtK)))
            if add:
                Np[R, ns + j] = _up(Np[R, ns + j] + add)
        for col, slot, seq in asm.ycol_tail_seqs:
            if slot == i:
                t = _seq_tail_weighted(seq, K, nu, omega, s)
                Np[R, col] = _up(Np[R, col] + t)
    Z1_0 = max(up_sum(Np[R]) for R in range(ngroups))
    Z1 = float(_up(Z1_0 + _up(normA_seq * asm.pre_Z1)))

    rows = _row_polys(asm.monomials)
    coeffs = _polys_max_coeffs(rows)
    Z2 = tuple(float(_up(normA * c)) for c in coeffs)

    bounds = NKBounds(Y=Y, Z0=Z0, Z1=Z1, Z2=Z2, r_star=r_star)
    cert = radii_newton(bounds, stage=asm.tag, inputs_digest=digest)
    report = {
        "Y": Y, "Z0": Z0, "Z1": Z1, "Z2": list(Z2), "normA": normA,
        "r0": cert.r0, "r_max": cert.r_max,
    }
    return cert, report


# ---------------------------------------------------------------------------
# per-stage assembly


def _base_encl(ctx: _StageContext, ns: int, s: complex) -> _EnclMat:
    K = ctx.K
    n = 2 * K - 1
    N = ns + 9 * n
    kv = numerics.kvals(K)
    E = _EnclMat(N)
    lanes = _diag_lanes_iomega(kv, ctx.omega, s)
    for i in range(9):
        sl = slice(ns + i * n, ns + (i + 1) * n)
        E.add_diag_lanes(sl, *lanes)
        for j in range(9):
            cs = slice(ns + j * n, ns + (j + 1) * n)
            c = ctx.const[i, j]
            if c != 0.0:
                E.add_block_identity(sl, cs, ComplexInterval.point(complex(c)))
            ker = ctx.df0.kernels[i][j]
            if ker is not None:
                E.add_toeplitz(sl, cs, ker, K)
    return E


def _assemble_orbit(sol: "OrbitSolution", cfg) -> _Assembled:
    ctx = _StageContext([FourierSeq.point(row, sol.nu) for row in sol.coeffs],
                        cfg, sol.omega, sol.K, sol.nu)
    K, nu, omega = ctx.K, ctx.nu, ctx.omega
    n = 2 * K - 1
    ns = 4
    anchor = sol.anchor
    y = np.asarray(sol.y, dtype=complex)

    J = _orbit_jacobian(_pack(y, sol.coeffs), omega, anchor, K, ctx.ms, ctx.pos)

    E = _base_encl(ctx, ns, 0.0 + 0.0j)
    b1 = slice(ns + n, ns + 2 * n)
    E.add_block_identity(b1, b1, ComplexInterval.point(complex(y[0])))
    cubes = []
    sq3mags = []
    sq3seqs = []
    for j in range(3):
        w = ctx.a0[6 + j]
        sq = conv(w, w)
        cube = conv(sq, w)
        cubes.append(cube)
        sq3 = sq.scale(ComplexInterval.point(complex(y[1 + j])) * 3.0)
        sq3seqs.append(sq3)
        sq3mags.append(sq3.c.mag())
        bj = slice(ns + (6 + j) * n, ns + (7 + j) * n)
        E.add_toeplitz(bj, bj, sq3, K)
        E.add_col_carr(bj, 1 + j, project(cube, K).c)
    E.add_col_carr(b1, 0, ctx.a0[1].c)

    gs = [model._mode_sum(sq) for sq in ctx.a0]
    u1 = anchor.u1
    for i in range(9):
        cs = slice(ns + i * n, ns + (i + 1) * n)
        E.add_row_const(0, cs, ComplexInterval.point(complex(-u1[i])))
    eta_consts = np.zeros((ns, 9))
    eta_consts[0] = np.abs(np.asarray(u1, dtype=float))
    eta_monos = []
    for j in range(3):
        px, py, pz = cfg.position(j)
        dxg = gs[0] - px
        dyg = gs[2] - py
        dzg = gs[4] - pz
        d2 = dxg * dxg + dyg * dyg + dzg * dzg
        gw = gs[6 + j]
        w2 = gw * gw
        entries = {0: dxg * w2 * 2.0, 2: dyg * w2 * 2.0,
                   4: dzg * w2 * 2.0, 6 + j: d2 * gw * 2.0}
        for slot, c in entries.items():
            cs = slice(ns + slot * n, ns + (slot + 1) * n)
            E.add_row_const(1 + j, cs, c)
            eta_consts[1 + j, slot] = c.mag()
        for fv in (dxg, dyg, dzg):
            eta_monos.append((("scalar", 1 + j), 1.0,
                              (fv.mag(), fv.mag(), gw.mag(), gw.mag())))

    grids = tuple(FourierTaylorSeq({(0, 0): sq}, nu) for sq in ctx.a0)
    F = model.field_F_grid(grids, cfg, cap=0)
    G = model.unfold_orbit_G([complex(t) for t in y], ctx.a0)
    resid_seqs = []
    for i in range(9):
        r = ctx.a0[i].dtheta().scale(-omega).add(F[i].layer(0, 0)).add(G[i])
        resid_seqs.append(r)
    resid_scalars = list(model.eta_phase(ctx.a0, anchor, cfg))

    tail_mags = [list(row) for row in ctx.kmags]
    tail_norms = ctx.knorms.copy()
    for j in range(3):
        i = 6 + j
        prev = tail_mags[i][i]
        tail_mags[i][i] = _mag_pad_sum(prev, sq3mags[j]) if prev is not None else sq3mags[j]
        tail_norms[i, i] = _up(tail_norms[i, i] + sq3seqs[j].norm_upper())
    tail_consts = np.abs(ctx.const)
    tail_consts[1, 1] = _up(tail_consts[1, 1] + _up(abs(complex(y[0]))))

    nuinvK = float(_nu_inv_up(nu, np.array([K]))[0])
    scalar_tail_sup = _up(eta_consts * nuinvK)

    monos = list(ctx.field_monos) + eta_monos
    monos.append((("seq", 1), 1.0, (_up(abs(complex(y[0]))), ctx.a0_norms[1])))
    for j in range(3):
        wn = ctx.a0_norms[6 + j]
        monos.append((("seq", 6 + j), 1.0,
                      (_up(abs(complex(y[1 + j]))), wn, wn, wn)))

    asm = _Assembled(
        tag="order0", ns=ns, K=K, nu=nu, omega=omega, s=0.0 + 0.0j,
        J=J, encl=E, resid_scalars=resid_scalars, resid_seqs=resid_seqs,
        tail_mags=tail_mags, tail_norms=tail_norms, tail_consts=tail_consts,
        scalar_tail_sup=scalar_tail_sup,
        ycol_tail_seqs=[(1 + j, 6 + j, cubes[j]) for j in range(3)],
        monomials=monos,
    )
    return asm


def _assemble_bundle(sol: "BundleSolution", ctx: _StageContext, r0: float) -> _Assembled:
    K, nu, omega = ctx.K, ctx.nu, ctx.omega
    n = 2 * K - 1
    ns = 1
    lam = complex(sol.lam)
    a1 = [FourierSeq.point(row, nu) for row in sol.coeffs]

    z = np.concatenate([[lam], np.asarray(sol.coeffs, dtype=complex).ravel()])
    base = numerics.base_block(ctx.fconst, ctx.fkers, K,
                               -1j * omega * numerics.kvals(K))
    J = _bundle_jacobian(base, z, K, sol.k0)

    E = _base_encl(ctx, ns, lam)
    for i in range(9):
        sl = slice(ns + i * n, ns + (i + 1) * n)
        E.add_col_carr(sl, 0, a1[i].c.neg())
    k0 = sol.k0
    Smags = []
    for i in range(9):
        win = project(a1[i], k0)
        Si = model._mode_sum(win)
        Smags.append(Si.mag())
        cols = ns + i * n + (K - 1) + np.arange(-(k0 - 1), k0)
        E.add_row_const(0, cols, Si * 2.0)

    resid_seqs = []
    Dapp = ctx.df0.apply(a1)
    for i in range(9):
        r = a1[i].dtheta().scale(-omega).add(Dapp[i]).add(a1[i].scale(-lam))
        resid_seqs.append(r)
    resid_scalars = [model.xi_phase(a1, sol.k0, sol.xi0)]

    a1n = [sq.norm_upper() for sq in a1]
    monos = [(("seq", i), 1.0, (_up(abs(lam)), a1n[i])) for i in range(9)]
    monos += [(("scalar", 0), 1.0, (Smags[i], Smags[i])) for i in range(9)]

    dd = ctx.field_dd(r0)
    asm = _Assembled(
        tag="order1:%s" % sol.kind, ns=ns, K=K, nu=nu, omega=omega, s=lam,
        J=J, encl=E, resid_scalars=resid_scalars, resid_seqs=resid_seqs,
        tail_mags=[list(row) for row in ctx.kmags], tail_norms=ctx.knorms.copy(),
        tail_consts=np.abs(ctx.const), scalar_tail_sup=np.zeros((ns, 9)),
        ycol_tail_seqs=[], monomials=monos,
        pre_Z1=dd, pre_Y=float(_up(dd * max(a1n))),
    )
    return asm


def _assemble_jet(alpha, centers, ctx: _StageContext, jet: "JetTable") -> _Assembled:
    K, nu, omega = ctx.K, ctx.nu, ctx.omega
    ns = 0
    m_, n_ = int(alpha[0]), int(alpha[1])
    p = m_ + n_
    lam = jet.lambda_bar
    s = complex(p * lam.real, (m_ - n_) * lam.imag)

    J = numerics.base_block(ctx.fconst, ctx.fkers, K,
                            -1j * omega * numerics.kvals(K) - s)
    E = _base_encl(ctx, ns, s)

    for row in centers:
        if not _is_point(row):
            raise ValueError("jet centers must be point sequences")
    aset = list(centers)
    Dapp = ctx.df0.apply(aset)
    Renc = _remainder_enclosure(jet, ctx.cfg, alpha)
    lam_shift = ComplexInterval.point(-s)
    resid_seqs = []
    for i in range(9):
        r = aset[i].dtheta().scale(-omega).add(aset[i].scale(lam_shift))
        r = r.add(Dapp[i]).add(Renc[i])
        resid_seqs.append(r)

    # uncertainty of the chosen diagonal shift versus <alpha, lambda>
    lre = Interval.point(lam.real) * float(p)
    lim = Interval.point(lam.imag) * float(m_ - n_)
    ds = ComplexInterval(lre - s.real, lim - s.imag).mag()
    r_lam = jet.radii.get((1, 0), 0.0)
    dd = ctx.field_dd(jet.radii.get((0, 0), 0.0))
    shift_err = float(_up(dd + _up(p * r_lam + ds)))
    rho = _remainder_error_budget(jet, ctx.cfg, alpha)
    maxn = max(sq.norm_upper() for sq in aset)
    asm = _Assembled(
        tag="jet:%d,%d:%s" % (m_, n_, jet.kind), ns=ns, K=K, nu=nu,
        omega=omega, s=s, J=J, encl=E, resid_scalars=[],
        resid_seqs=resid_seqs, tail_mags=[list(row) for row in ctx.kmags],
        tail_norms=ctx.knorms.copy(), tail_consts=np.abs(ctx.const),
        scalar_tail_sup=np.zeros((0, 9)), ycol_tail_seqs=[], monomials=[],
        pre_Z1=shift_err, pre_Y=float(_up(_up(shift_err * maxn) + rho)),
    )
    return asm


def _is_point(seq: FourierSeq) -> bool:
    c = seq.c
    return bool(np.array_equal(c.rl, c.rh) and np.array_equal(c.il, c.ih))


# ---------------------------------------------------------------------------
# fast verified remainder enclosures (midpoint-radius Fourier-Taylor grids)


def _mr_add(qm, qr, vm, vr):
    """Centered midpoint-radius sum of two odd-length disc arrays."""
    nlen = max(len(qm), len(vm))
    zm = np.zeros(nlen, dtype=complex)
    zr = np.zeros(nlen)
    for sm, sr in ((qm, qr), (vm, vr)):
        off = (nlen - len(sm)) // 2
        zm[off:off + len(sm)] += sm
        zr[off:off + len(sr)] = _up(zr[off:off + len(sr)] + sr)
    return [zm, _up(zr + _up(np.abs(zm) * (2.0 ** -52)))]


class _MidRad:
    """Midpoint-radius grids (m, n) -> [mid, rad] for `model.embedded_field`.

    Each radius bounds the complex modulus of the error of its coefficient.
    """

    truncate = staticmethod(numerics.ft_truncate)

    def __init__(self, cfg):
        self.masses = tuple(cfg.masses)
        self.positions = tuple(cfg.position(j) for j in range(3))
        self.zero = {}

    @staticmethod
    def mul(b, c, cap):
        out = {}
        for (m1, n1), (vm1, vr1) in b.items():
            for (m2, n2), (vm2, vr2) in c.items():
                m, n = m1 + m2, n1 + n2
                if m + n > cap:
                    continue
                pm, pr = cconv_mr(vm1, vr1, vm2, vr2)
                prev = out.get((m, n))
                out[(m, n)] = [pm, pr] if prev is None else _mr_add(*prev, pm, pr)
        return out

    @staticmethod
    def sum(*grids):
        out = {}
        for g in grids:
            for a, (vm, vr) in g.items():
                prev = out.get(a)
                out[a] = [vm.copy(), vr.copy()] if prev is None else _mr_add(*prev, vm, vr)
        return out

    @staticmethod
    def scale(g, c):
        c = _as_iv(c)
        cm, crad = c.mid, _iv_rad_up(c)
        out = {}
        for a, (vm, vr) in g.items():
            am = _up(np.abs(vm) * (1.0 + 4.0 * 2.0 ** -53))
            m2 = vm * cm
            am2 = _up(np.abs(m2) * (1.0 + 4.0 * 2.0 ** -53))
            r2 = _up(am2 * (2.0 ** -52))
            out[a] = [m2, _up(r2 + _up(am * crad) + _up(vr * _up(abs(cm) + crad)))]
        return out

    @staticmethod
    def shift(g, p: Interval):
        out = {a: [vm.copy(), vr.copy()] for a, (vm, vr) in g.items()}
        c = -p
        ent = out.get((0, 0))
        if ent is None:
            out[(0, 0)] = [np.array([complex(c.mid)]), np.array([_iv_rad_up(c)])]
        else:
            vm, vr = ent
            mid = len(vm) // 2
            vm[mid] += complex(c.mid)
            vr[mid] = _up(_up(vr[mid] + _iv_rad_up(c)) + _up(abs(vm[mid]) * (2.0 ** -52)))
        return out

    @staticmethod
    def neg(g):
        return _MidRad.scale(g, Interval.point(-1.0))


def _mr_field_grid(G, cfg, cap: int):
    return model.embedded_field(_MidRad(cfg), G, cap)


# The jets of one order all read the same lower orders, so each remainder
# arithmetic keeps its last field evaluation and reuses it while the inputs
# are the same: the same cfg, the same center objects, the same radii.
_LAST_LOWER_FIELD = {}


def _lower_field(jet: "JetTable", cfg, arith, order: int, entry):
    """`model.embedded_field` in `arith(cfg)` of the orders below `order`."""
    lower = [(beta, seqs, jet.radii.get(beta))
             for beta, seqs in sorted(jet.orders.items())
             if beta[0] + beta[1] < order]
    last = _LAST_LOWER_FIELD.get(arith)
    if (last is not None and last[0] is cfg and last[1] == order
            and len(last[2]) == len(lower)
            and all(a == b and s is t and r == q
                    for (a, s, r), (b, t, q) in zip(last[2], lower))):
        return last[3]
    out = model.embedded_field(arith(cfg), _lower_grids(jet, order, entry), order)
    _LAST_LOWER_FIELD[arith] = (cfg, order, lower, out)
    return out


def _remainder_enclosure(jet: "JetTable", cfg, alpha):
    """Layer alpha of the field applied to the strictly-lower-order centers."""
    m_, n_ = int(alpha[0]), int(alpha[1])
    order = m_ + n_
    nu = jet.nu
    outs = _lower_field(jet, cfg, _MidRad, order,
                        lambda seq, beta: [seq.c.mid(), seq.c.rad()])
    res = []
    for i in range(9):
        ent = outs[i].get((m_, n_))
        if ent is None:
            res.append(FourierSeq.zeros(1, nu))
            continue
        vm, vr = ent
        c = CArr(_dn(vm.real - vr), _up(vm.real + vr),
                 _dn(vm.imag - vr), _up(vm.imag + vr))
        res.append(FourierSeq(c, nu))
    return res


# -- norm/error propagation for the lower-order data feeding a remainder ----


class _NormRad:
    """Grids (m, n) -> (N, r) for `model.embedded_field`.

    A layer stands for every sequence within norm distance r of a center of
    norm at most N; the field outputs bound how far each layer of the field
    moves as its inputs range over those balls.  Constants enter by their
    modulus and negation is the identity.
    """

    truncate = staticmethod(numerics.ft_truncate)

    def __init__(self, cfg):
        self.masses = tuple(m.mag() for m in cfg.masses)
        self.positions = tuple(tuple(c.mag() for c in cfg.position(j))
                               for j in range(3))
        self.zero = {}

    @staticmethod
    def mul(b, c, cap):
        out = {}
        for (m1, n1), (N1, r1) in b.items():
            for (m2, n2), (N2, r2) in c.items():
                m, n = m1 + m2, n1 + n2
                if m + n > cap:
                    continue
                Np = _up(N1 * N2)
                rp = _up(_up(_up(N1 * r2) + _up(r1 * N2)) + _up(r1 * r2))
                prev = out.get((m, n), (0.0, 0.0))
                out[(m, n)] = (float(_up(prev[0] + Np)), float(_up(prev[1] + rp)))
        return out

    @staticmethod
    def sum(*grids):
        out = {}
        for g in grids:
            for a, (Nv, rv) in g.items():
                prev = out.get(a, (0.0, 0.0))
                out[a] = (float(_up(prev[0] + Nv)), float(_up(prev[1] + rv)))
        return out

    @staticmethod
    def scale(g, c):
        c = abs(c)
        return {a: (float(_up(Nv * c)), float(_up(rv * c))) for a, (Nv, rv) in g.items()}

    @staticmethod
    def shift(g, cmag: float):
        out = dict(g)
        Nv, rv = out.get((0, 0), (0.0, 0.0))
        out[(0, 0)] = (float(_up(Nv + cmag)), rv)
        return out

    @staticmethod
    def neg(g):
        return g


def _remainder_error_budget(jet: "JetTable", cfg, alpha) -> float:
    """Bound on the remainder shift caused by the radii of all lower orders."""
    m_, n_ = int(alpha[0]), int(alpha[1])
    order = m_ + n_
    rows = _lower_field(jet, cfg, _NormRad, order,
                        lambda seq, beta: (seq.norm_upper(), jet.radii[beta]))
    return max(r.get((m_, n_), (0.0, 0.0))[1] for r in rows)


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
    lam: complex
    coeffs: np.ndarray
    k0: int
    xi0: float


@dataclass
class Order0Result:
    balls: tuple
    y_enclosure: tuple
    r0: float
    cert: Certificate
    bounds: dict


@dataclass
class Order1Result:
    lambda1: ComplexInterval
    balls: tuple
    r1: float
    cert: Certificate
    bounds: dict


@dataclass
class JetResult:
    alpha: tuple
    balls: tuple
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


def validate_order0(solution: OrbitSolution, cfg, *, r_star: float = 1e-2) -> Order0Result:
    """Certify the periodic orbit; the unfolding enclosure must contain zero."""
    asm = _assemble_orbit(solution, cfg)
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
    cert, report = _certify(asm, r_star, digest)
    r0 = cert.r0
    for t in solution.y:
        if abs(complex(t)) > r0:
            raise UnfoldingNotZero(
                "unfolding parameter %r exceeds the certified radius %.3e"
                % (t, r0)
            )
    balls = tuple(BallElement(sq, r0) for sq in solution.seqs())
    yenc = tuple(_civ_ball(complex(t), r0) for t in solution.y)
    return Order0Result(balls, yenc, r0, cert, report)


def _context_for(jet: "JetTable", cfg) -> _StageContext:
    cached = jet.ctx_cache
    if cached is not None and cached[0] is cfg:
        return cached[1]
    ctx = _StageContext(jet.orders[(0, 0)], cfg, jet.omega, jet.K, jet.nu)
    jet.ctx_cache = (cfg, ctx)
    return ctx


def validate_order1(solution: BundleSolution, jet: "JetTable", cfg, *,
                    r_star: float = 1e-2) -> Order1Result:
    """Certify the Floquet eigenpair at an already-certified orbit."""
    ctx = _context_for(jet, cfg)
    r0 = jet.radii[(0, 0)]
    asm = _assemble_bundle(solution, ctx, r0)
    digest = content_digest({
        "stage": "order1",
        "kind": solution.kind,
        "prev": jet.digests.get("order0", ""),
        "lambda": [float(solution.lam.real).hex(), float(solution.lam.imag).hex()],
        "k0": solution.k0,
        "xi0": float(solution.xi0).hex(),
        "coeffs": _seqs_digest_obj(
            FourierSeq.point(row, jet.nu) for row in solution.coeffs),
    })
    cert, report = _certify(asm, r_star, digest)
    r1 = cert.r0
    lam = complex(solution.lam)
    if abs(lam.real) <= r1:
        raise ResonantExponents(
            "Re(lambda) enclosure [%g, %g] contains zero"
            % (lam.real - r1, lam.real + r1)
        )
    lam_enc = _civ_ball(lam, r1)
    balls = tuple(BallElement(FourierSeq.point(row, jet.nu), r1)
                  for row in solution.coeffs)
    return Order1Result(lam_enc, balls, r1, cert, report)


def validate_jet(alpha, jet: "JetTable", cfg, *, r_star: float = 1e-2) -> JetResult:
    """Certify one homological jet whose center is staged in the table."""
    alpha = (int(alpha[0]), int(alpha[1]))
    if alpha[0] + alpha[1] < 2:
        raise ValueError("jet validation starts at |alpha| = 2")
    centers = jet.orders[alpha]
    ctx = _context_for(jet, cfg)
    asm = _assemble_jet(alpha, centers, ctx, jet)
    digest = content_digest({
        "stage": "jet:%d,%d" % alpha,
        "kind": jet.kind,
        "prev": jet.digests.get("order1", ""),
        "coeffs": _seqs_digest_obj(centers),
    })
    cert, report = _certify(asm, r_star, digest)
    balls = tuple(BallElement(sq, cert.r0) for sq in centers)
    return JetResult(alpha, balls, cert.r0, cert, report)


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
    lambda_bar: complex
    lambda1: ComplexInterval | None = None
    gamma_scale: float = 1.0
    orders: dict = field(default_factory=dict)
    radii: dict = field(default_factory=dict)
    certs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    ctx_cache: object = field(default=None, repr=False, compare=False)

    def lambda2(self) -> ComplexInterval:
        return self.lambda1.conj()

    def re_lambda_mig(self) -> float:
        """Lower bound of |Re lambda| over the certified enclosure."""
        return self.lambda1.re.mig()

    def ball(self, alpha, i: int) -> BallElement:
        return BallElement(self.orders[tuple(alpha)][i], self.radii[tuple(alpha)])

    def grids(self):
        """The nine Fourier-Taylor center grids through order N_t."""
        out = []
        for i in range(9):
            out.append(FourierTaylorSeq(
                {a: seqs[i] for a, seqs in sorted(self.orders.items())},
                self.nu))
        return tuple(out)

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
            "lambda_bar": [float(self.lambda_bar.real).hex(),
                           float(self.lambda_bar.imag).hex()],
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
            lambda_bar=complex(float.fromhex(obj["lambda_bar"][0]),
                               float.fromhex(obj["lambda_bar"][1])),
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


def certified_orbit(cfg, omega: float, anchor, guess: np.ndarray, K: int,
                    nu: float, *, r_star: float = 1e-2, tol: float = 1e-13):
    """Solve and certify the order-zero stage; returns (solution, result)."""
    prob = orbit_problem(cfg, omega, anchor, K, nu, tol=tol)
    z = newton_stage(prob, guess)
    sol = OrbitSolution(omega, K, nu, anchor,
                        z[:4].copy(), z[4:].reshape(9, 2 * K - 1).copy())
    res = validate_order0(sol, cfg, r_star=r_star)
    return sol, res


def start_jet_table(kind: str, sol: OrbitSolution, res: Order0Result, cfg,
                    lam_guess: complex, v_guess: np.ndarray, k0: int,
                    xi0: float, N_t: int, *, r_star: float = 1e-2,
                    tol: float = 1e-13) -> JetTable:
    """Solve/certify one Floquet bundle on top of a certified orbit."""
    jet = JetTable(
        kind=kind, omega=sol.omega, K=sol.K, nu=sol.nu, N_t=N_t, k0=k0,
        xi0=xi0, anchor=sol.anchor, y_bar=tuple(complex(t) for t in sol.y),
        lambda_bar=complex(lam_guess),
    )
    jet.orders[(0, 0)] = sol.seqs()
    jet.radii[(0, 0)] = res.r0
    jet.certs["order0"] = res.cert
    jet.digests["order0"] = content_digest(res.cert.to_json_obj())

    prob = bundle_problem(cfg, sol.omega, sol.coeffs, k0, xi0, sol.K, sol.nu,
                          tol=tol)
    guess = np.concatenate([[complex(lam_guess)],
                            np.asarray(v_guess, dtype=complex).ravel()])
    z = newton_stage(prob, guess)
    bsol = BundleSolution(kind, complex(z[0]),
                          z[1:].reshape(9, 2 * sol.K - 1).copy(), k0, xi0)
    jet.lambda_bar = bsol.lam
    r1 = validate_order1(bsol, jet, cfg, r_star=r_star)
    a1 = tuple(FourierSeq.point(row, sol.nu) for row in bsol.coeffs)
    jet.orders[(1, 0)] = a1
    jet.orders[(0, 1)] = tuple(s.conj_reflect() for s in a1)
    jet.radii[(1, 0)] = r1.r1
    jet.radii[(0, 1)] = r1.r1
    jet.lambda1 = r1.lambda1
    jet.certs["order1"] = r1.cert
    jet.digests["order1"] = content_digest(r1.cert.to_json_obj())
    return jet


def _level_alphas(p: int, symmetry: bool):
    if symmetry:
        return [(m, p - m) for m in range(p, (p - 1) // 2, -1)]
    return [(m, p - m) for m in range(p, -1, -1)]


def _jet_task(jet: "JetTable", cfg, alpha, r_star: float, tol: float):
    """Solve and certify one jet against a fixed lower-order table."""
    prob = jet_problem(alpha, jet, cfg, tol=tol)
    z = newton_stage(prob, np.zeros(9 * (2 * jet.K - 1), dtype=complex))
    centers = tuple(FourierSeq.point(row, jet.nu)
                    for row in z.reshape(9, 2 * jet.K - 1))
    jet.orders[alpha] = centers
    res = validate_jet(alpha, jet, cfg, r_star=r_star)
    return alpha, centers, res


def _level_parallel(jet: "JetTable", cfg, alphas, r_star: float, tol: float,
                    jobs: int):
    """Run one level's independent jets on a process pool.

    Inputs to each task are a snapshot of the lower orders, and results are
    applied in the fixed level order, so the outcome matches the sequential
    path bit for bit."""
    from concurrent.futures import ProcessPoolExecutor

    snap = _strip_unvalidated(jet)
    snap.ctx_cache = None
    with ProcessPoolExecutor(max_workers=min(jobs, len(alphas))) as ex:
        futs = [ex.submit(_jet_task, snap, cfg, a, r_star, tol)
                for a in alphas]
        return [f.result() for f in futs]


def extend_with_jets(jet: JetTable, cfg, *, gamma: float = 0.7,
                     symmetry: bool = True, r_star: float = 1e-2,
                     tol: float = 1e-13, jobs: int = 1,
                     _retried: bool = False) -> JetTable:
    """Solve and certify all jets through order N_t (one rescale retry).

    Jets of equal order are independent; jobs > 1 validates each level
    concurrently."""
    for p in range(2, jet.N_t + 1):
        alphas = [a for a in _level_alphas(p, symmetry) if a not in jet.radii]
        try:
            if jobs > 1 and len(alphas) > 1:
                results = _level_parallel(jet, cfg, alphas, r_star, tol, jobs)
            else:
                results = [_jet_task(jet, cfg, a, r_star, tol) for a in alphas]
        except NoNegativeRadius:
            if _retried:
                raise
            for a in alphas:
                jet.orders.pop(a, None)
            scaled = rescale_jets(_strip_unvalidated(jet), gamma)
            return extend_with_jets(scaled, cfg, gamma=gamma,
                                    symmetry=symmetry, r_star=r_star,
                                    tol=tol, jobs=jobs, _retried=True)
        for alpha, centers, res in results:
            jet.orders[alpha] = centers
            jet.radii[alpha] = res.r
            jet.certs[res.cert.stage] = res.cert
            jet.digests[res.cert.stage] = content_digest(res.cert.to_json_obj())
            mirror = (alpha[1], alpha[0])
            if symmetry and mirror != alpha:
                jet.orders[mirror] = tuple(s.conj_reflect() for s in centers)
                jet.radii[mirror] = res.r
    return jet


def _strip_unvalidated(jet: JetTable) -> JetTable:
    orders = {a: s for a, s in jet.orders.items() if a in jet.radii}
    return replace(jet, orders=orders, radii=dict(jet.radii),
                   certs=dict(jet.certs), digests=dict(jet.digests))


def build_jet_table(kind: str, cfg, omega: float, anchor, orbit_guess,
                    lam_guess: complex, v_guess, K: int, nu: float, N_t: int,
                    k0: int, xi0: float, *, gamma: float = 0.7,
                    symmetry: bool = True, r_star: float = 1e-2,
                    tol: float = 1e-13, jobs: int = 1) -> JetTable:
    """Orbit, bundle, and jets in one call; see the stagewise entry points."""
    sol, res = certified_orbit(cfg, omega, anchor, orbit_guess, K, nu,
                               r_star=r_star, tol=tol)
    jet = start_jet_table(kind, sol, res, cfg, lam_guess, v_guess, k0, xi0,
                          N_t, r_star=r_star, tol=tol)
    return extend_with_jets(jet, cfg, gamma=gamma, symmetry=symmetry,
                            r_star=r_star, tol=tol, jobs=jobs)
