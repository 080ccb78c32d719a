"""Deterministic numeric seeds for the certified stages.

Everything here is plain floating point: planar equilibria of the rotating
frame, the vertical linear frequency, small-amplitude vertical orbit guesses,
a continuation of that family in its Jacobi level (one square Newton system
with H - H_target as a row), and Floquet data from the monodromy matrix of the
six-dimensional variational flow.  The certified stages consume these
guesses; nothing in this module is trusted by the validators.

The continuation walks the level at a coarse truncation, at most _K_WALK
modes, whatever K the stages use.  Its orbit is then zero-padded to K and
polished by one Newton solve of the level system at K.  The orbit's modes
decay fast enough that the padded guess is already near the solution at K,
so seeding costs a walk of small dense solves plus a couple of solves at K,
not a walk of solves at K.

State ordering matches the polynomial embedding: (x, vx, y, vy, z, vz) plus
the three reciprocal distances in slots 6..8.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize

from . import model, numerics, stages

__all__ = [
    "planar_equilibria",
    "vertical_frequency",
    "embed_point",
    "jacobi_mid",
    "orbit_guess_vector",
    "orbit_to_jacobi",
    "monodromy",
    "floquet_exponents",
    "bundle_guess",
    "SeedFailure",
]


# rest points are searched from a grid of _EQ_GRID^2 starts on [-_EQ_SPAN, _EQ_SPAN]^2
_EQ_SPAN = 1.6
_EQ_GRID = 13
# the level walk: amplitude of the first guess and its growth per step; the
# walk stalls once a halved level step is below _STEP_FLOOR times |H - H_eq|
_AMP0 = 4e-3
_GROWTH = 1.35
_STEP_FLOOR = 1e-4
# the walk's K; a larger K zero-pads the walk's orbit and polishes it once
_K_WALK = 12
# signs of the squares in the Jacobi integral of (x, vx, y, vy, z, vz)
_H_QUAD = np.array([1.0, -1.0, 1.0, -1.0, 0.0, -1.0])
# samples of the variational flow over one period
_N_OUT = 256


class SeedFailure(RuntimeError):
    """A numeric seeding step did not converge."""


# ---------------------------------------------------------------------------
# equilibria and local linear data


def _grad_planar(p, ms, pos):
    x, y = p
    gx, gy = x, y
    for j in range(3):
        dx = x - pos[j][0]
        dy = y - pos[j][1]
        r3 = (dx * dx + dy * dy) ** 1.5
        gx -= ms[j] * dx / r3
        gy -= ms[j] * dy / r3
    return np.array([gx, gy])


def planar_equilibria(cfg) -> np.ndarray:
    """All in-plane rest points, deduplicated and sorted for determinism."""
    ms, pos = numerics.cfg_floats(cfg)
    found = []
    grid = np.linspace(-_EQ_SPAN, _EQ_SPAN, _EQ_GRID)
    for x0 in grid:
        for y0 in grid:
            if min((x0 - p[0]) ** 2 + (y0 - p[1]) ** 2 for p in pos) < 1e-4:
                continue
            sol = optimize.root(_grad_planar, [x0, y0], args=(ms, pos),
                                method="hybr", tol=1e-14)
            if not sol.success:
                continue
            p = sol.x
            if np.max(np.abs(_grad_planar(p, ms, pos))) > 1e-10:
                continue
            if min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for q in pos) < 1e-6:
                continue
            if any(np.hypot(p[0] - f[0], p[1] - f[1]) < 1e-7 for f in found):
                continue
            found.append(p)
    found.sort(key=lambda p: (round(p[0], 9), round(p[1], 9)))
    return np.array(found)


def vertical_frequency(cfg, eq_xy) -> float:
    """Frequency of the linearized out-of-plane oscillation at a rest point."""
    ms, pos = numerics.cfg_floats(cfg)
    x, y = float(eq_xy[0]), float(eq_xy[1])
    s = 0.0
    for j in range(3):
        r2 = (x - pos[j][0]) ** 2 + (y - pos[j][1]) ** 2
        s += ms[j] / r2 ** 1.5
    return float(np.sqrt(s))


def embed_point(cfg, u6) -> np.ndarray:
    """Append the three reciprocal distances to a 6-vector."""
    ms, pos = numerics.cfg_floats(cfg)
    x, y, z = u6[0], u6[2], u6[4]
    w = [1.0 / np.sqrt((x - p[0]) ** 2 + (y - p[1]) ** 2 + z ** 2) for p in pos]
    return np.concatenate([np.asarray(u6, dtype=float), w])


def jacobi_mid(cfg, u9) -> float:
    return float(model.jacobi_embedded([complex(t).real for t in u9], cfg).mid)


# ---------------------------------------------------------------------------
# orbit guesses


def _fourier_from_samples(samples: np.ndarray, K: int) -> np.ndarray:
    """Centered window of 2K-1 coefficients from equispaced period samples."""
    N = samples.shape[-1]
    coef = np.fft.fft(samples, axis=-1) / N
    n = 2 * K - 1
    out = np.zeros(samples.shape[:-1] + (n,), dtype=complex)
    for k in range(-(K - 1), K):
        out[..., K - 1 + k] = coef[..., k % N]
    return out


def orbit_guess_vector(cfg, eq_xy, amp: float, omega: float, K: int):
    """Packed (y, coefficients) guess for a small vertical oscillation."""
    ms, pos = numerics.cfg_floats(cfg)
    N = max(8 * K, 64)
    t = np.arange(N) * (2.0 * np.pi / N)
    x = np.full(N, float(eq_xy[0]))
    y = np.full(N, float(eq_xy[1]))
    z = amp * np.cos(t)
    vz = -amp * omega * np.sin(t)
    zero = np.zeros(N)
    rows = [x, zero, y, zero, z, vz]
    for j in range(3):
        r = np.sqrt((x - pos[j][0]) ** 2 + (y - pos[j][1]) ** 2 + z ** 2)
        rows.append(1.0 / r)
    coeffs = _fourier_from_samples(np.array(rows), K)
    return np.concatenate([np.zeros(4, dtype=complex), coeffs.ravel()])


def _level(g, ms) -> complex:
    """Jacobi integral at an embedded point g, the float form of
    `model.jacobi_embedded`: the sum of _H_QUAD[i] g_i^2 and 2 m_j g_{6+j}."""
    return _H_QUAD @ (g[:6] * g[:6]) + 2.0 * (ms @ g[6:])


def _level_problem(cfg, K: int, H: float, anchor: model.PhaseAnchor):
    """Square system for the orbit of the family on the Jacobi level H.

    The unknowns are (omega, y, A).  Row 0 is H(g) - H at the angle-zero
    point g = sum_k A_k; the other rows are the order-0 map of
    `stages._orbit_residual`, with the frequency free.  The level fixes the
    spot on the family and the phase row fixes time translation.  H(g) is
    real when A is real-symmetric, so Newton started on a real orbit stays on
    the real family.
    """
    ms, pos = numerics.cfg_floats(cfg)
    kv = numerics.kvals(K)
    n = 2 * K - 1

    def residual(z):
        g = z[5:].reshape(9, n).sum(axis=1)
        return np.concatenate([[_level(g, ms) - H],
                               stages._orbit_residual(z[1:], z[0], anchor, K, ms, pos)])

    def jacobian(z):
        A = z[5:].reshape(9, n)
        g = A.sum(axis=1)
        J = np.zeros((len(z), len(z)), dtype=complex)
        # dH/dA_{i,k} = dH/dg_i for every k of component i
        J[0, 5:] = np.repeat(np.concatenate([2.0 * _H_QUAD * g[:6], 2.0 * ms]), n)
        stages._orbit_jacobian(z[1:], z[0], anchor, K, ms, pos, out=J[1:, 1:])
        J[5:, 0] = (-1j * kv * A).ravel()
        return J

    return residual, jacobian


def _walk_level(cfg, eq_xy, H_target: float, K: int):
    """The level walk at K; returns the last solve's (z, anchor).

    It solves the linear guess at amplitude _AMP0 on its own level, then
    steps the level toward H_target: each step is _GROWTH^2 times the last
    (the amplitude grows by about _GROWTH), the step that would pass the
    target lands on it, and a step whose solve diverges is halved.
    """
    ms, _ = numerics.cfg_floats(cfg)
    n = 2 * K - 1
    wz = vertical_frequency(cfg, eq_xy)
    z = np.concatenate([[complex(wz)], orbit_guess_vector(cfg, eq_xy, _AMP0, wz, K)])
    H_eq = _level(embed_point(cfg, [eq_xy[0], 0.0, eq_xy[1], 0.0, 0.0, 0.0]), ms).real
    H = level = _level(z[5:].reshape(9, n).sum(axis=1), ms).real
    step = (H - H_eq) * (_GROWTH ** 2 - 1.0)
    if (H_target - H) * step < 0.0:
        raise SeedFailure("level %r is on the far side of the walk's start %r"
                          % (H_target, H))
    while True:
        anchor = model.PhaseAnchor.from_u0(z[5:].reshape(9, n).sum(axis=1).real, cfg)
        try:
            z = stages.newton_stage(_level_problem(cfg, K, level, anchor), z)
        except numerics.NewtonDivergence:
            step *= 0.5
            if level == H or abs(step) < _STEP_FLOOR * abs(H - H_eq):
                raise SeedFailure("level walk stalled near H = %r" % H)
        else:
            if level == H_target:
                return z, anchor
            H, step = level, step * _GROWTH ** 2
        level = H_target if (H + step - H_target) * step >= 0.0 else H + step


def orbit_to_jacobi(cfg, eq_xy, H_target: float, K: int, nu: float):
    """Member of the vertical family on a Jacobi level; returns (sol, H).

    The level walk (`_walk_level`) runs at Kw = min(K, _K_WALK).  For K > Kw
    its orbit is zero-padded to K, the phase anchor is taken afresh at the
    padded orbit's angle-zero point, and one Newton solve of the level system
    at K polishes it.  The dropped modes are small enough for that: on the
    reference orbit the coefficients fall about 3.6x per mode, from
    |a_12| ~ 7e-8 to |a_23| ~ 1e-14, so the padded guess lies well inside the
    quadratic basin and the polish takes two Jacobians at K = 24, 40 and 64.
    The last solve is the orbit; its scalars are real up to rounding, which
    is dropped.
    """
    Kw = min(K, _K_WALK)
    z, anchor = _walk_level(cfg, eq_xy, H_target, Kw)
    if K > Kw:
        pad = K - Kw
        A = np.pad(z[5:].reshape(9, 2 * Kw - 1), ((0, 0), (pad, pad)))
        z = np.concatenate([z[:5], A.ravel()])
        anchor = model.PhaseAnchor.from_u0(A.sum(axis=1).real, cfg)
        try:
            z = stages.newton_stage(_level_problem(cfg, K, H_target, anchor), z)
        except numerics.NewtonDivergence as exc:
            raise SeedFailure("level polish at K=%d from the K=%d walk diverged: %s"
                              % (K, Kw, exc)) from exc
    n = 2 * K - 1
    sol = stages.OrbitSolution(float(z[0].real), K, nu, anchor, z[1:5].real + 0j,
                               z[5:].reshape(9, n).copy())
    return sol, jacobi_mid(cfg, sol.coeffs.sum(axis=1).real)


# ---------------------------------------------------------------------------
# Floquet data from the variational flow


def _hessU(p, ms, pos):
    x, y, z = p
    H = np.zeros((3, 3))
    for j in range(3):
        d = np.array([x - pos[j][0], y - pos[j][1], z])
        r2 = d @ d
        r3 = r2 ** 1.5
        r5 = r2 ** 2.5
        H += ms[j] * (3.0 * np.outer(d, d) / r5 - np.eye(3) / r3)
    return H


def _field6(u, ms, pos):
    x, vx, y, vy, z, vz = u
    ax, ay, az = x, y, 0.0
    for j in range(3):
        d = np.array([x - pos[j][0], y - pos[j][1], z])
        r3 = (d @ d) ** 1.5
        ax -= ms[j] * d[0] / r3
        ay -= ms[j] * d[1] / r3
        az -= ms[j] * d[2] / r3
    return np.array([vx, ax + 2.0 * vy, vy, ay - 2.0 * vx, vz, az])


def _jac6(u, ms, pos):
    J = np.zeros((6, 6))
    J[::2, 1::2] = np.eye(3)
    J[1::2, ::2] = _hessU((u[0], u[2], u[4]), ms, pos) + np.diag([1.0, 1.0, 0.0])
    J[1, 3], J[3, 1] = 2.0, -2.0
    return J


def _flow_with_variation(cfg, u0six, T: float):
    ms, pos = numerics.cfg_floats(cfg)

    def rhs(t, yv):
        u = yv[:6]
        Phi = yv[6:].reshape(6, 6)
        du = _field6(u, ms, pos)
        dPhi = _jac6(u, ms, pos) @ Phi
        return np.concatenate([du, dPhi.ravel()])

    y0 = np.concatenate([u0six, np.eye(6).ravel()])
    ts = np.linspace(0.0, T, _N_OUT)
    out = integrate.solve_ivp(rhs, (0.0, T), y0, method="DOP853",
                              rtol=3e-13, atol=1e-13, t_eval=ts,
                              dense_output=False)
    if not out.success:
        raise SeedFailure("variational integration failed: %s" % out.message)
    return ts, out.y


def monodromy(cfg, sol: stages.OrbitSolution):
    """Time grid, state samples, and transition matrices over one period."""
    u0 = sol.coeffs.sum(axis=1).real[:6]
    T = 2.0 * np.pi / sol.omega
    ts, Y = _flow_with_variation(cfg, u0, T)
    states = Y[:6]
    Phis = Y[6:].reshape(6, 6, -1)
    return ts, states, Phis


def floquet_exponents(cfg, sol: stages.OrbitSolution):
    """(lambda_stable, lambda_unstable, M, data) from the monodromy matrix."""
    ts, states, Phis = monodromy(cfg, sol)
    M = Phis[:, :, -1]
    T = 2.0 * np.pi / sol.omega
    mus, vecs = np.linalg.eig(M)
    order = np.argsort(np.abs(mus))
    i_s, i_u = order[0], order[-1]
    if abs(mus[i_u]) < 1.0 + 1e-6 or abs(mus[i_s]) > 1.0 - 1e-6:
        raise SeedFailure("monodromy spectrum has no hyperbolic pair: %r" % mus)
    lam_s = np.log(mus[i_s]) / T
    lam_u = np.log(mus[i_u]) / T
    data = (ts, states, Phis, vecs[:, i_s], vecs[:, i_u])
    return complex(lam_s), complex(lam_u), M, data


def bundle_guess(cfg, sol: stages.OrbitSolution, kind: str, k0: int,
                 xi0: float):
    """(lambda, coefficient guess) for the stable or unstable Floquet bundle."""
    lam_s, lam_u, _, data = floquet_exponents(cfg, sol)
    ts, states, Phis, v_s, v_u = data
    lam, v0 = (lam_s, v_s) if kind == "stable" else (lam_u, v_u)
    ms, pos = numerics.cfg_floats(cfg)
    n_t = len(ts) - 1
    samp = np.zeros((9, n_t), dtype=complex)
    for it in range(n_t):
        u = states[:, it]
        dv = np.exp(-lam * ts[it]) * (Phis[:, :, it] @ v0)
        x, y, z = u[0], u[2], u[4]
        samp[:6, it] = dv
        for j in range(3):
            dxj = x - pos[j][0]
            dyj = y - pos[j][1]
            w = 1.0 / np.sqrt(dxj * dxj + dyj * dyj + z * z)
            samp[6 + j, it] = -w ** 3 * (dxj * dv[0] + dyj * dv[2] + z * dv[4])
    coeffs = _fourier_from_samples(samp, sol.K)
    K = sol.K
    S = coeffs[:, K - k0:K + k0 - 1].sum(axis=1)
    scale = np.sqrt(complex(xi0) / np.sum(S * S))
    coeffs *= scale
    return complex(lam), coeffs
