"""Deterministic numeric seeds for the certified stages.

Everything here is plain floating point: planar equilibria of the rotating
frame, the vertical linear frequency, small-amplitude vertical orbit guesses,
an amplitude-pinned walk along the family with the frequency as an unknown,
and Floquet data from the monodromy matrix of the six-dimensional
variational flow.  The certified stages consume
these guesses; nothing in this module is trusted by the validators.

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
    "walk_family",
    "orbit_to_omega",
    "orbit_to_jacobi",
    "monodromy",
    "floquet_exponents",
    "bundle_guess",
    "SeedFailure",
]


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


def planar_equilibria(cfg, span: float = 1.6, n_grid: int = 13) -> np.ndarray:
    """All in-plane rest points, deduplicated and sorted for determinism."""
    ms, pos = numerics.cfg_floats(cfg)
    found = []
    grid = np.linspace(-span, span, n_grid)
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


def _anchor_from_coeffs(cfg, coeffs: np.ndarray) -> model.PhaseAnchor:
    u0 = coeffs.sum(axis=1).real
    return model.PhaseAnchor.from_u0(tuple(float(t) for t in u0), cfg)


def _pinned_problem(cfg, K: int, amp: float, anchor: model.PhaseAnchor):
    """Square system for the family walk: unknowns (omega, y, A).

    The complex pin a_{z,1} = amp/2 fixes the spot on the family that the
    free frequency opens up; the phase row still fixes time translation.
    Both must stay (holomorphic unknowns double the continuous families, so
    one complex condition each is needed for the shift and the family
    parameter or the Jacobian turns structurally singular).
    """
    ms, pos = numerics.cfg_floats(cfg)
    kv = numerics.kvals(K)
    n = 2 * K - 1
    N = 5 + 9 * n

    def residual(z):
        pin = z[5 + 4 * n + K] - amp / 2.0
        return np.concatenate(
            [[pin], stages._orbit_residual(z[1:], z[0], anchor, K, ms, pos)])

    def jacobian(z):
        J = np.zeros((N, N), dtype=complex)
        J[0, 5 + 4 * n + K] = 1.0
        stages._orbit_jacobian(z[1:], z[0], anchor, K, ms, pos, out=J[1:, 1:])
        J[5:, 0] = (-1j * kv * z[5:].reshape(9, n)).ravel()
        return J

    return residual, jacobian


def _solve_pinned(cfg, K: int, amp: float, guess: np.ndarray,
                  tol: float = 1e-12):
    n = 2 * K - 1
    anchor = _anchor_from_coeffs(cfg, guess[5:].reshape(9, n))
    residual, jacobian = _pinned_problem(cfg, K, amp, anchor)
    return numerics.newton_polish(residual, jacobian, guess, tol=tol)


def _pinned_guess(cfg, eq_xy, amp: float, K: int) -> np.ndarray:
    wz = vertical_frequency(cfg, eq_xy)
    g = orbit_guess_vector(cfg, eq_xy, amp, wz, K)
    return np.concatenate([[complex(wz)], np.zeros(4, dtype=complex), g[4:]])


def walk_family(cfg, eq_xy, K: int, stop, amp0: float = 4e-3,
                growth: float = 1.35, amp_max: float = 2.5,
                tol: float = 1e-12):
    """Walk the vertical family outward in amplitude until stop(...) crosses.

    stop maps (omega, coeffs) to a signed scalar; the walk returns the
    bracketing states ((amp_a, z_a), (amp_b, z_b)) where the sign changed.
    """
    amp = amp0
    z = _solve_pinned(cfg, K, amp, _pinned_guess(cfg, eq_xy, amp, K), tol)
    n = 2 * K - 1
    val = stop(z[0].real, z[5:].reshape(9, n))
    prev = (amp, z, val)
    while amp < amp_max:
        amp_next = amp * growth
        try:
            z_next = _solve_pinned(cfg, K, amp_next, z.copy(), tol)
        except numerics.NewtonDivergence:
            growth = 1.0 + (growth - 1.0) * 0.5
            if growth < 1.0 + 1e-4:
                raise SeedFailure("family walk stalled near amplitude %r" % amp)
            continue
        val_next = stop(z_next[0].real, z_next[5:].reshape(9, n))
        if val * val_next <= 0.0:
            return prev, (amp_next, z_next, val_next)
        amp, z, val = amp_next, z_next, val_next
        prev = (amp, z, val)
    raise SeedFailure("family walk hit the amplitude cap without a crossing")


def _refine_crossing(cfg, K: int, a, b, stop, tol_val: float,
                     tol: float = 1e-12, itmax: int = 80):
    (amp_a, z_a, v_a), (amp_b, z_b, v_b) = a, b
    n = 2 * K - 1
    for _ in range(itmax):
        if abs(v_b) < tol_val:
            return amp_b, z_b
        if abs(v_a) < tol_val:
            return amp_a, z_a
        amp_m = amp_a + (amp_b - amp_a) * 0.5
        z_m = _solve_pinned(cfg, K, amp_m, z_a.copy(), tol)
        v_m = stop(z_m[0].real, z_m[5:].reshape(9, n))
        if v_a * v_m <= 0.0:
            amp_b, z_b, v_b = amp_m, z_m, v_m
        else:
            amp_a, z_a, v_a = amp_m, z_m, v_m
    return amp_b, z_b


def _freeze(cfg, omega: float, z: np.ndarray, K: int, nu: float,
            tol: float = 1e-13) -> stages.OrbitSolution:
    """Re-anchor and polish at a fixed frequency; the certified formulation."""
    coeffs = z[5:].reshape(9, 2 * K - 1)
    anchor = _anchor_from_coeffs(cfg, coeffs)
    guess = np.concatenate([np.zeros(4, dtype=complex), coeffs.ravel()])
    prob = stages.orbit_problem(cfg, float(omega), anchor, K, nu, tol=tol)
    zz = stages.newton_stage(prob, guess)
    return stages.OrbitSolution(float(omega), K, nu, anchor, zz[:4].copy(),
                                zz[4:].reshape(9, 2 * K - 1).copy())


def orbit_to_omega(cfg, eq_xy, omega_target: float, K: int, nu: float,
                   tol: float = 1e-13) -> stages.OrbitSolution:
    """Member of the vertical family with the given frequency, re-anchored."""

    def stop(w_, coeffs):
        return w_ - omega_target

    a, b = walk_family(cfg, eq_xy, K, stop)
    _, z = _refine_crossing(cfg, K, a, b, stop, tol_val=1e-13)
    return _freeze(cfg, omega_target, z, K, nu, tol)


def orbit_to_jacobi(cfg, eq_xy, H_target: float, K: int, nu: float,
                    tol: float = 1e-13):
    """Member of the vertical family at a Jacobi level; returns (sol, H)."""

    def stop(w_, coeffs):
        u0 = coeffs.sum(axis=1).real
        return jacobi_mid(cfg, u0) - H_target

    a, b = walk_family(cfg, eq_xy, K, stop)
    _, z = _refine_crossing(cfg, K, a, b, stop, tol_val=1e-12)
    sol = _freeze(cfg, float(z[0].real), z, K, nu, tol)
    u0 = sol.coeffs.sum(axis=1).real
    return sol, jacobi_mid(cfg, u0)


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
    x, _, y, _, z, _ = u
    H = _hessU((x, y, z), ms, pos)
    J = np.zeros((6, 6))
    J[0, 1] = 1.0
    J[2, 3] = 1.0
    J[4, 5] = 1.0
    J[1, 0] = 1.0 + H[0, 0]
    J[1, 2] = H[0, 1]
    J[1, 4] = H[0, 2]
    J[1, 3] = 2.0
    J[3, 0] = H[1, 0]
    J[3, 2] = 1.0 + H[1, 1]
    J[3, 4] = H[1, 2]
    J[3, 1] = -2.0
    J[5, 0] = H[2, 0]
    J[5, 2] = H[2, 1]
    J[5, 4] = H[2, 2]
    return J


def _flow_with_variation(cfg, u0six, T: float, n_out: int):
    ms, pos = numerics.cfg_floats(cfg)

    def rhs(t, yv):
        u = yv[:6]
        Phi = yv[6:].reshape(6, 6)
        du = _field6(u, ms, pos)
        dPhi = _jac6(u, ms, pos) @ Phi
        return np.concatenate([du, dPhi.ravel()])

    y0 = np.concatenate([u0six, np.eye(6).ravel()])
    ts = np.linspace(0.0, T, n_out)
    out = integrate.solve_ivp(rhs, (0.0, T), y0, method="DOP853",
                              rtol=3e-13, atol=1e-13, t_eval=ts,
                              dense_output=False)
    if not out.success:
        raise SeedFailure("variational integration failed: %s" % out.message)
    return ts, out.y


def monodromy(cfg, sol: stages.OrbitSolution, n_out: int = 256):
    """Time grid, state samples, and transition matrices over one period."""
    u0 = sol.coeffs.sum(axis=1).real[:6]
    T = 2.0 * np.pi / sol.omega
    ts, Y = _flow_with_variation(cfg, u0, T, n_out)
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
