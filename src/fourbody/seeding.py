"""Deterministic numeric seeds for the certified stages.

Everything here is plain floating point: planar equilibria of the rotating
frame, the vertical linear frequency, small-amplitude vertical orbit guesses,
the phase anchor of an orbit (the embedded field at its angle-zero point, in
the float lane `numerics.field_grid`), a continuation of that family to a
Jacobi level (one square Newton system with H - H_target as a row), and
Floquet data from the Hill matrix: the window block of the operator that
the bundle stage inverts, cropped to a few modes, whose eigenpair in the
strip |Im lambda| < omega / 2 seeds (lambda, a_1).  The certified stages
consume these guesses; nothing in this module is trusted by the validators.

The continuation is a secant predictor-corrector in sigma = sqrt|H - H_eq|,
about the orbit's amplitude: near the equilibrium the family is a square
root in H, and smooth in sigma.  It walks at a coarse truncation, at most
_K_WALK modes, whatever K the stages use.  Its orbit is then zero-padded to
K and polished by one Newton solve of the level system at K.  The orbit's
modes decay fast enough that the padded guess is already near the solution
at K.  On the reference level (H_eq - 0.3) seeding costs five small solves
of 2-4 Newton steps each and a polish of two steps at K: 17 Jacobians.

State ordering matches the polynomial embedding: (x, vx, y, vy, z, vz) plus
the three reciprocal distances in slots 6..8.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from . import model, numerics, stages

__all__ = [
    "planar_equilibria",
    "vertical_frequency",
    "embed_point",
    "jacobi_mid",
    "phase_anchor",
    "orbit_guess_vector",
    "orbit_to_jacobi",
    "bundle_guess",
    "SeedFailure",
]


# rest points are searched from a grid of _EQ_GRID^2 starts on [-_EQ_SPAN, _EQ_SPAN]^2
_EQ_SPAN = 1.6
_EQ_GRID = 13
# the level walk: amplitude of the start guess, growth of the step in
# sigma = sqrt|H - H_eq| per converged solve (the first step is
# _SIGMA_GROWTH times the start's sigma); the walk stalls once a halved
# sigma-step is below _STEP_FLOOR times sigma.  A growth of 3 jumped to
# another symmetric orbit of the same level for the masses 2/5, 33/100,
# 27/100 (rest point 5, level H_eq - 1), which steps of 2.5 do not.
_AMP0 = 4e-3
_SIGMA_GROWTH = 2.5
_STEP_FLOOR = 1e-4
# the walk's K; a larger K zero-pads the walk's orbit and polishes it once
_K_WALK = 12
# signs of the squares in the Jacobi integral of (x, vx, y, vy, z, vz)
_H_QUAD = np.array([1.0, -1.0, 1.0, -1.0, 0.0, -1.0])


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
    """In-plane rest points found by hybr solves from a 13 x 13 grid of
    starts, deduplicated and sorted for determinism.

    The search can miss one: for the masses 1/2, 3/10, 1/5 it misses the
    rest point near (0.0657, 0.3233), so an index into the result names a
    rest point of this search, not of the complete set.
    """
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
    """Jacobi integral at the real part of an embedded 9-vector (`_level`)."""
    ms, _ = numerics.cfg_floats(cfg)
    return float(_level(np.real(u9), ms))


def phase_anchor(cfg, u0) -> model.PhaseAnchor:
    """The anchor at the real 9-vector u0: u1 is the embedded field there,
    `numerics.field_grid` on grids of one mode."""
    ms, pos = numerics.cfg_floats(cfg)
    F = numerics.field_grid([{(0, 0): np.array([t], dtype=complex)} for t in u0],
                            ms, pos, 0)
    return model.PhaseAnchor(tuple(u0), tuple(f[(0, 0)][0].real for f in F))


# ---------------------------------------------------------------------------
# orbit guesses


def orbit_guess_vector(cfg, eq_xy, amp: float, omega: float, K: int):
    """Packed (y, coefficients) guess for a small vertical oscillation."""
    _, pos = numerics.cfg_floats(cfg)
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
    # the window of the samples' Fourier coefficients, N >= 2K - 1 of them
    coeffs = np.fft.fft(np.array(rows), axis=-1)[:, numerics.kvals(K) % N] / N
    return np.concatenate([np.zeros(4, dtype=complex), coeffs.ravel()])


def _level(g, ms) -> complex:
    """Jacobi integral at an embedded point g, the polynomial sum of
    _H_QUAD[i] g_i^2 and 2 m_j g_{6+j}."""
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
    walks toward H_target in sigma = sqrt|H - H_eq|, about the orbit's
    amplitude, in which the family is smooth where it is a square root in
    H.  Each guess is the secant through the last two solved orbits,
    extended by the sigma-step; the first secant starts at the equilibrium,
    the guess at amplitude 0 and sigma 0.  The step grows _SIGMA_GROWTH
    times after a converged solve and is halved after a diverged one; the
    step that would pass the target lands on H_target itself.  Every solve
    is to NEWTON_TOL.  On the reference level H_eq - 0.3 sigma goes 0.010
    (the start), 0.036, 0.100, 0.261 and 0.548 (the level), with 2, 3, 3, 3
    and 4 Newton steps: 15 Jacobians.
    """
    ms, _ = numerics.cfg_floats(cfg)
    n = 2 * K - 1
    wz = vertical_frequency(cfg, eq_xy)
    z_eq, z = (np.concatenate([[complex(wz)], orbit_guess_vector(cfg, eq_xy, amp, wz, K)])
               for amp in (0.0, _AMP0))
    H_eq = _level(embed_point(cfg, [eq_xy[0], 0.0, eq_xy[1], 0.0, 0.0, 0.0]), ms).real
    H = level = _level(z[5:].reshape(9, n).sum(axis=1), ms).real
    if (H_target - H) * (H - H_eq) < 0.0:
        raise SeedFailure("level %r is on the far side of the walk's start %r"
                          % (H_target, H))
    sign, sigma_target = np.sign(H - H_eq), np.sqrt(abs(H_target - H_eq))
    # the last two solved orbits (sigma, z); the first is the equilibrium
    prev = cur = (0.0, z_eq)
    sigma = step = np.sqrt(abs(H - H_eq))
    while True:
        anchor = phase_anchor(cfg, z[5:].reshape(9, n).sum(axis=1).real)
        try:
            z = stages.newton_stage(_level_problem(cfg, K, level, anchor), z)
        except numerics.NewtonDivergence:
            step *= 0.5
            if cur[0] == 0.0 or step < _STEP_FLOOR * cur[0]:
                raise SeedFailure("level walk stalled near H = %r" % H)
        else:
            if level == H_target:
                return z, anchor
            H, prev, cur, step = level, cur, (sigma, z), step * _SIGMA_GROWTH
        (s0, z0), (s1, z1) = prev, cur
        sigma = min(s1 + step, sigma_target)
        level = H_target if sigma == sigma_target else H_eq + sign * sigma ** 2
        z = z1 + (z1 - z0) * ((sigma - s1) / (s1 - s0))


def orbit_to_jacobi(cfg, eq_xy, H_target: float, K: int, nu: float):
    """Member of the vertical family on a Jacobi level; returns (sol, H).

    The level walk (`_walk_level`) runs at Kw = min(K, _K_WALK); on the
    reference level it takes 15 Jacobians at Kw.  For K > Kw its orbit is
    zero-padded to K, the phase anchor is taken afresh at the padded orbit's
    angle-zero point, and one Newton solve of the level system at K polishes
    it.  The dropped modes are small enough for that: on the reference orbit
    the coefficients fall about 3.6x per mode, from |a_12| ~ 7e-8 to
    |a_23| ~ 1e-14, so the padded guess lies well inside the quadratic basin
    and the polish takes two Jacobians at K = 24, 40 and 64.
    The last solve is the orbit; its scalars are real up to rounding, which
    is dropped.
    """
    Kw = min(K, _K_WALK)
    z, anchor = _walk_level(cfg, eq_xy, H_target, Kw)
    if K > Kw:
        pad = K - Kw
        A = np.pad(z[5:].reshape(9, 2 * Kw - 1), ((0, 0), (pad, pad)))
        z = np.concatenate([z[:5], A.ravel()])
        anchor = phase_anchor(cfg, A.sum(axis=1).real)
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
# Floquet data from the Hill matrix


def bundle_guess(cfg, sol: stages.OrbitSolution, kind: str, k0: int,
                 xi0: float):
    """(lambda, coefficient guess) for the stable or unstable Floquet bundle.

    The Hill matrix B is the window block of the bundle stage's operator
    h -> DF(a0) h - i omega k h, cropped to Kh = min(K, _K_WALK) modes.  Its
    cos/sin form (`stages._cos_sin_form`) with the pair rows halved is
    T^-1 B T, real for a real orbit, so one real eig gives the spectrum.  It
    repeats as lambda + i omega j, and truncation spoils the copies far from
    the strip |Im lambda| < omega / 2: lambda is the eigenvalue in the strip
    with the largest real part ("unstable") or the smallest ("stable").  Its
    eigenvector, carried back by T, is zero-padded to K and scaled to xi0;
    `stages.start_jet_table` polishes both at K.
    """
    K, Kh = sol.K, min(sol.K, _K_WALK)
    ms, pos = numerics.cfg_floats(cfg)
    const, kers = numerics.derivative_kernels(sol.coeffs, ms, pos)
    B = numerics.base_block(const, kers, Kh, -1j * sol.omega * numerics.kvals(Kh))
    M, _ = stages._cos_sin_form(B, 0, Kh)
    for rows in stages._pairs(M, 0, Kh, 0)[:2]:
        rows *= 0.5
    lams, vecs = np.linalg.eig(M)
    strip = np.flatnonzero(np.abs(lams.imag) < 0.5 * sol.omega)
    i_s = strip[np.argmin(lams.real[strip])]
    i_u = strip[np.argmax(lams.real[strip])]
    # the multipliers exp(lambda T) of the flow must leave the unit circle
    T = 2.0 * np.pi / sol.omega
    if lams[i_u].real * T < np.log1p(1e-6) or lams[i_s].real * T > np.log1p(-1e-6):
        raise SeedFailure("Hill spectrum has no hyperbolic pair: %r" % lams[strip])
    i = i_s if kind == "stable" else i_u
    c, s, zero = stages._pairs(vecs[:, i:i + 1], 0, Kh, 0)
    h = np.empty((len(vecs), 1), dtype=complex)
    hp, hm, h0 = stages._pairs(h, 0, Kh, 0)
    hp[...], hm[...], h0[...] = c + 1j * s, c - 1j * s, zero
    coeffs = np.pad(h.reshape(9, 2 * Kh - 1), ((0, 0), (K - Kh, K - Kh)))
    S = coeffs[:, K - k0:K + k0 - 1].sum(axis=1)
    scale = np.sqrt(complex(xi0) / np.sum(S * S))
    coeffs *= scale
    return complex(lams[i]), coeffs
