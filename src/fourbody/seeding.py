"""Deterministic numeric seeds for the certified stages.

Everything here is plain floating point: planar equilibria of the rotating
frame, the vertical linear frequency, small-amplitude vertical orbit guesses,
the phase anchor of an orbit (the embedded field at its angle-zero point, in
the float lane `numerics.field_grid`), a continuation of that family to a
Jacobi level (one square Newton system with H - H_target as a row), and
Floquet data from the Hill matrix: the window block of the operator that
the bundle stage inverts, cropped to a few modes, whose real eigenpair in
the strip |Im lambda| < omega / 2 seeds (lambda, a_1); a complex one is a
SeedFailure, since the stages take a real Floquet exponent.  The certified
stages consume these guesses; nothing in this module is trusted by the
validators.

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
from .opbound import SpaceLayout, cos_sin_form, from_cos_sin_rows, run_pairs, window_runs

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
# sigma-step is below _STEP_FLOOR times sigma.  A converged solve whose
# correction is longer than _CORRECTOR_RATIO times its predictor step left
# the family and counts as diverged: with a growth of 3 the corrector moved
# 1.08 times the predictor step and landed on another symmetric orbit of the
# same level (masses 2/5, 33/100, 27/100, rest point 5, level H_eq - 1),
# where the walk of growth 2.5 moves at most 0.76 times it, and the
# reference walk at most 0.56 times.
_AMP0 = 4e-3
_SIGMA_GROWTH = 2.5
_STEP_FLOOR = 1e-4
_CORRECTOR_RATIO = 0.9
# the walk's K; a larger K zero-pads the walk's orbit and polishes it once
_K_WALK = 12
# a rest point whose planar Hessian has eigenvalues this close, relative, is
# isotropic and has no seed
_ISOTROPY = 1e-9
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


def _planar_hessian(p, ms, pos) -> np.ndarray:
    """The Jacobian of `_grad_planar` at p: the Hessian of the planar
    potential of the rotating frame."""
    H = np.eye(2)
    for j in range(3):
        d = np.array([p[0] - pos[j][0], p[1] - pos[j][1]])
        r2 = d @ d
        H += ms[j] * (3.0 * np.outer(d, d) / r2 ** 2.5 - np.eye(2) / r2 ** 1.5)
    return H


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
    """Packed (y, coefficients) guess for a small vertical oscillation, in
    class +1 of the half-period reflection Q: the modes off it are zero."""
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
    layout = SpaceLayout(0, K, 1)
    A = layout.unpack(layout.pack((), coeffs))[1]
    return np.concatenate([np.zeros(4, dtype=complex), A.ravel()])


def _level(g, ms) -> complex:
    """Jacobi integral at an embedded point g, the polynomial sum of
    _H_QUAD[i] g_i^2 and 2 m_j g_{6+j}."""
    return _H_QUAD @ (g[:6] * g[:6]) + 2.0 * (ms @ g[6:])


def _level_problem(cfg, layout: SpaceLayout, H: float, anchor: model.PhaseAnchor):
    """Square system for the orbit of the family on the Jacobi level H.

    The unknowns are (omega, y, A), packed on `layout`, five scalars and
    class +1 of Q, where the orbit lies (`stages`).  Row 0 is H(g) - H at
    the angle-zero point g = sum_k A_k; the other rows are the order-0 map
    of `stages._orbit_residual`, with the frequency free.  The level fixes
    the spot on the family and the phase row fixes time translation.  H(g)
    is real when A is real-symmetric, so Newton started on a real orbit
    stays on the real family.
    """
    ms, pos = numerics.cfg_floats(cfg)
    orbit = SpaceLayout(4, layout.K, layout.cls)

    def residual(z):
        g = layout.unpack(z)[1].sum(axis=1)
        return np.concatenate([[_level(g, ms) - H],
                               stages._orbit_residual(z[1:], z[0], anchor, orbit, ms, pos)])

    def jacobian(z):
        A = layout.unpack(z)[1]
        g = A.sum(axis=1)
        J = np.zeros((len(z), len(z)), dtype=complex)
        # dH/dA_{i,k} = dH/dg_i for every k of component i
        for i, dg in enumerate(np.concatenate([2.0 * _H_QUAD * g[:6], 2.0 * ms])):
            J[0, layout.slices[5 + i]] = dg
        stages._orbit_jacobian(z[1:], z[0], anchor, orbit, ms, pos, out=J[1:, 1:])
        J[5:, 0] = layout.pack((), -1j * numerics.kvals(layout.K) * A)
        return J

    return residual, jacobian


def _walk_level(cfg, eq_xy, H_target: float, layout: SpaceLayout):
    """The level walk on `layout`, the unknowns of `_level_problem` at the
    walk's K; returns the last solve's (z, anchor).

    It solves the linear guess at amplitude _AMP0 on its own level, then
    walks toward H_target in sigma = sqrt|H - H_eq|, about the orbit's
    amplitude, in which the family is smooth where it is a square root in
    H.  Each guess is the secant through the last two solved orbits,
    extended by the sigma-step; the first secant starts at the equilibrium,
    the guess at amplitude 0 and sigma 0.  The step grows _SIGMA_GROWTH
    times after a converged solve and is halved after a diverged one; the
    step that would pass the target lands on H_target itself.  A solve that
    converges farther from its guess than _CORRECTOR_RATIO times the
    predictor step (guess minus the last orbit) jumped off the family and
    counts as diverged.  Every solve is to NEWTON_TOL.  On the reference level H_eq - 0.3 sigma goes 0.010
    (the start), 0.036, 0.100, 0.261 and 0.548 (the level), with 2, 3, 3, 3
    and 4 Newton steps: 15 Jacobians.
    """
    ms, _ = numerics.cfg_floats(cfg)
    wz = vertical_frequency(cfg, eq_xy)
    z_eq, z = (layout.pack(np.concatenate([[complex(wz)], v[:4]]), v[4:].reshape(9, -1))
               for v in (orbit_guess_vector(cfg, eq_xy, amp, wz, layout.K)
                         for amp in (0.0, _AMP0)))
    H_eq = _level(embed_point(cfg, [eq_xy[0], 0.0, eq_xy[1], 0.0, 0.0, 0.0]), ms).real
    H = level = _level(layout.unpack(z)[1].sum(axis=1), ms).real
    if (H_target - H) * (H - H_eq) < 0.0:
        raise SeedFailure("level %r is on the far side of the walk's start %r"
                          % (float(H_target), float(H)))
    sign, sigma_target = np.sign(H - H_eq), np.sqrt(abs(H_target - H_eq))
    # the last two solved orbits (sigma, z); the first is the equilibrium
    prev = cur = (0.0, z_eq)
    sigma = step = np.sqrt(abs(H - H_eq))
    while True:
        anchor = phase_anchor(cfg, layout.unpack(z)[1].sum(axis=1).real)
        guess = z
        try:
            z = stages.newton_stage(_level_problem(cfg, layout, level, anchor), z)
            # the start solve has no predictor step
            if cur[0] != 0.0 and (np.linalg.norm(z - guess)
                                  > _CORRECTOR_RATIO * np.linalg.norm(guess - cur[1])):
                raise numerics.NewtonDivergence("the corrector left the family")
        except numerics.NewtonDivergence:
            step *= 0.5
            if cur[0] == 0.0 or step < _STEP_FLOOR * cur[0]:
                raise SeedFailure("level walk stalled near H = %r" % float(H))
        else:
            if level == H_target:
                return z, anchor
            H, prev, cur, step = level, cur, (sigma, z), step * _SIGMA_GROWTH
        (s0, z0), (s1, z1) = prev, cur
        sigma = min(s1 + step, sigma_target)
        level = H_target if sigma == sigma_target else H_eq + sign * sigma ** 2
        z = z1 + (z1 - z0) * ((sigma - s1) / (s1 - s0))


@numerics.one_blas_thread()
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

    A rest point whose planar Hessian is isotropic, its two eigenvalues
    equal to within _ISOTROPY relative (the centroid of equal masses), is
    refused before the walk: there the start solve of the walk diverges at
    every amplitude tried.
    """
    ms, pos = numerics.cfg_floats(cfg)
    lo, hi = np.linalg.eigvalsh(_planar_hessian(eq_xy, ms, pos))
    if hi - lo <= _ISOTROPY * max(abs(lo), abs(hi)):
        raise SeedFailure("the planar Hessian at the rest point (%r, %r) is isotropic: "
                          "its eigenvalues %r and %r agree to %g relative, and the level "
                          "walk cannot start there"
                          % (float(eq_xy[0]), float(eq_xy[1]), float(lo), float(hi),
                             _ISOTROPY))
    Kw = min(K, _K_WALK)
    walk, layout = SpaceLayout(5, Kw, 1), SpaceLayout(5, K, 1)
    z, anchor = _walk_level(cfg, eq_xy, H_target, walk)
    if K > Kw:
        pad = K - Kw
        A = np.pad(walk.unpack(z)[1], ((0, 0), (pad, pad)))
        z = layout.pack(z[:5], A)
        anchor = phase_anchor(cfg, A.sum(axis=1).real)
        try:
            z = stages.newton_stage(_level_problem(cfg, layout, H_target, anchor), z)
        except numerics.NewtonDivergence as exc:
            raise SeedFailure("level polish at K=%d from the K=%d walk diverged: %s"
                              % (K, Kw, exc)) from exc
    sol = stages.OrbitSolution(float(z[0].real), K, nu, anchor, z[1:5].real + 0j,
                               layout.unpack(z)[1])
    return sol, jacobi_mid(cfg, sol.coeffs.sum(axis=1).real)


# ---------------------------------------------------------------------------
# Floquet data from the Hill matrix


@numerics.one_blas_thread()
def bundle_guess(cfg, sol: stages.OrbitSolution, kind: str, k0: int,
                 xi0: float):
    """(lambda, coefficient guess) for the stable or unstable Floquet bundle:
    a real eigenpair seeds (lambda, a_1), lambda a float.

    The Hill matrix B is the window block of the bundle stage's operator
    h -> DF(a0) h - i omega k h, cropped to Kh = min(K, _K_WALK) modes.  B
    maps each class of Q to itself (`stages`), and the cos/sin form of a
    class block (`opbound.cos_sin_form`) with the pair rows halved is
    T^-1 B T, real for a real orbit: two real eigs of half the size give the
    spectrum.  It repeats as lambda + i omega j, and truncation spoils the
    copies far from the strip |Im lambda| < omega / 2: lambda is the
    eigenvalue in the strip, of either class, with the largest real part
    ("unstable") or the smallest ("stable"), and a SeedFailure if it is not
    real.  Its eigenvector, carried back by T (`opbound.from_cos_sin_rows`),
    lies in its class; it is zero-padded to K and scaled to xi0, and
    `stages.start_jet_table` polishes both at K.
    """
    stages._check_kind(kind)
    K, Kh = sol.K, min(sol.K, _K_WALK)
    ms, pos = numerics.cfg_floats(cfg)
    const, kers = numerics.derivative_kernels(sol.coeffs, ms, pos)
    diag = -1j * sol.omega * numerics.kvals(Kh)
    spectra = []
    for cls in (1, -1):
        layout = SpaceLayout(0, Kh, cls)
        M, _ = cos_sin_form(numerics.base_block(const, kers, layout, diag), layout)
        for run in window_runs(layout):
            for rows in run_pairs(M, *run, 0)[:2]:
                rows *= 0.5
        lams, vecs = np.linalg.eig(M)
        spectra += [(lam, layout, vecs[:, j]) for j, lam in enumerate(lams)]
    lams = np.array([t[0] for t in spectra])
    strip = np.flatnonzero(np.abs(lams.imag) < 0.5 * sol.omega)
    i_s = strip[np.argmin(lams.real[strip])]
    i_u = strip[np.argmax(lams.real[strip])]
    # the multipliers exp(lambda T) of the flow must leave the unit circle
    T = 2.0 * np.pi / sol.omega
    if lams[i_u].real * T < np.log1p(1e-6) or lams[i_s].real * T > np.log1p(-1e-6):
        raise SeedFailure("Hill spectrum has no hyperbolic pair: %r" % lams[strip])
    i = i_s if kind == "stable" else i_u
    if lams[i].imag != 0.0:
        raise SeedFailure("the %s Floquet exponent %r is not real"
                          % (kind, complex(lams[i])))
    _, layout, vec = spectra[i]
    h = from_cos_sin_rows(vec.real[:, None], vec.imag[:, None], layout)[:, 0]
    coeffs = np.pad(layout.unpack(h)[1], ((0, 0), (K - Kh, K - Kh)))
    S = numerics.crop(coeffs, k0).sum(axis=1)
    scale = np.sqrt(complex(xi0) / np.sum(S * S))
    coeffs *= scale
    return float(lams[i].real), coeffs
