"""The level walk lands on its Jacobi level with a real orbit, in few solves,
and a larger K costs one polish at that K on top of the walk at a small K.
The Floquet exponents of the Hill matrix agree with the monodromy matrix of
the variational flow, and seeding imports no ODE integrator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from fourbody import model, numerics, seeding, stages

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cfg():
    return model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))


@pytest.fixture(scope="module")
def start(cfg):
    eq = seeding.planar_equilibria(cfg)[3]
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    return eq, H0


def counted_solves(monkeypatch, fail_after=None, fail_above=None):
    """The guesses' level rows of the Newton solves; the solves after the
    first fail_after ones, and those with more than fail_above unknowns,
    diverge."""
    rows = []
    polish = numerics.newton_polish

    def counted(residual, jacobian, x0, tol):
        rows.append(residual(x0)[0])
        if ((fail_after is not None and len(rows) > fail_after)
                or (fail_above is not None and len(x0) > fail_above)):
            raise numerics.NewtonDivergence("diverged on purpose")
        return polish(residual, jacobian, x0, tol)

    monkeypatch.setattr(numerics, "newton_polish", counted)
    return rows


def test_orbit_lands_on_its_level_as_a_real_orbit(cfg, start, monkeypatch):
    # the reference run's level, at a K small enough to be cheap
    eq, H0 = start
    solves = counted_solves(monkeypatch)
    sol, H = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 8, 1.5)
    assert abs(H - (H0 - 0.3)) < 1e-12
    A = sol.coeffs
    assert np.max(np.abs(A - np.conj(A[:, ::-1]))) < 1e-13
    assert isinstance(sol.omega, float)
    assert len(solves) <= 16


def test_level_above_the_equilibrium_fails_at_once(cfg, start, monkeypatch):
    eq, H0 = start
    solves = counted_solves(monkeypatch)
    with pytest.raises(seeding.SeedFailure, match="far side"):
        seeding.orbit_to_jacobi(cfg, eq, H0 + 0.1, 8, 1.5)
    assert len(solves) <= 2


def test_diverging_steps_are_halved_down_to_the_floor(cfg, start, monkeypatch):
    eq, H0 = start
    rows = counted_solves(monkeypatch, fail_after=1)
    with pytest.raises(seeding.SeedFailure, match="stalled"):
        seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 8, 1.5)
    # every solve after the first starts at the first orbit; its level row
    # there is minus the step, and each failure halves the step
    steps = -np.array(rows[1:])
    assert len(steps) < 20
    assert np.allclose(steps[1:] / steps[:-1], 0.5, rtol=1e-6)


def test_seeding_at_a_large_k_walks_at_a_small_one(cfg, start, monkeypatch):
    # counts, not timings: at K = 40 and 64 the walk's Jacobians are all at
    # K <= 12 and the polish at K takes at most three, though the Jacobian
    # is DF at y = 0; the orbit still solves the level system at K
    eq, H0 = start
    sizes = []
    jacobian = stages._orbit_jacobian

    def counted(z, omega, anchor, k, *args, **kwargs):
        sizes.append(k)
        return jacobian(z, omega, anchor, k, *args, **kwargs)

    monkeypatch.setattr(stages, "_orbit_jacobian", counted)
    for K in (40, 64):
        sizes.clear()
        sol, H = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, K, 1.5)
        assert 1 <= sizes.count(K) <= 3, K
        assert all(k <= 12 for k in sizes if k != K), K
        assert abs(H - (H0 - 0.3)) <= 1e-14, K
        A = sol.coeffs
        assert np.max(np.abs(A - np.conj(A[:, ::-1]))) < 1e-13, K
        residual, _ = seeding._level_problem(cfg, K, H0 - 0.3, sol.anchor)
        z = np.concatenate([[sol.omega], sol.y, A.ravel()])
        assert np.max(np.abs(residual(z))) < stages.NEWTON_TOL, K


def test_diverging_polish_names_both_k(cfg, start, monkeypatch):
    # the walk at K = 12 succeeds; only the polish at K = 24 diverges
    eq, H0 = start
    counted_solves(monkeypatch, fail_above=5 + 9 * (2 * 12 - 1))
    with pytest.raises(seeding.SeedFailure,
                       match="level polish at K=24 from the K=12 walk diverged"):
        seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 24, 1.5)


@pytest.mark.parametrize("K", [24, 40])
def test_hill_exponents_match_the_monodromy_oracle(cfg, start, K):
    # the oracle integrates forward, so only its unstable exponent is
    # accurate (its stable one is off by 2.8e-10 at K = 24); the stable
    # exponent of the Hill matrix is checked against the unstable one
    eq, H0 = start
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, K, 1.5)
    lam_u, a_u = seeding.bundle_guess(cfg, sol, "unstable", 3, 1e-4)
    lam_s, _ = seeding.bundle_guess(cfg, sol, "stable", 3, 1e-4)
    _, want = oracles.monodromy_exponents(cfg, sol)
    assert lam_u.imag == 0.0 and lam_s.imag == 0.0
    assert abs(lam_u.real - want) <= 1e-10
    assert abs(lam_s.real + lam_u.real) <= 1e-12
    # the guess has the window of K and the scale xi0 of its modes |k| < 3
    assert a_u.shape == (9, 2 * K - 1)
    S = a_u[:, K - 3:K + 2].sum(axis=1)
    assert abs(np.sum(S * S) - 1e-4) <= 1e-20


def test_importing_seeding_loads_no_integrator():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, fourbody.seeding; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# a rest point of the reference masses, refined by a damped Newton on the
# planar gradient from the same grid of starts; |grad| there is 5.6e-16
MISSED_REST_POINT = (0.065727383, 0.323312069)


@pytest.mark.xfail(strict=True, reason="the hybr solves from the 13 x 13 grid "
                   "miss this rest point; finding it would move the index "
                   "of the reference equilibrium")
def test_planar_equilibria_finds_every_rest_point(cfg):
    ms, pos = numerics.cfg_floats(cfg)
    assert np.max(np.abs(seeding._grad_planar(MISSED_REST_POINT, ms, pos))) < 1e-8
    eqs = seeding.planar_equilibria(cfg)
    assert min(np.hypot(*(p - MISSED_REST_POINT)) for p in eqs) < 1e-8
