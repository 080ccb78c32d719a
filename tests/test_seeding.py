"""The level walk lands on its Jacobi level with a real orbit, in few solves,
and a larger K costs one polish at that K on top of the walk at a small K."""

import numpy as np
import pytest

from fourbody import model, numerics, seeding, stages


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
