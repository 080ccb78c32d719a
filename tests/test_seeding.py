"""The level walk lands on its Jacobi level with a real orbit, in few solves."""

import numpy as np
import pytest

from fourbody import model, numerics, seeding


@pytest.fixture(scope="module")
def cfg():
    return model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))


@pytest.fixture(scope="module")
def start(cfg):
    eq = seeding.planar_equilibria(cfg)[3]
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    return eq, H0


def counted_solves(monkeypatch, fail_after=None):
    """The guesses' level rows of the Newton solves; the solves after the
    first fail_after ones diverge."""
    rows = []
    polish = numerics.newton_polish

    def counted(residual, jacobian, x0, tol):
        rows.append(residual(x0)[0])
        if fail_after is not None and len(rows) > fail_after:
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
