"""The crossing refinement of the family walk meets its tolerance in a few solves."""

import numpy as np
import pytest

from fourbody import model, seeding


@pytest.fixture(scope="module")
def cfg():
    return model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))


def test_refine_crossing_meets_its_tolerance(cfg, monkeypatch):
    # a small K keeps the walk cheap; the bracket is the reference run's
    K = 8
    n = 2 * K - 1
    eq = seeding.planar_equilibria(cfg)[3]
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))

    def stop(w_, coeffs):
        return seeding.jacobi_mid(cfg, coeffs.sum(axis=1).real) - (H0 - 0.3)

    a, b = seeding.walk_family(cfg, eq, K, stop)
    solves = []
    solve = seeding._solve_pinned

    def counted(*args):
        solves.append(args[2])
        return solve(*args)

    monkeypatch.setattr(seeding, "_solve_pinned", counted)
    amp, z = seeding._refine_crossing(cfg, K, a, b, stop)
    assert len(solves) <= 12
    assert min(a[0], b[0]) < amp < max(a[0], b[0])
    assert abs(stop(z[0].real, z[5:].reshape(9, n))) < seeding._CROSS_TOL


def test_refine_crossing_stops_on_a_collapsed_bracket(monkeypatch):
    # stop jumps by 4.2e-12 across its root, so the tolerance cannot be met:
    # the refinement must stop once the bracket is two adjacent floats
    K, root = 2, 0.2301157

    def pinned(cfg, K, amp, guess):
        z = np.zeros(5 + 9 * (2 * K - 1), dtype=complex)
        z[0] = amp
        return z

    def stop(w_, coeffs):
        return (w_ - root) * 1e-3 + (2.1e-12 if w_ > root else -2.1e-12)

    calls = []

    def counted(*args):
        calls.append(args[2])
        return pinned(*args)

    monkeypatch.setattr(seeding, "_solve_pinned", counted)
    a, b = ((amp, pinned(None, K, amp, None), stop(amp, None))
            for amp in (0.19787866958100486, 0.2671362039343566))
    amp, z = seeding._refine_crossing(None, K, a, b, stop)
    assert len(calls) < seeding._CROSS_ITMAX
    assert z[0] == amp
    assert np.nextafter(root, 0.0) <= amp <= np.nextafter(root, 1.0)
