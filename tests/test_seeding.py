"""The level walk lands on its Jacobi level with a real orbit, in few solves,
and a larger K costs one polish at that K on top of the walk at a small K.
The Floquet exponents of the Hill matrix agree with the monodromy matrix of
the variational flow.  The rest-point search finds every rest point, agrees
with hybr solves where those find one and keeps the index the benchmark
reads, and the certified path runs with no scipy at all.  Rest points are
named by position (`oracles.rest_point`), not by index."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from fourbody import model, numerics, seeding, stages
from fourbody.opbound import SpaceLayout, class_slots

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cfg():
    return model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))


@pytest.fixture(scope="module")
def start(cfg):
    eq = oracles.rest_point(cfg, oracles.REFERENCE_REST_POINT)
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    return eq, H0


def counted_solves(monkeypatch, fail_after=None, fail_above=None):
    """The guesses of the Newton solves and the solutions of those that
    converged; the solves after the first fail_after ones, and those with
    more than fail_above unknowns, diverge."""
    guesses, solved = [], []
    polish = numerics.newton_polish

    def counted(residual, jacobian, x0, tol):
        guesses.append(np.array(x0))
        if ((fail_after is not None and len(guesses) > fail_after)
                or (fail_above is not None and len(x0) > fail_above)):
            raise numerics.NewtonDivergence("diverged on purpose")
        solved.append(polish(residual, jacobian, x0, tol))
        return solved[-1]

    monkeypatch.setattr(numerics, "newton_polish", counted)
    return guesses, solved


def counted_jacobians(monkeypatch):
    """The K of each orbit Jacobian that the Newton solves build."""
    sizes = []
    jacobian = stages._orbit_jacobian

    def counted(z, omega, anchor, layout, *args, **kwargs):
        sizes.append(layout.K)
        return jacobian(z, omega, anchor, layout, *args, **kwargs)

    monkeypatch.setattr(stages, "_orbit_jacobian", counted)
    return sizes


def test_orbit_lands_on_its_level_as_a_real_orbit(cfg, start, monkeypatch):
    # the reference run's level, at a K small enough to be cheap: the start
    # solve and four sigma-steps, the last of which lands on the level
    eq, H0 = start
    solves, _ = counted_solves(monkeypatch)
    sol, H = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 8, 1.5)
    assert abs(H - (H0 - 0.3)) < 1e-12
    A = sol.coeffs
    assert np.max(np.abs(A - np.conj(A[:, ::-1]))) < 1e-13
    assert isinstance(sol.omega, float)
    assert len(solves) <= 5


def test_level_above_the_equilibrium_fails_at_once(cfg, start, monkeypatch):
    eq, H0 = start
    solves, _ = counted_solves(monkeypatch)
    with pytest.raises(seeding.SeedFailure, match="far side"):
        seeding.orbit_to_jacobi(cfg, eq, H0 + 0.1, 8, 1.5)
    assert len(solves) <= 2


def test_seed_failures_name_plain_numbers(cfg, start, monkeypatch):
    # a level on the far side of the walk's start, and a walk that stalls,
    # name their levels as floats, not as numpy scalars
    eq, H0 = start
    with pytest.raises(seeding.SeedFailure) as far:
        seeding.orbit_to_jacobi(cfg, eq, np.float64(H0 + 0.1), 8, 1.5)
    words = str(far.value).split()
    assert words[:2] == ["level", repr(float(H0 + 0.1))]
    assert float(words[-1]) < H0 and "np." not in str(far.value)
    counted_solves(monkeypatch, fail_after=1)
    with pytest.raises(seeding.SeedFailure) as stalled:
        seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 8, 1.5)
    assert str(stalled.value).startswith("level walk stalled near H = ")
    assert float(str(stalled.value).split()[-1]) < H0


def test_an_isotropic_rest_point_is_refused_before_the_walk(monkeypatch):
    # at the centroid of equal masses both eigenvalues of the planar
    # Hessian are 3.5981: the walk cannot start there, and orbit_to_jacobi
    # says so before any solve
    cfg = model.primaries(model.MassTriple.of("1/3", "1/3", "1/3"))
    eq = oracles.rest_point(cfg, (3.3e-17, 0.0))
    ms, pos = numerics.cfg_floats(cfg)
    lo, hi = np.linalg.eigvalsh(seeding._planar_hessian(eq, ms, pos))
    assert abs(lo - 3.5981) < 1e-4 and abs(hi - lo) <= 1e-12 * hi
    solves, _ = counted_solves(monkeypatch)
    H0 = seeding.jacobi_mid(cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    with pytest.raises(seeding.SeedFailure, match="planar Hessian .* is isotropic"):
        seeding.orbit_to_jacobi(cfg, eq, H0 - 0.1, 24, 1.5)
    assert solves == []
    # a rest point with two distinct eigenvalues is not refused for them
    other = oracles.rest_point(cfg, (-0.11947915459767472, -0.2069439662085493))
    lo, hi = np.linalg.eigvalsh(seeding._planar_hessian(other, ms, pos))
    assert hi - lo > 1.0


def test_diverging_steps_are_halved_down_to_the_floor(cfg, start, monkeypatch):
    eq, H0 = start
    guesses, solved = counted_solves(monkeypatch, fail_after=1)
    with pytest.raises(seeding.SeedFailure, match="stalled"):
        seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 8, 1.5)
    # every guess after the first lies on the secant through the equilibrium
    # (sigma = 0) and the first orbit, that orbit plus the sigma-step times
    # their difference over the first orbit's sigma: the first step is
    # _SIGMA_GROWTH times that sigma, and each failure halves it
    wz = seeding.vertical_frequency(cfg, eq)
    # the walk's vectors hold the slots of class +1 of Q
    z_eq = np.concatenate([[wz], seeding.orbit_guess_vector(cfg, eq, 0.0, wz, 8)])
    z_eq = z_eq[np.concatenate([np.arange(5), 5 + class_slots(8, 1)])]
    steps = np.array([np.linalg.norm(g - solved[0]) for g in guesses[1:]])
    assert len(guesses) < 20
    assert abs(steps[0] / np.linalg.norm(solved[0] - z_eq)
               - seeding._SIGMA_GROWTH) < 1e-9
    assert np.allclose(steps[1:] / steps[:-1], 0.5, rtol=1e-6)


def test_reference_seeding_builds_few_jacobians(cfg, start, monkeypatch):
    # counts, not timings: the K = 24 reference orbit takes the start solve,
    # four sigma-steps at K = 12 and the polish at 24, 17 Jacobians in all
    # (a walk in H with steps restarted at the last orbit took 56)
    eq, H0 = start
    sizes = counted_jacobians(monkeypatch)
    seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 24, 1.5)
    assert len(sizes) <= 20
    assert sizes.count(12) == 15
    assert 1 <= sizes.count(24) <= 3


def test_a_corrector_that_leaves_the_family_is_refused(monkeypatch):
    # masses 2/5, 33/100, 27/100, rest point ~ (0.2558, 0.0673), level
    # H_eq - 1: with sigma growing 3 times per solve, a corrector once moved
    # 1.08 times its predictor step and converged on another symmetric orbit
    # of the level (omega 1.5045 against 1.4916); the walk now refuses that
    # solve and halves the step, so it finds the orbit of the 2.5 walk or
    # fails
    cfg = model.primaries(model.MassTriple.of("2/5", "33/100", "27/100"))
    eq = oracles.rest_point(cfg, (0.2557723300270063, 0.06726141156260214))
    H_eq = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    want, _ = seeding.orbit_to_jacobi(cfg, eq, H_eq - 1.0, 12, 1.5)
    monkeypatch.setattr(seeding, "_SIGMA_GROWTH", 3.0)
    try:
        sol, _ = seeding.orbit_to_jacobi(cfg, eq, H_eq - 1.0, 12, 1.5)
    except seeding.SeedFailure:
        return
    assert abs(sol.omega - want.omega) <= 1e-8


def test_seeding_at_a_large_k_walks_at_a_small_one(cfg, start, monkeypatch):
    # counts, not timings: at K = 40 and 64 the walk's Jacobians are all at
    # K <= 12 and the polish at K takes at most three, though the Jacobian
    # is DF at y = 0; the orbit still solves the level system at K
    eq, H0 = start
    sizes = counted_jacobians(monkeypatch)
    for K in (40, 64):
        sizes.clear()
        sol, H = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, K, 1.5)
        assert 1 <= sizes.count(K) <= 3, K
        assert all(k <= 12 for k in sizes if k != K), K
        assert abs(H - (H0 - 0.3)) <= 1e-14, K
        A = sol.coeffs
        assert np.max(np.abs(A - np.conj(A[:, ::-1]))) < 1e-13, K
        layout = SpaceLayout(5, K, 1)
        residual, _ = seeding._level_problem(cfg, layout, H0 - 0.3, sol.anchor)
        z = layout.pack(np.concatenate([[sol.omega], sol.y]), A)
        assert np.max(np.abs(residual(z))) < stages.NEWTON_TOL, K


def test_diverging_polish_names_both_k(cfg, start, monkeypatch):
    # the walk at K = 12 succeeds; only the polish at K = 24 diverges
    eq, H0 = start
    counted_solves(monkeypatch, fail_above=5 + len(class_slots(12, 1)))
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
    assert isinstance(lam_u, float) and isinstance(lam_s, float)
    assert abs(lam_u - want) <= 1e-10
    assert abs(lam_s + lam_u) <= 1e-12
    # the guess has the window of K and the scale xi0 of its modes |k| < 3
    assert a_u.shape == (9, 2 * K - 1)
    err, tol = scale_error(a_u, K, 3, 1e-4)
    assert err <= tol
    # the bound still sees a scale that is off by 1e-12: that moves the sum
    # by 2e-12 xi0 = 2e-16, and tol is about 1e-18 here (R ~ 1.46 xi0)
    assert tol < 1e-17
    assert scale_error(a_u * (1.0 + 1e-12), K, 3, 1e-4)[0] > tol


@pytest.mark.parametrize("kind", ["stable", "unstable"])
def test_hill_spectrum_class_by_class_is_the_whole_one(cfg, start, kind):
    # the Hill matrix commutes with Q, so the eigs of its two class blocks
    # give the exponent of one whole eig within 1e-12 relative, and the
    # eigenvector lies in class +1 exactly, as a_1 of the reference orbit does
    eq, H0 = start
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 24, 1.5)
    lam, a = seeding.bundle_guess(cfg, sol, kind, 3, 1e-4)
    want = oracles.hill_exponent_whole(cfg, sol, kind)
    assert abs(lam - want) <= 1e-12 * abs(want)
    off = np.ones(a.size, dtype=bool)
    off[class_slots(24, 1)] = False
    assert a.ravel()[~off].any() and not a.ravel()[off].any()


def test_a_complex_exponent_is_a_seed_failure(cfg, start, monkeypatch):
    # the two rightmost eigenvalues of the strip made a complex pair: the
    # unstable seed names its exponent and fails, the stable one is real
    eq, H0 = start
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 24, 1.5)
    eig = np.linalg.eig

    def complex_pair(M):
        lams, vecs = eig(M)
        strip = np.abs(lams.imag) < 0.5 * sol.omega
        i, j = np.argsort(np.where(strip, lams.real, -np.inf))[-2:]
        lams = lams.astype(complex)
        lams[[i, j]] = lams[j].real + np.array([0.1j, -0.1j])
        return lams, vecs

    monkeypatch.setattr(seeding.np.linalg, "eig", complex_pair)
    with pytest.raises(seeding.SeedFailure,
                       match=r"unstable Floquet exponent \(.*j\) is not real"):
        seeding.bundle_guess(cfg, sol, "unstable", 3, 1e-4)
    assert isinstance(seeding.bundle_guess(cfg, sol, "stable", 3, 1e-4)[0], float)


def scale_error(a, K, k0, xi0):
    """|sum_i S_i^2 - xi0| for the sums S_i of a's modes |k| < k0, and the
    bound on it that the rounding of `bundle_guess` and of this sum allows.

    Let u = 2^-53, b the coefficients before `coeffs *= scale`, s the scale,
    A_i = sum_k |a_ik| over the 2 k0 - 1 = m modes and R = sum_i A_i^2, so
    |sum_k a_ik|^2 <= A_i^2 and xi0 <= R to first order.  A complex sum of
    n terms errs by at most (n - 1) u times the sum of their moduli, a
    complex product by sqrt(5) u times its modulus (Brent, Percival and
    Zimmermann, Math. Comp. 2007).  To first order in u:
      - scale: numpy divides the real xi0 by the nearly real Q = sum S_i^2
        by Smith's formula (three roundings) and takes the libm csqrt (a
        hypot, a sum and a sqrt, halved by the root), so s^2 Q = xi0 (1 + e)
        with |e| <= 4u + 2 * 4u = 12u;
      - Q itself: the sums S_i of b err by (m - 1) u A_i / |s|, the squares
        by sqrt(5) u and the sum of nine by 8u, so s^2 Q is off from
        s^2 sum (exact S_i)^2 by (2 (m - 1) + sqrt(5) + 8) u R;
      - coeffs *= scale: a_ik = s b_ik (1 + d), |d| <= sqrt(5) u, moves
        sum_i (sum_k a_ik)^2 by 2 sqrt(5) u R;
      - this function's sums and squares err as Q does, by
        (2 (m - 1) + sqrt(5) + 8) u R.
    With m = 5 and xi0 <= R that is (12 + 32 + 4 sqrt(5)) u R < 53 u R;
    64 u R covers the terms of second order.
    """
    W = a[:, K - k0:K + k0 - 1]
    S = W.sum(axis=1)
    R = float(np.sum(np.abs(W).sum(axis=1) ** 2))
    return abs(np.sum(S * S) - xi0), 64 * 2.0 ** -53 * R


# the reference run at K = 24 and N_t = 2 in a fresh interpreter in which
# every import of scipy raises; prints whether the table is complete and
# rechecks, and the scipy modules loaded.  It finds the rest point by
# position itself, since `oracles` imports scipy
SCIPY_FREE_CHILD = """
import sys
sys.modules["scipy"] = None
import numpy as np
from fourbody import cli, model, seeding, stages
cfg = model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))
eqs = seeding.planar_equilibria(cfg)
eq, = eqs[np.hypot(*(eqs - np.array(%r)).T) <= 1e-9]
H0 = seeding.jacobi_mid(cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 24, 1.5)
lam, v = seeding.bundle_guess(cfg, sol, "unstable", 3, 1e-4)
res0 = stages.validate_order0(sol, cfg)
start = stages.start_jet_table("unstable", sol, res0, cfg, lam, v, 3, 1e-4, 2)
table = stages.extend_with_jets(start, cfg)
print(table.complete() and all(c.recheck() for c in table.certs.values()))
print(sorted(m for m in sys.modules if m.startswith("scipy.")))
""" % (oracles.REFERENCE_REST_POINT,)


def test_the_certified_path_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["True", "[]"], done.stdout


# (masses, rest points that hybr solves from the grid of starts miss, each
# refined by the damped Newton search; |grad| at each is below 5e-9)
MISSED_REST_POINTS = [
    (("1/2", "3/10", "1/5"), [(0.065727383, 0.323312069)]),
    (("9/10", "1/20", "1/20"), [(1.017788981, 0.648728956), (1.017788981, -0.648728956)]),
]


def masses_id(masses):
    return "-".join(m.replace("/", "_") for m in masses)


@pytest.mark.parametrize("masses, points", MISSED_REST_POINTS,
                         ids=[masses_id(m) for m, _ in MISSED_REST_POINTS])
def test_planar_equilibria_finds_every_rest_point(masses, points):
    cfg = model.primaries(model.MassTriple.of(*masses))
    ms, pos = numerics.cfg_floats(cfg)
    eqs = seeding.planar_equilibria(cfg)
    for p in points:
        assert np.max(np.abs(seeding._grad_planar(p, ms, pos))) < 1e-8
        assert min(np.hypot(*(q - p)) for q in eqs) < 1e-8


def best_time(fn, cfg, repeat=3):
    """fn(cfg) and the least wall time of repeat calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(cfg)
        times.append(time.perf_counter() - t0)
    return out, min(times)


# the survey's masses and their number of rest points; the planar problem
# has 8, 9 or 10 (Barros and Leandro, SIAM J. Math. Anal. 46, 2014)
SURVEY_REST_POINTS = [
    (("1/2", "3/10", "1/5"), 8),
    (("1/3", "1/3", "1/3"), 10),
    (("9/10", "1/20", "1/20"), 8),
    (("2/5", "33/100", "27/100"), 10),
]


@pytest.mark.parametrize("masses, count", SURVEY_REST_POINTS,
                         ids=[masses_id(m) for m, _ in SURVEY_REST_POINTS])
def test_rest_point_search_is_complete_agrees_with_hybr_and_is_no_slower(masses, count):
    # hybr misses 1, 0, 2 and 1 of them; every one it finds the Newton
    # search finds too, to 1e-12, in no more time than hybr's 169 solves
    cfg = model.primaries(model.MassTriple.of(*masses))
    eqs, t_new = best_time(seeding.planar_equilibria, cfg)
    hybr, t_hybr = best_time(oracles.planar_equilibria_hybr, cfg)
    assert len(eqs) == count
    for p in hybr:
        assert np.min(np.hypot(*(eqs - p).T)) <= 1e-12, p
    assert t_new <= t_hybr


def test_the_benchmark_rest_point_keeps_its_index(cfg):
    # perfbench/pipeline.py indexes the reference rest point as
    # planar_equilibria(cfg)[3]; the descending sort keeps it there
    eq = seeding.planar_equilibria(cfg)[3]
    assert np.max(np.abs(eq - oracles.REFERENCE_REST_POINT)) <= 1e-12
