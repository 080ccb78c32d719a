"""The reference pipeline of the benchmark and the checks on its output.

One pipeline runs the certified stages in order: seeding (orbit on the
Jacobi level H0 - 0.3 and the unstable Floquet bundle guess), order 0,
order 1, and the jets of order 2..N_t.  Its result is a complete, rechecked
`JetTable`.  The inputs are fixed (masses 1/2, 3/10, 1/5, equilibrium 3,
nu = 1.5, k0 = 3, xi0 = 1e-4): only this configuration is known to certify
every stage, so a workload varies K, N_t and the pool size instead.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

MASSES = ("1/2", "3/10", "1/5")
EQUILIBRIUM = 3
JACOBI_DROP = 0.3
NU = 1.5
KIND = "unstable"
K0 = 3
XI0 = 1e-4
GAMMA = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    K: int
    N_t: int
    jobs: int


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("wide", K=40, N_t=4, jobs=1),
    Workload("deep", K=24, N_t=8, jobs=1),
    Workload("pool", K=24, N_t=6, jobs=2),
)}


class CheckFailed(Exception):
    """A certified table failed a correctness check."""


@dataclass(eq=False)
class Outcome:
    """One pipeline attempt: its table and timing, or the stage that failed.

    `start` keeps the order-0/1 table before the jets were added, so the
    pool workload can recompute its jets on the sequential path."""

    table: object = None
    start: object = None
    certified_s: float = math.nan
    stage: str = ""
    error: str = ""
    stage_attempts: int = 0
    stage_failures: int = 0
    cpu_s: float = math.nan
    checks: dict = None


def expected_failures():
    """The exceptions a stage raises when it cannot certify."""
    from fourbody.numerics import NewtonDivergence
    from fourbody.radii import NoNegativeRadius
    from fourbody.seeding import SeedFailure
    from fourbody.stages import ResonantExponents, UnfoldingNotZero
    return (SeedFailure, NewtonDivergence, NoNegativeRadius,
            ResonantExponents, UnfoldingNotZero)


def make_config():
    """The primaries of the reference masses; the set-up every run pays."""
    from fourbody import model
    return model.primaries(model.MassTriple.of(*MASSES))


def retries(table) -> int:
    """Number of gamma rescales applied to the jets, read from gamma_scale."""
    return int(round(math.log(table.gamma_scale) / math.log(GAMMA)))


def seed(cfg, K: int):
    """Float seeds: the orbit at H0 - JACOBI_DROP and the bundle guess."""
    from fourbody import seeding
    eq = seeding.planar_equilibria(cfg)[EQUILIBRIUM]
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - JACOBI_DROP, K, NU)
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    return sol, lam, v


def run_pipeline(cfg, wl: Workload) -> Outcome:
    """Seed, certify order 0 and 1, and extend with jets; times the whole.

    A stage failure named by `expected_failures` is caught and recorded
    with the stage it came from; anything else propagates."""
    from fourbody import stages

    out = Outcome()

    def begin(stage):
        out.stage = stage
        out.stage_attempts += 1

    t0 = time.perf_counter()
    try:
        begin("seeding")
        sol, lam, v = seed(cfg, wl.K)
        begin("order0")
        res0 = stages.validate_order0(sol, cfg)
        begin("order1")
        table = stages.start_jet_table(KIND, sol, res0, cfg, lam, v, K0, XI0,
                                       wl.N_t)
        out.start = stages.rescale_jets(table, 1.0)
        begin("jets")
        table = stages.extend_with_jets(table, cfg, gamma=GAMMA, jobs=wl.jobs)
    except expected_failures() as exc:
        out.error = "%s: %s" % (type(exc).__name__, exc)
        out.stage_failures += 1
        return out
    # a table counts as certified once it is complete and rechecked
    out.checks = {
        "complete": table.complete(),
        "recheck": [k for k, c in sorted(table.certs.items()) if not c.recheck()],
    }
    out.certified_s = time.perf_counter() - t0
    # each gamma rescale is one failed attempt of the jet stage
    n_retry = retries(table)
    out.stage_attempts += n_retry
    out.stage_failures += n_retry
    out.stage = ""
    out.table = table
    return out


def sequential_digest(cfg, start) -> str:
    """Digest of the jets of `start` computed with jobs=1."""
    from fourbody import stages
    table = stages.rescale_jets(start, 1.0)
    return stages.extend_with_jets(table, cfg, gamma=GAMMA, jobs=1).digest()


def check_table(out: Outcome, want_digest: str | None = None) -> dict:
    """Every correctness check on a finished pipeline; raise on the first miss.

    Completeness and the certificate rechecks ran inside the timed pipeline;
    this adds the JSON round trip, the sign of Re(lambda), and on the pool
    path the digest of the same jets computed with jobs=1."""
    from fourbody import stages

    table = out.table
    checks = {}

    def need(name, ok, detail=""):
        checks[name] = bool(ok)
        if not ok:
            raise CheckFailed("%s failed%s" % (name, detail and ": " + detail))

    need("complete", out.checks["complete"])
    need("recheck", not out.checks["recheck"], ", ".join(out.checks["recheck"]))
    digest = table.digest()
    again = stages.JetTable.from_json_obj(json.loads(json.dumps(table.to_json_obj())))
    need("json_roundtrip", again.digest() == digest)
    need("re_lambda_mig", table.re_lambda_mig() > 0.0, repr(table.re_lambda_mig()))
    if want_digest is not None:
        need("pool_digest", digest == want_digest,
             "%s != %s" % (digest[:12], want_digest[:12]))
    return checks


def quality(table) -> dict:
    """Certificate quality of a table: the radii a faster run must not loosen."""
    jets = [r for a, r in table.radii.items() if sum(a) >= 2]
    return {
        "r0_order0": float(table.radii[(0, 0)]),
        "r1_order1": float(table.radii[(1, 0)]),
        "r_jet_max": float(max(jets)),
        "E_total": float(table.E_total().hi),
        "retries": retries(table),
    }
