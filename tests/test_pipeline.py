"""End-to-end certified run of the reference configuration.

Masses 1/2, 3/10, 1/5; planar equilibrium 3; the vertical orbit on the
Jacobi level H0 - 0.3; nu = 1.5; the unstable Floquet bundle with k0 = 3 and
xi0 = 1e-4.  K = 24 and N_t = 3 keep the run to a few seconds.
"""

import json

import numpy as np
import pytest

from fourbody import model, seeding, stages

K = 24
N_T = 3
NU = 1.5
KIND = "unstable"
K0 = 3
XI0 = 1e-4


@pytest.fixture(scope="module")
def run():
    cfg = model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))
    eq = seeding.planar_equilibria(cfg)[3]
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, K, NU)
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    res0 = stages.validate_order0(sol, cfg)
    start = stages.start_jet_table(KIND, sol, res0, cfg, lam, v, K0, XI0, N_T)
    table = stages.extend_with_jets(stages.rescale_jets(start, 1.0), cfg)
    return cfg, res0, start, table


def test_every_stage_certifies(run):
    _, _, _, table = run
    assert table.complete()
    assert table.gamma_scale == 1.0
    for p in range(2, N_T + 1):
        assert ("jet:%d,%d:%s" % (p, 0, KIND)) in table.certs


def test_every_certificate_rechecks(run):
    _, _, _, table = run
    assert table.certs
    for stage, cert in sorted(table.certs.items()):
        assert cert.recheck(), stage


def test_unfolding_enclosure_contains_zero(run):
    _, res0, _, _ = run
    for enc in res0.y_enclosure:
        assert enc.contains(0j)


def test_real_part_of_lambda_excludes_zero(run):
    _, _, _, table = run
    assert table.re_lambda_mig() > 0.0


def test_json_roundtrip_keeps_digest(run):
    _, _, _, table = run
    blob = json.dumps(table.to_json_obj())
    again = stages.JetTable.from_json_obj(json.loads(blob))
    assert again.digest() == table.digest()
    assert np.isfinite(again.E_total().hi)


def test_process_pool_matches_sequential(run):
    cfg, _, start, table = run
    pooled = stages.extend_with_jets(stages.rescale_jets(start, 1.0), cfg, jobs=2)
    assert pooled.digest() == table.digest()
