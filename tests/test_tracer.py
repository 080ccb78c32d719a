"""The benchmark tracer still finds, wraps and restores every entry point,
and a traced pipeline still certifies its jets."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pipeline  # noqa: E402
from tracing import Tracer  # noqa: E402

from fourbody import ivarray, model, numerics, opbound, radii, seeding, stages  # noqa: E402
from fourbody.seqspace import FourierSeq  # noqa: E402

# (owner, attribute) for every name the tracer wraps or calls
NAMES = [
    (seeding, "planar_equilibria"), (seeding, "orbit_to_jacobi"),
    (seeding, "bundle_guess"),
    (stages, "validate_order0"), (stages, "start_jet_table"),
    (stages, "extend_with_jets"), (stages, "newton_stage"),
    (stages, "jet_problem"), (stages, "validate_jet"),
    (stages, "_level_parallel"), (stages, "_strip_unvalidated"),
    (numerics, "newton_polish"), (numerics, "remainder_layer"),
    (ivarray, "carr_conv"), (ivarray, "cconv_mr"), (ivarray, "cmm"),
    (np.linalg, "inv"),
    (model.DF0, "apply"), (model, "field_F_grid"),
    (radii, "radii_newton"), (radii.Certificate, "recheck"),
    (opbound, "block_norms"),
]


def test_every_traced_name_exists():
    for owner, attr in NAMES:
        assert callable(getattr(owner, attr)), (owner, attr)


def test_install_wraps_and_remove_restores():
    before = {(id(o), a): getattr(o, a) for o, a in NAMES}
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        wrapped = {(id(o), a) for o, a, _ in patched}
        for owner, attr in NAMES:
            if attr != "_strip_unvalidated":
                assert (id(owner), attr) in wrapped, attr
                assert getattr(owner, attr) is not before[(id(owner), attr)], attr
        cfg = model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))
        nu = 1.5
        model.field_F_grid([FourierSeq.point([0.5], nu) for _ in range(9)],
                           model.IntervalArith(cfg))
        assert tracer.counts["model.field_F_grid_calls"] == 1
        assert not tracer.nesting_errors()
    finally:
        tracer.remove()
    for owner, attr in NAMES:
        assert getattr(owner, attr) is before[(id(owner), attr)], attr
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_traced_pipeline_runs_the_jet_path():
    # the wrapper of `_level_parallel` unpacks (table, cfg, jets) from its
    # first three arguments and pickles the table: one call per jet level,
    # one task per jet solved, and the table still complete and rechecked
    cfg = pipeline.make_config()
    with Tracer() as tracer:
        out = pipeline.run_pipeline(cfg, pipeline.Workload("tier1", K=24, N_t=3, jobs=1))
    assert out.table is not None, out.error
    pipeline.check_table(out)
    assert not tracer.nesting_errors()
    assert tracer.counts["stages.pool_calls"] == 2
    assert tracer.counts["stages.pool_tasks"] == 4
