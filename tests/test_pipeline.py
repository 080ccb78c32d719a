"""End-to-end certified run of the reference configuration.

Masses 1/2, 3/10, 1/5; planar equilibrium 3; the vertical orbit on the
Jacobi level H0 - 0.3; nu = 1.5; the unstable Floquet bundle with k0 = 3 and
xi0 = 1e-4.  K = 24 and N_t = 3 keep the run to a few seconds.
"""

import concurrent.futures
import gc
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from fourbody import cli, ivarray, model, numerics, seeding, seqspace, stages
from fourbody.opbound import SpaceLayout, block_norms, opnorm_upper
from fourbody.radii import NoNegativeRadius, content_digest

K = 24
N_T = 3
NU = 1.5
KIND = "unstable"
K0 = 3
XI0 = 1e-4
ROOT = Path(__file__).resolve().parent.parent


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


def test_unfolding_scalars_are_far_inside_the_radius(run):
    # y is rounding noise that `validate_order0` must find inside r0; a seed
    # that brings it near r0 would fail order 0 with UnfoldingNotZero
    _, res0, _, _ = run
    sol = res0.context[0]
    assert np.max(np.abs(sol.y)) <= 1e-3 * res0.r0


def lane_bytes(seq):
    """The four endpoint lanes of a sequence as bytes, sign bits included."""
    c = seq.c
    return np.array([c.rl, c.rh, c.il, c.ih]).tobytes()


def test_order0_residual_takes_the_reference_unfolding(run):
    # order 0 builds G(y, a) from the cubes it already has; its residual is
    # the one the reference unfolding term gives, bit for bit
    cfg, res0, _, table = run
    sol, _, ctx = res0.context
    _, asm = stages._assemble_orbit(sol, ctx, model.IntervalArith(cfg))
    F = model.field_F_grid(ctx.a0, cfg)
    G = oracles.unfold_orbit_G([complex(t) for t in sol.y], ctx.a0)
    for i, got in enumerate(asm.resid_seqs):
        want = ctx.a0[i].dtheta().scale(-ctx.omega).add(F[i]).add(G[i])
        assert got.to_json_obj() == want.to_json_obj(), i
    # order 0's field and kernels, interval and float, are layer (0, 0) of
    # the multi-layer arithmetics on the table's orders, byte for byte
    layers = [{**{b: seqs[i] for b, seqs in table.orders.items()}, (0, 0): ctx.a0[i]}
              for i in range(9)]
    grids = [oracles.FourierTaylorSeq(g, ctx.nu) for g in layers]
    ref = oracles.field_F_seq(grids, (0, 0), cfg)
    assert [lane_bytes(f) for f in F] == [lane_bytes(f) for f in ref]
    _, ikers = model.field_derivative(oracles.IntervalArith(cfg, ctx.nu), grids)
    _, fkers = model.field_derivative(numerics.FloatArith(ctx.ms, ctx.pos),
                                      [{b: s.c.mid() for b, s in g.items()} for g in layers])
    fconst, got_fkers = numerics.derivative_kernels(ctx.A0, ctx.ms, ctx.pos)
    df = model.dF0(ctx.a0, cfg)
    assert fconst == df.const
    for i in range(9):
        for j in range(9):
            for got, want, as_bytes in ((df.kernels[i][j], ikers[i][j], lane_bytes),
                                        (got_fkers[i][j], fkers[i][j], np.ndarray.tobytes)):
                assert (got is None) == (want is None), (i, j)
                if got is not None:
                    assert as_bytes(got) == as_bytes(want), (i, j)


def test_order0_makes_each_product_once(run, monkeypatch):
    # counts, not timings: dF0, the field and the cubes of order 0 share one
    # IntervalArith, so its endpoint convolutions run 52 times (75 with one
    # table each), and the table goes when validate_order0 returns
    cfg, res0, start, _ = run
    sol = res0.context[0]
    calls, made = [], []
    carr_conv, init = seqspace.carr_conv, model.IntervalArith.__init__

    def counted(a, b):
        calls.append((len(a), len(b)))
        return carr_conv(a, b)

    def tracked(self, cfg):
        made.append(weakref.ref(self))
        init(self, cfg)

    monkeypatch.setattr(seqspace, "carr_conv", counted)
    monkeypatch.setattr(model.IntervalArith, "__init__", tracked)
    res = stages.validate_order0(sol, cfg)
    assert res.cert.to_json_obj() == res0.cert.to_json_obj()
    assert len(calls) == 52
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    # neither the returned context nor the one the JetTable caches holds one
    for ctx in (res.context[2], start.ctx_cache[1]):
        assert not any(isinstance(v, model.IntervalArith) for v in vars(ctx).values())


def test_real_part_of_lambda_excludes_zero(run):
    _, _, _, table = run
    assert table.re_lambda_mig() > 0.0


def test_jet_table_reuses_the_order0_context(run):
    cfg, res0, start, _ = run
    sol, res_cfg, ctx = res0.context
    assert res_cfg is cfg
    assert start.ctx_cache[0] is cfg and start.ctx_cache[1] is ctx
    for seq, row in zip(ctx.a0, sol.coeffs):
        assert np.array_equal(seq.c.mid(), row)


def test_radii_no_larger_than_reference(run):
    # the radii of this run, jet by jet; unlike the digest they do not depend
    # on the BLAS build or its thread count
    _, _, _, table = run
    reference = {
        (0, 0): 9.6411088049075e-10,
        (1, 0): 1.9306977288832455e-06, (0, 1): 1.9306977288832455e-06,
        (2, 0): 4.99358789347314e-06, (1, 1): 1.2915496650148827e-05,
        (0, 2): 4.99358789347314e-06,
        (3, 0): 4.99358789347314e-06, (2, 1): 2.07711392596645e-05,
        (1, 2): 2.07711392596645e-05, (0, 3): 4.99358789347314e-06,
    }
    assert set(table.radii) == set(reference)
    for alpha, r in reference.items():
        assert table.radii[alpha] <= r, alpha
    assert table.E_total().hi <= 7.829448631201738e-05


def test_jet_operator_from_the_context_is_bit_identical(run):
    # a fresh context visits the jet shifts out of order and repeats one:
    # each block equals the one base_block builds afresh
    cfg, _, _, table = run
    ctx = stages._StageContext(table.orders[(0, 0)], cfg, table.omega, table.K,
                               table.nu, model.IntervalArith(cfg))
    for alpha in [(3, 0), (1, 1), (2, 0), (3, 0), (2, 1)]:
        s = stages._jet_shift(alpha, table.lambda_bar)
        J = ctx.window_block(s)
        diag = -1j * ctx.omega * numerics.kvals(ctx.K) - s
        fresh = numerics.base_block(ctx.fconst, ctx.fkers, ctx.K, diag)
        assert np.array_equal(J.view(np.uint64), fresh.view(np.uint64)), alpha


def _stage_defects(run, ctx):
    """(J, the oracle's enclosure E of DF(x_bar), the stage's window defect)
    for order 0, order 1 and the shift of jet (2,1)."""
    cfg, res0, _, table = run
    sol = res0.context[0]
    data, _ = stages._assemble_orbit(sol, ctx, model.IntervalArith(cfg))
    yield data.J, oracles.orbit_enclosure(sol, ctx), data.window_defect
    coeffs = np.array([a.c.mid() for a in table.orders[(1, 0)]])
    bsol = stages.BundleSolution(KIND, table.lambda_bar, coeffs, K0, XI0)
    data, _ = stages._assemble_bundle(bsol, ctx, table.radii[(0, 0)])
    yield data.J, oracles.bundle_enclosure(bsol, ctx), data.window_defect
    s = stages._jet_shift((2, 1), table.lambda_bar)
    J = ctx.window_block(s)
    yield J, oracles.base_enclosure(ctx, 0, s), stages._window_defect(ctx, J, 0, s)


@pytest.mark.parametrize("moved", [False, True])
def test_window_defect_dominates_the_entrywise_defect(run, monkeypatch, moved):
    # delta, the operator norm of the stage's block table, bounds that of the
    # entrywise bound |E - J|, and so does each block, up to what block_norms
    # adds to a column sum ((4n + 64) 2^-50 relative, and subnormal slack).
    # Moved: one float kernel coefficient off the diagonal is 1e-9 off, so J
    # is built from it and delta must follow.
    cfg, res0, _, _ = run
    sol = res0.context[0]
    if moved:
        kernels = numerics.derivative_kernels

        def moved_kernels(A, ms, pos):
            const, kers = kernels(A, ms, pos)
            ker = kers[6][6].copy()
            ker[(len(ker) + 1) // 2] += 1e-9
            kers[6][6] = ker
            return const, kers
        monkeypatch.setattr(numerics, "derivative_kernels", moved_kernels)
    ctx = stages._StageContext(sol.seqs(), cfg, sol.omega, sol.K, sol.nu,
                               model.IntervalArith(cfg))
    for J, E, N in _stage_defects(run, ctx):
        ns = N.shape[0] - 9
        layout = SpaceLayout.mixed(ns, 9, ctx.K)
        entrywise = block_norms(E.corner_abs(J), layout, layout, ctx.nu)
        assert opnorm_upper(entrywise) <= opnorm_upper(N), ns
        assert (entrywise <= N * (1.0 + 1e-12) + 1e-300).all(), ns
        assert (opnorm_upper(entrywise) >= 1e-9) == moved


def test_report_splits_z1(run):
    # Z1 = Z1_tail + Z1_window + the data part; the window part is rounding
    cfg, res0, _, table = run
    for bounds in (res0.bounds, stages.validate_jet((2, 0), table, cfg).bounds):
        assert bounds["Z1"] >= bounds["Z1_tail"] > 0.0
        assert 0.0 < bounds["Z1_window"] <= 1e-6 * bounds["Z1"]


@pytest.fixture
def dense_calls(monkeypatch):
    """The `np.linalg.inv` and `np.linalg.solve` calls made while the test
    runs.  Gives a function that reads the calls so far as (name, process
    id) pairs, those of one name when given."""
    log = []

    def logged(name, fn):
        def call(*args, **kwargs):
            log.append((name, os.getpid()))
            return fn(*args, **kwargs)
        return call

    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, logged(name, getattr(np.linalg, name)))

    def calls(name=None):
        return [c for c in log if name in (None, c[0])]
    return calls


def _held_bytes(obj, seen) -> int:
    """Bytes of the numpy arrays obj holds, through lists, tuples, dicts and
    the attributes of fourbody objects; an array held twice counts once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif type(obj).__module__.startswith("fourbody"):
        items = [getattr(obj, k) for k in getattr(obj, "__slots__", ()) if hasattr(obj, k)]
        items += list(getattr(obj, "__dict__", {}).values())
    else:
        return 0
    return sum(_held_bytes(item, seen) for item in items)


def test_jets_leave_the_operator_work_to_the_context(run, monkeypatch):
    # counts and sizes, not timings: the jets make no endpoint convolution,
    # and after each public stage call the context holds O(N) floats and no
    # N x N array (the inverses are counted by the next test)
    cfg, res0, _, table = run
    sol = res0.context[0]
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    calls = {"carr_conv_batch": 0}

    def counted(owner, name):
        # in its home module and in every module that imported it by name
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("fourbody") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)

    res = stages.validate_order0(sol, cfg)
    start = stages.start_jet_table(KIND, sol, res, cfg, lam, v, K0, XI0, N_T)
    assert start.ctx_cache[1]._block is None and start.ctx_cache[1]._op is None
    counted(ivarray, "carr_conv_batch")
    again = stages.extend_with_jets(start, cfg)
    assert again.digest() == table.digest()
    assert calls == {"carr_conv_batch": 0}

    ctx = again.ctx_cache[1]
    assert stages.validate_jet((2, 1), again, cfg).cert == again.certs["jet:2,1:%s" % KIND]
    assert ctx._block is None and ctx._op is None
    N = 9 * (2 * ctx.K - 1)
    # all of it, the kernels of df0 and the nested lists included: 144.3 N
    # floats at K = 24, the 13.1 N of kmags and the 3.7 N of their tail
    # profiles among them
    assert _held_bytes(ctx, set()) <= 8 * 145 * N


def test_no_dense_solve_or_inverse_in_a_worker(run, dense_calls):
    # counts, not timings: a jet takes its step with its certificate's
    # inverse, so the jets make no solve, and this process makes the one
    # inverse of each distinct shift (2 for the 4 jets), whatever jobs is
    cfg, _, start, table = run
    shifts = {stages._jet_shift(a, table.lambda_bar) for a in table.radii if sum(a) >= 2}
    parent = os.getpid()
    for jobs in (1, 2):
        before = len(dense_calls())
        again = stages.extend_with_jets(stages.rescale_jets(start, 1.0), cfg, jobs=jobs)
        assert again.digest() == table.digest()
        assert dense_calls()[before:] == [("inv", parent)] * len(shifts), jobs
    assert len(shifts) == 2


def test_no_jet_keeps_the_zero_guess(run):
    # the jets of the benchmark's pool workload (N_t = 6, jobs = 2): every
    # solved jet took its step, none kept the zero guess, every center
    # solves its truncated problem far below NEWTON_TOL, and jobs = 1 gives
    # the same table
    cfg, _, start, _ = run
    arg = replace(stages.rescale_jets(start, 1.0), N_t=6)
    table = stages.extend_with_jets(arg, cfg, jobs=2)
    assert table.complete() and table.gamma_scale == 1.0
    solved = [a for a in table.orders if sum(a) >= 2 and a[0] >= a[1]]
    assert len(solved) == 14
    worst = 0.0
    for alpha in solved:
        z = np.concatenate([seq.c.mid() for seq in table.orders[alpha]])
        assert np.any(z != 0), alpha
        residual, _ = stages.jet_problem(alpha, table, cfg)
        worst = max(worst, float(np.abs(residual(z)).max()))
    assert worst <= 1e-16
    assert stages.extend_with_jets(arg, cfg, jobs=1).digest() == table.digest()


def test_kept_jet_operator_is_never_stale(run, dense_calls):
    # one context visits the jets out of order and repeats a shift: each
    # jet's certificate and report equal, bit for bit, those of a fresh
    # context per jet and the table's, and the context inverts only when
    # the shift changes
    cfg, _, _, table = run

    def context():
        return stages._StageContext(table.orders[(0, 0)], cfg, table.omega,
                                    table.K, table.nu,
                                    model.IntervalArith(cfg))

    kept = context()
    for alpha in [(3, 0), (1, 1), (2, 0), (3, 0), (2, 1)]:
        layer = stages._fresh_layer(table, cfg, alpha)
        before = len(dense_calls("inv"))
        res = stages._jet_task(kept, layer, kept.jet_operator(layer.shift))
        again = len(dense_calls("inv")) - before
        ctx = context()
        fresh = stages._jet_task(ctx, layer, ctx.jet_operator(layer.shift))
        assert res.cert.to_json_obj() == fresh.cert.to_json_obj(), alpha
        assert json.dumps(res.bounds) == json.dumps(fresh.bounds), alpha
        assert res.cert == table.certs[res.cert.stage], alpha
        assert again == (alpha in [(3, 0), (1, 1)]), alpha


def test_failed_certificate_carries_its_bounds(run, monkeypatch):
    # a cap below the order-0 radius fails its certificate; the error names
    # the stage and carries the bounds the successful run reported
    cfg, res0, _, _ = run
    monkeypatch.setattr(stages, "R_STAR", 1e-12)
    with pytest.raises(NoNegativeRadius) as info:
        stages.validate_order0(res0.context[0], cfg)
    want = {k: v for k, v in res0.bounds.items() if k not in ("r0", "r_max")}
    assert json.dumps(info.value.bounds) == json.dumps(want)
    assert info.value.poly is not None
    message = str(info.value)
    assert "'order0'" in message
    for name in ("Y", "Z0", "Z1"):
        assert "%s = %.3e" % (name, want[name]) in message


def test_fourbody_command(run, tmp_path):
    # `python -m fourbody` runs cli.main, and so does the installed script
    _, _, _, table = run
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_obj()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "fourbody", "recheck", str(path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == len(table.certs)
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, name = scripts["fourbody"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_json_roundtrip_keeps_digest(run):
    _, _, _, table = run
    blob = json.dumps(table.to_json_obj())
    again = stages.JetTable.from_json_obj(json.loads(blob))
    assert again.digest() == table.digest()
    assert np.isfinite(again.E_total().hi)


def test_jets_evaluate_each_remainder_field_once(run, monkeypatch):
    # counts, not timings: the jets never call the float remainder, and each
    # arithmetic evaluates the field once per order, the orders after the
    # first taking the product layers of the order before
    cfg, _, start, table = run

    def float_remainder(*args):
        raise AssertionError("numerics.remainder_layer on the jet path")

    evaluations = []
    init = stages._Incremental.__init__

    def counted(self, base, order, old, keep, inputs, plans):
        evaluations.append((type(base).__name__, order, keep))
        init(self, base, order, old, keep, inputs, plans)

    monkeypatch.setattr(numerics, "remainder_layer", float_remainder)
    monkeypatch.setattr(stages._Incremental, "__init__", counted)
    arg = stages.rescale_jets(start, 1.0)
    before = arg.digest()
    again = stages.extend_with_jets(arg, cfg)
    assert again.digest() == table.digest()
    # the jets go into a copy; the argument is left as it was
    assert arg.digest() == before
    assert sorted(evaluations) == sorted(
        (arith, p, 0 if p == 2 else p - 1)
        for arith in ("FloatArith", "_NormRad") for p in range(2, N_T + 1))


def test_lanes_share_the_cauchy_plans(run, monkeypatch):
    # counts: the float and the norm lane of a level make the same products,
    # so each node's layer keys and factor pairs are made once, by one lane
    cfg, _, _, table = run
    made = []
    plan = numerics._cauchy_plan

    def counted(b, c, alphas):
        made.append(len(alphas))
        return plan(b, c, alphas)

    monkeypatch.setattr(numerics, "_cauchy_plan", counted)
    fields = None
    for p in range(2, N_T + 1):
        made.clear()
        fields = stages._level_fields(table, cfg, p, fields)
        (floats, _), (norms, _) = fields
        assert floats.plans is norms.plans
        assert len(made) == len(floats.nodes) == len(norms.nodes) > 0


def test_product_fold_work(run, monkeypatch):
    # counts, not timings: a product layer of the float lane is one
    # np.convolve per Cauchy pair, and no disc arithmetic (mr_add) runs
    cfg, _, _, table = run
    inside = []
    nodes = []
    convolve, mr_add = np.convolve, ivarray.mr_add
    layers = numerics.FloatArith.product_layers

    def counted_convolve(*args, **kwargs):
        if inside:
            inside[-1]["convolve"] += 1
        return convolve(*args, **kwargs)

    def counted_mr_add(*args):
        nodes.append({"mr_add": 1})
        return mr_add(*args)

    def counted_layers(b, c, plan):
        pairs = sum(len(keys) for _, keys in plan)
        inside.append({"convolve": 0, "pairs": pairs})
        try:
            return layers(b, c, plan)
        finally:
            nodes.append(inside.pop())

    monkeypatch.setattr(np, "convolve", counted_convolve)
    monkeypatch.setattr(ivarray, "mr_add", counted_mr_add)
    monkeypatch.setattr(model, "mr_add", counted_mr_add)
    monkeypatch.setattr(numerics.FloatArith, "product_layers", staticmethod(counted_layers))
    fields = None
    for p in range(2, N_T + 1):
        fields = stages._level_fields(table, cfg, p, fields)
    assert nodes and sum(w["pairs"] for w in nodes) > len(nodes)
    for work in nodes:
        assert work.get("convolve") == work["pairs"], work


def test_jets_start_no_process(run, monkeypatch):
    # jobs = 2 runs every jet in this process: with process pools, process
    # starts and forks all refused, it gives the table of jobs = 1 and
    # leaves no child behind
    cfg, _, start, table = run

    def refuse(*args, **kwargs):
        raise AssertionError("the jets started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    # every multiprocessing process class starts through BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    again = stages.extend_with_jets(stages.rescale_jets(start, 1.0), cfg, jobs=2)
    assert again.digest() == table.digest()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_jet_is_retried_once_on_one_pool(run, monkeypatch, jobs):
    # a jet whose certificate fails triggers one gamma rescale, a second
    # failure is raised, no child process is left, and the argument is left
    # as it was either way, whatever jobs is
    cfg, _, start, _ = run
    arg = stages.rescale_jets(start, 1.0)
    before = arg.digest()
    radii_newton = stages.radii_newton

    def fail_first(times):
        # the attempts at jet (3,0)
        log = []

        def certify(bounds, stage, inputs_digest):
            if stage == "jet:3,0:%s" % KIND:
                log.append(stage)
                if len(log) <= times:
                    raise NoNegativeRadius("no radius for " + stage)
            return radii_newton(bounds, stage=stage, inputs_digest=inputs_digest)

        monkeypatch.setattr(stages, "radii_newton", certify)
        return log

    log = fail_first(1)
    retried = stages.extend_with_jets(arg, cfg, jobs=jobs)
    assert len(log) == 2
    assert retried.complete() and retried.gamma_scale == 0.7
    assert arg.digest() == before
    assert multiprocessing.active_children() == []
    log = fail_first(3)
    with pytest.raises(NoNegativeRadius):
        stages.extend_with_jets(arg, cfg, jobs=jobs)
    assert len(log) == 2
    assert arg.digest() == before
    assert multiprocessing.active_children() == []


def test_recheck_command(run, tmp_path, capsys):
    _, _, _, table = run
    good = tmp_path / "table.json"
    good.write_text(json.dumps(table.to_json_obj()))
    assert cli.main(["recheck", str(good)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(table.certs)
    assert all(line.startswith("ok ") for line in lines)

    stage = "jet:3,0:%s" % KIND
    # a digest that no longer names the certificate
    obj = json.loads(good.read_text())
    obj["digests"][stage] = obj["digests"]["order0"]
    bad = tmp_path / "digest.json"
    bad.write_text(json.dumps(obj))
    assert cli.main(["recheck", str(bad)]) == 1
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")] == [
        "FAIL %s  r0=%.3e  digest" % (stage, table.certs[stage].r0)]
    # a radius at the cap, with its digest chained again
    obj = json.loads(good.read_text())
    obj["certs"][stage]["r0"] = obj["certs"][stage]["r_star"]
    obj["digests"][stage] = content_digest(obj["certs"][stage])
    bad = tmp_path / "radius.json"
    bad.write_text(json.dumps(obj))
    assert cli.main(["recheck", str(bad)]) == 1
    # the table's radii of the jet now lie below the r0 its certificate claims
    r = table.radii[(3, 0)]
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")] == ["FAIL %s  r0=1.000e-02  recheck" % stage] + [
        "FAIL radius %s  r=%.3e below %s r0*gamma^3=1.000e-02" % (a, r, stage)
        for a in ("0,3", "3,0")]

    def recheck(obj, name):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        status = cli.main(["recheck", str(path)])
        out, err = capsys.readouterr()
        return status, [line for line in out.splitlines() if line.startswith("FAIL")], err

    # an inverted interval cannot be read as a table
    obj = json.loads(good.read_text())
    lo, hi, ilo, ihi = obj["lambda1"]
    obj["lambda1"] = [hi, lo, ilo, ihi]
    status, fails, err = recheck(obj, "inverted.json")
    assert status == 2 and fails == [] and "cannot read" in err
    # a radius below the r0 of its certificate
    obj = json.loads(good.read_text())
    obj["radii"]["3,0"] = (1e-30).hex()
    status, fails, _ = recheck(obj, "small.json")
    assert status == 1
    assert fails == ["FAIL %s  r0=%.3e  mirror" % (stage, table.certs[stage].r0),
                     "FAIL radius 3,0  r=1.000e-30 below %s r0*gamma^3=%.3e"
                     % (stage, table.certs[stage].r0)]
    # a radius whose certificate and digest are gone: the jet and its mirror
    obj = json.loads(good.read_text())
    del obj["certs"][stage], obj["digests"][stage]
    status, fails, _ = recheck(obj, "uncertified.json")
    assert status == 1
    assert fails == ["FAIL radius %s  no certificate %s" % (a, stage) for a in ("0,3", "3,0")]

    def moved(obj, alpha, k, by):
        entry = obj["orders"][alpha][0]["entries"][K - 1 + k]
        entry[1] = entry[2] = (float.fromhex(entry[1]) + by).hex()

    jet2 = "jet:2,0:%s" % KIND
    # a center of (2,0) moved by 0.5: no longer the certified one, nor the
    # reflection of its mirror
    obj = json.loads(good.read_text())
    moved(obj, "2,0", 1, 0.5)
    status, fails, _ = recheck(obj, "moved.json")
    assert status == 1
    assert fails == ["FAIL %s  r0=%.3e  centers mirror" % (jet2, table.certs[jet2].r0)]
    # the same move on both (2,0) and its mirror: only the digest tells
    moved(obj, "0,2", -1, 0.5)
    status, fails, _ = recheck(obj, "moved_both.json")
    assert status == 1
    assert fails == ["FAIL %s  r0=%.3e  centers" % (jet2, table.certs[jet2].r0)]
    # an edited mirror of order 1
    obj = json.loads(good.read_text())
    moved(obj, "0,1", 0, 1e-9)
    status, fails, _ = recheck(obj, "mirror.json")
    assert status == 1
    assert fails == ["FAIL order1  r0=%.3e  mirror" % table.certs["order1"].r0]
    # a stage whose name gives no (m,n) cannot be tied to centers
    obj = json.loads(good.read_text())
    obj["certs"]["jet:x"] = obj["certs"].pop(stage)
    obj["digests"]["jet:x"] = obj["digests"].pop(stage)
    status, fails, _ = recheck(obj, "unnamed.json")
    assert status == 1 and "FAIL jet:x  r0=%.3e  centers" % table.certs[stage].r0 in fails
    # a rescaled table: its centers are no points, and only get a note
    path = tmp_path / "rescaled.json"
    path.write_text(json.dumps(stages.rescale_jets(table, 0.5).to_json_obj()))
    assert cli.main(["recheck", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("note ")] == sorted(
        s for s in table.certs if s != "order0")
