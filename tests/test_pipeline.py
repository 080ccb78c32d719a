"""End-to-end certified run of the reference configuration.

Masses 1/2, 3/10, 1/5; the planar equilibrium ~ (0.0793, -0.2016); the
vertical orbit on the Jacobi level H0 - 0.3; nu = 1.5; the unstable Floquet
bundle with k0 = 3 and xi0 = 1e-4.  K = 24 and N_t = 3 keep the run to a few
seconds.
"""

import concurrent.futures
import gc
import gzip
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from fourbody import cli, ivarray, model, numerics, seeding, seqspace, stages
from fourbody.opbound import Q_SIGMA, SpaceLayout, block_norms, class_slots, opnorm_upper
from fourbody.radii import NoNegativeRadius, content_digest
from fourbody.seqspace import FourierSeq
from fourbody.table import JetTable, solved, source

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
    eq = oracles.rest_point(cfg, oracles.REFERENCE_REST_POINT)
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
        assert enc.re.contains(0.0) and enc.im.contains(0.0)


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
    # the one the reference unfolding term gives, and the certificate reads
    # its midpoints, radii and moduli, bit for bit
    cfg, res0, _, table = run
    sol, _, ctx = res0.context
    _, asm = stages._assemble_orbit(sol, ctx)
    F = model.field_F_grid(ctx.a0, model.IntervalArith(cfg))
    G = oracles.unfold_orbit_G([complex(t) for t in sol.y], ctx.a0)
    for i, got in enumerate(asm.resid_seqs):
        c = ctx.a0[i].dtheta().scale(-ctx.omega).add(F[i]).add(G[i]).c
        want = (c.mid(), c.rad(), c.mag())
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], i
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
    const, kernels = model.field_derivative(model.IntervalArith(cfg), ctx.a0)
    assert fconst == const
    for i in range(9):
        for j in range(9):
            for got, want, as_bytes in ((kernels[i][j], ikers[i][j], lane_bytes),
                                        (got_fkers[i][j], fkers[i][j], np.ndarray.tobytes)):
                assert (got is None) == (want is None), (i, j)
                if got is not None:
                    assert as_bytes(got) == as_bytes(want), (i, j)


@pytest.mark.parametrize("s", [0.0, 2.7245102915, -8.17])
def test_diagonal_term_encloses_the_exact_product(s):
    # every disc of _diagonal_term holds (-s - i omega k) a_k, computed in
    # exact rationals, on the whole window |k| <= K - 1, with coefficients
    # near and below the underflow threshold among random ones
    gen = np.random.default_rng(17)
    K = 24
    omega = float(gen.uniform(1.0, 3.0))
    a = gen.uniform(-1.0, 1.0, 2 * K - 1) + 1j * gen.uniform(-1.0, 1.0, 2 * K - 1)
    a[0] = 1e-300 - 3e-300j
    a[-1] = 3e-310 + 1e-305j
    a[K - 2] = 5e-324 - 7e-320j
    a[K] = 1e-160j
    mid, rad = stages._diagonal_term(a, omega, s)
    for k, ak, m, r in zip(numerics.kvals(K), a, mid, rad):
        exact = oracles.cq_mul((oracles.q(-s), -oracles.q(omega) * int(k)), oracles.cq(ak))
        dre, dim = oracles.q(m.real) - exact[0], oracles.q(m.imag) - exact[1]
        assert dre * dre + dim * dim <= oracles.q(r) ** 2, k


def _disc_meets_box(m, r, box, k) -> bool:
    """Whether the disc |z - m| <= r meets box entry k, in exact rationals."""
    q = oracles.q
    dx = max(q(box.rl[k]) - q(m.real), q(m.real) - q(box.rh[k]), 0)
    dy = max(q(box.il[k]) - q(m.imag), q(m.imag) - q(box.ih[k]), 0)
    return dx * dx + dy * dy <= q(r) ** 2


def test_disc_residual_meets_the_endpoint_chain(run):
    # order 1 and two jets: each coefficient of the disc residual meets the
    # box of the endpoint chain the stages once took, and on the class of Q
    # that the certificate reads, its radius is no larger than the box's
    # circumscribed radius.  Off the class the box is the exact zero and the
    # disc is zero with the underflow slack of the disc kernels.
    cfg, _, _, table = run
    ctx = stages._context_for(table, cfg)
    lam = table.lambda_bar
    cases = [(table.orders[(1, 0)], lam, None)]
    fields = numerics._level_fields(table, cfg, 2)
    for alpha in ((2, 0), (1, 1)):
        cases.append((table.orders[alpha], 2 * lam, numerics._jet_rhs(fields, alpha)[0]))
    for centers, s, rhs in cases:
        got = stages._affine_residual(ctx, [c.c.mid() for c in centers], s, rhs)
        want = oracles.endpoint_residual(ctx, centers, s, rhs)
        for i, ((m, r, mags), w) in enumerate(zip(got, want)):
            box = w.c
            assert len(m) == len(r) == len(mags) == len(box), i
            k = np.arange(len(m)) - (len(m) - 1) // 2
            on = Q_SIGMA[i] * (1 - 2 * (k % 2)) == 1
            assert (r[on] <= box.rad()[on]).all(), i
            assert not m[~on].any() and (r[~on] <= 1e-300).all(), i
            assert all(_disc_meets_box(m[k], r[k], box, k) for k in range(len(m))), i


def test_order0_makes_each_product_once(run, monkeypatch):
    # counts, not timings: order 0's field makes its only endpoint
    # convolutions, 24, eight per primary, in one IntervalArith that goes
    # when validate_order0 returns; the unfolding term and pre_Z1 read the
    # field's squares and cubes of w_j, and the context takes the kernels
    # of DF0 as discs from `numerics._DiscArith`
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
    assert len(calls) == 24
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    # neither the returned context nor the one the JetTable caches holds one
    for ctx in (res.context[2], start.ctx_cache[1]):
        assert not any(isinstance(v, model.IntervalArith) for v in vars(ctx).values())


def test_a_loaded_table_makes_no_endpoint_product(monkeypatch):
    # the context rebuilt from a table that an earlier version of the code
    # saved makes no endpoint convolution, and the table extends from it
    # to N_t = 3, complete and rechecked
    with gzip.open(ROOT / "tests" / "data" / "table_k24_nt2.json.gz", "rt") as fh:
        table = JetTable.from_json_obj(json.load(fh))
    cfg = model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))
    calls = []
    carr_conv = seqspace.carr_conv

    def counted(a, b):
        calls.append((len(a), len(b)))
        return carr_conv(a, b)

    monkeypatch.setattr(seqspace, "carr_conv", counted)
    ctx = stages._context_for(table, cfg)
    assert calls == [] and table.ctx_cache[1] is ctx
    table.N_t = 3
    longer = stages.extend_with_jets(table, cfg)
    assert longer.complete() and (3, 0) in longer.radii
    assert all(cert.recheck() for cert in longer.certs.values())


def _reference_context(run, K):
    """The stage context of the run's order 0, or of the reference orbit
    seeded at another K."""
    cfg, res0, _, _ = run
    if K == res0.context[0].K:
        return res0.context[2]
    eq = oracles.rest_point(cfg, oracles.REFERENCE_REST_POINT)
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, K, NU)
    return stages._StageContext(sol.seqs(), cfg, sol.omega, sol.K, sol.nu)


@pytest.mark.parametrize("K", [24, 40])
def test_context_discs_hold_the_endpoint_kernels(run, K):
    # the context takes DF(a0) as the discs of `numerics._DiscArith`, float
    # kernels and a radius per coefficient; the endpoint kernels at a0 are
    # the reference: every box lies in its disc of DF0, in exact rationals,
    # and kgap, knorms, kmags and the diagonal's centre enclosure bound the
    # boxes
    ctx = _reference_context(run, K)
    assert ctx.K == K
    q = oracles.q
    const, kernels = model.field_derivative(model.IntervalArith(ctx.cfg), ctx.a0)
    assert np.array_equal(ctx.const, const)
    for i in range(9):
        for j in range(9):
            ker, disc = kernels[i][j], ctx.df0.discs[i][j]
            assert (ker is None) == (disc is None) == (ctx.kmags[i][j] is None), (i, j)
            if ker is None:
                continue
            m, rad = disc
            box = ker.c
            assert len(m) == len(rad) == len(box), (i, j)
            dx = np.maximum(np.abs(box.rl - m.real), np.abs(box.rh - m.real))
            dy = np.maximum(np.abs(box.il - m.imag), np.abs(box.ih - m.imag))
            for k in range(len(m)):
                far = [max(abs(q(e) - q(m[k].real)) for e in (box.rl[k], box.rh[k])),
                       max(abs(q(e) - q(m[k].imag)) for e in (box.il[k], box.ih[k]))]
                assert far[0] ** 2 + far[1] ** 2 <= q(rad[k]) ** 2, (i, j, k)
            W = (len(m) - 1) // 2
            w = ctx.nu ** np.abs(np.arange(-W, W + 1))
            assert ctx.kgap[i, j] >= np.sum(np.hypot(dx, dy) * w), (i, j)
            assert ctx.knorms[i, j] >= np.sum(box.mag() * w), (i, j)
            assert (ctx.kmags[i][j] >= box.mag()).all(), (i, j)
            # the diagonal's enclosure c + ker(0)
            c, centre = q(const[i][j]), ctx.dconst.slice((i, j))
            assert (q(float(centre.rl)) <= q(box.rl[W]) + c <= q(box.rh[W]) + c
                    <= q(float(centre.rh))), (i, j)
            assert centre.il <= box.il[W] <= box.ih[W] <= centre.ih, (i, j)


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
    # the radii of this run, jet by jet, with every stage on its class of Q;
    # unlike the digest they do not depend on the BLAS build or its thread
    # count
    _, _, _, table = run
    reference = {
        (0, 0): 9.6411088049075e-10,
        (1, 0): 1.2005080577484066e-06, (0, 1): 1.2005080577484066e-06,
        (2, 0): 3.10501349512486e-06, (1, 1): 4.99358789347314e-06,
        (0, 2): 3.10501349512486e-06,
        (3, 0): 3.10501349512486e-06, (2, 1): 8.030857221391521e-06,
        (1, 2): 8.030857221391521e-06, (0, 3): 3.10501349512486e-06,
    }
    assert set(table.radii) == set(reference)
    for alpha, r in reference.items():
        assert table.radii[alpha] <= r, alpha
    assert table.E_total().hi <= 3.5877336543132936e-05


def _pipeline(cfg, K, N_t, nu):
    """The reference pipeline at K, N_t and nu: the jet table."""
    eq = oracles.rest_point(cfg, oracles.REFERENCE_REST_POINT)
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, K, nu)
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    res0 = stages.validate_order0(sol, cfg)
    start = stages.start_jet_table(KIND, sol, res0, cfg, lam, v, K0, XI0, N_t)
    return stages.extend_with_jets(start, cfg)


def test_dense_algebra_stays_in_one_class(run, monkeypatch):
    # the performance invariant: a whole K = 24, N_t = 3 pipeline, seeding
    # included, inverts and solves nothing larger than a stage's scalars and
    # one class of Q (209 of the 423 slots at K = 24): 5 + the class at
    # K = 12 and 24 for seeding's level system, 4 + it for order 0, 1 + it
    # for order 1 and the class alone for the jets
    orders = []

    def recorded(fn):
        def call(*args, **kwargs):
            orders.append(np.shape(args[0])[-1])
            return fn(*args, **kwargs)
        return call

    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    table = _pipeline(run[0], K, N_T, NU)
    assert table.digest() == run[3].digest()
    size = {k: len(class_slots(k, 1)) for k in (12, K)}
    assert size[K] == 209
    assert set(orders) == {5 + size[12], 5 + size[K], 4 + size[K], 1 + size[K], size[K]}


# the radii of the K = 64, N_t = 6, nu = 1.3 reference run with the
# whole-space operators, which the ROADMAP's table of reference runs rounds
K64_RADII = {
    (0, 0): "0x1.4991e85eed345p-31", (1, 0): "0x1.f26305b896123p-22",
    (2, 0): "0x1.90c2e2c6c05f5p-21", (1, 1): "0x1.4242491987efcp-20",
    (3, 0): "0x1.f26305b896123p-22", (2, 1): "0x1.4242491987efcp-20",
    (4, 0): "0x1.816350011ef52p-23", (3, 1): "0x1.f26305b896123p-22",
    (2, 2): "0x1.90c2e2c6c05f5p-21", (5, 0): "0x1.729ab5856dbddp-25",
    (4, 1): "0x1.816350011ef52p-23", (3, 2): "0x1.35e59fd6a0197p-22",
    (6, 0): "0x1.bb343825939a3p-28", (5, 1): "0x1.729ab5856dbddp-25",
    (4, 2): "0x1.2a025c521b43fp-24", (3, 3): "0x1.df44be148df73p-24",
}


def test_k64_nu_1_3_certifies_within_the_reference_radii(run):
    # every stage of the K = 64, N_t = 6, nu = 1.3 reference run certifies
    # in its class of Q with every radius, alpha by alpha, and E_total no
    # larger than with the whole-space operators
    table = _pipeline(run[0], 64, 6, 1.3)
    assert table.complete() and table.gamma_scale == 1.0
    for alpha, r in K64_RADII.items():
        for a in {alpha, alpha[::-1]}:
            assert table.radii[a] <= float.fromhex(r), a
    assert table.E_total().hi <= 1.0357413e-05


# the radii of the benchmark's wide run, K = 40, N_t = 4, nu = 1.5, with
# every stage on its class of Q
WIDE_RADII = {
    (0, 0): "0x1.3ced7352f000bp-33", (1, 0): "0x1.816350011ef52p-23",
    (2, 0): "0x1.35e59fd6a0197p-22", (1, 1): "0x1.90c2e2c6c05f5p-21",
    (3, 0): "0x1.816350011ef52p-23", (2, 1): "0x1.90c2e2c6c05f5p-21",
    (4, 0): "0x1.2a025c521b43fp-24", (3, 1): "0x1.f26305b896123p-22",
    (2, 2): "0x1.90c2e2c6c05f5p-21",
}


def test_wide_certifies_within_the_reference_radii(run):
    # every stage of the benchmark's wide run certifies with every radius,
    # alpha by alpha, and E_total no larger than the reference's
    table = _pipeline(run[0], 40, 4, NU)
    assert table.complete() and table.gamma_scale == 1.0
    for alpha, r in WIDE_RADII.items():
        for a in {alpha, alpha[::-1]}:
            assert table.radii[a] <= float.fromhex(r), a
    assert table.E_total().hi <= 5.348206474028754e-06


# the rest point of the reference masses whose vertical family, at the
# Jacobi drop 1.0, has its unstable bundle in class -1 of Q
CLASS_M1_REST_POINT = (-0.2230118, -0.8881722)


@pytest.fixture(scope="module")
def flow_tables(run):
    """The run's unstable table, the stable table of its orbit, and a class
    -1 table: the reference masses at CLASS_M1_REST_POINT, drop 1.0,
    K = 32, nu = 1.2, N_t = 3."""
    cfg, res0, _, table = run
    sol = res0.context[0]
    lam, v = seeding.bundle_guess(cfg, sol, "stable", K0, XI0)
    start = stages.start_jet_table("stable", sol, res0, cfg, lam, v, K0, XI0, N_T)
    stable = stages.extend_with_jets(start, cfg)
    eq = oracles.rest_point(cfg, CLASS_M1_REST_POINT, tol=1e-6)
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 1.0, 32, 1.2)
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    res = stages.validate_order0(sol, cfg)
    start = stages.start_jet_table(KIND, sol, res, cfg, lam, v, K0, XI0, N_T)
    odd = stages.extend_with_jets(start, cfg)
    return {"unstable": table, "stable": stable, "class -1": odd}, cfg


@pytest.mark.parametrize("which", ["unstable", "stable", "class -1"])
def test_the_table_conjugates_the_flow(flow_tables, which):
    # phi_t(P(theta, sigma)) = P(theta + omega t, e^(lambda t) sigma) on the
    # patch sigma <= 0.1, in the direction of time that shrinks sigma, to
    # 1e-11, a tolerance of the integrator and of the orders above N_t = 3
    # (the defect is 1e-13 to 2e-12 on these tables; at sigma = 0.5 the
    # orders left out give 1e-10 to 2e-9).  A copy with jet (2, 0) and its
    # mirror scaled by 1 + 1e-3 fails, by 1.4e-10 to 3.9e-10.
    tables, cfg = flow_tables
    table = tables[which]
    assert table.complete() and table.gamma_scale == 1.0
    assert stages._jet_class(table, 1) == (-1 if which == "class -1" else 1)
    assert all(cert.recheck() for cert in table.certs.values())
    side = -1.0 if table.lambda_bar > 0.0 else 1.0
    args = (cfg, (0.05, 0.1), (0.2 * side, 0.5 * side), np.linspace(0.0, 2 * np.pi, 5)[:-1])
    assert oracles.flow_defect(table, *args) <= 1e-11
    moved = stages.rescale_jets(table, 1.0)
    for alpha in ((2, 0), (0, 2)):
        moved.orders[alpha] = tuple(s.scale(1.0 + 1e-3) for s in moved.orders[alpha])
    assert oracles.flow_defect(moved, *args) > 1e-11


def test_an_unclean_centre_is_refused(run):
    # each stage is posed on one class of Q, and refuses by an exact test a
    # centre with an entry off it, here 1e-20 on one mode, naming the stage,
    # the class and the entry's modulus; a report names its class and the
    # size of its operator
    cfg, res0, _, table = run
    off = np.setdiff1d(np.arange(9 * (2 * K - 1)), class_slots(K, 1))[0]
    msg = r": the centre is not in class \+1 of Q: an entry off the class has " \
          r"modulus 1\.000e-20$"

    def nudged(rows):
        rows = np.array([r.c.mid() if isinstance(r, FourierSeq) else r for r in rows],
                        dtype=complex)
        rows.ravel()[off] += 1e-20
        return rows

    sol = res0.context[0]
    with pytest.raises(ValueError, match="^order0" + msg):
        stages.validate_order0(replace(sol, coeffs=nudged(sol.coeffs)), cfg)
    a1 = nudged(table.orders[(1, 0)])
    bsol = stages.BundleSolution(KIND, table.lambda_bar, a1, K0, XI0)
    with pytest.raises(ValueError, match="^order1:%s" % KIND + msg):
        stages.validate_order1(bsol, table, cfg)
    jet = stages.rescale_jets(table, 1.0)
    jet.orders[(2, 0)] = tuple(FourierSeq.point(r, NU) for r in nudged(jet.orders[(2, 0)]))
    with pytest.raises(ValueError, match="^jet:2,0:%s" % KIND + msg):
        stages.validate_jet((2, 0), jet, cfg)

    n = len(class_slots(K, 1))
    bsol = replace(bsol, coeffs=np.array([s.c.mid() for s in table.orders[(1, 0)]]))
    for ns, bounds in ((4, res0.bounds), (1, stages.validate_order1(bsol, table, cfg).bounds),
                       (0, stages.validate_jet((2, 1), table, cfg).bounds)):
        assert (bounds["cls"], bounds["N"]) == (1, ns + n), ns


def test_bundle_certifies_at_k64_nu_1_5(run):
    # the bundle guess is exactly zero beyond the Hill matrix's 12 modes, and
    # the step of order 1's Newton at K leaves its high modes decaying with
    # the orbit's; a guess with a rounding floor there (|a_1,k| ~ 3e-16 for
    # k >= 40, times nu^|k|) gave order 1 a Y of 1.5e-4 and no radius
    cfg = run[0]
    eq = oracles.rest_point(cfg, oracles.REFERENCE_REST_POINT)
    H0 = seeding.jacobi_mid(
        cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
    sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, 64, NU)
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    res0 = stages.validate_order0(sol, cfg)
    start = stages.start_jet_table(KIND, sol, res0, cfg, lam, v, K0, XI0, N_T)
    assert isinstance(start.lambda_bar, float)
    assert start.radii[(1, 0)] <= 1e-6


def test_a_bundle_kind_is_stable_or_unstable(run):
    # any other kind, a typo say, is refused before any work: it would
    # otherwise seed and label the unstable bundle
    cfg, res0, _, _ = run
    sol = res0.context[0]
    with pytest.raises(ValueError, match="unstabel"):
        seeding.bundle_guess(cfg, sol, "unstabel", K0, XI0)
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    with pytest.raises(ValueError, match="unstabel"):
        stages.start_jet_table("unstabel", sol, res0, cfg, lam, v, K0, XI0, N_T)


@pytest.mark.parametrize("kind", ["stable", "unstable"])
def test_order1_refuses_an_exponent_of_the_other_sign(run, kind):
    # the guess of the other bundle, labelled kind: order 1 certifies its
    # lambda, whose enclosure has the other kind's sign
    cfg, res0, _, _ = run
    sol = res0.context[0]
    other = {"stable": "unstable", "unstable": "stable"}[kind]
    lam, v = seeding.bundle_guess(cfg, sol, other, K0, XI0)
    with pytest.raises(ValueError, match="is not %s$" % kind):
        stages.start_jet_table(kind, sol, res0, cfg, lam, v, K0, XI0, N_T)


def _block_defect(E, J, N, ctx, layout) -> float:
    """The operator norm of the entrywise bound |E - J| by blocks, on the
    slots of layout (E is whole, J the stage's), after checking that the
    window defect table N covers it: as an operator norm, and block by
    block up to what block_norms adds to a column sum ((4n + 64) 2^-50
    relative, and subnormal slack)."""
    ns = layout.ns
    entrywise = block_norms(E.restrict(ns, layout.slots).corner_abs(J), layout, ctx.nu)
    assert opnorm_upper(entrywise) <= opnorm_upper(N), ns
    assert (entrywise <= N * (1.0 + 1e-12) + 1e-300).all(), ns
    return opnorm_upper(entrywise)


def _orbit_defects(sol, ctx):
    """Order 0 at sol: (the entrywise defect of J against the oracle's DF at
    y = 0, that against DF at y_bar, pre_Z1, delta).

    J is DF at y = 0, so delta alone must cover the first, and delta plus
    pre_Z1 on the blocks (1, 1) and (6+j, 6+j), where the y terms sit, the
    second.  There the oracle adds each y term to an entry with one outward
    rounding, so those blocks may also take 2^-50 of the block norm of |E|."""
    data, asm = stages._assemble_orbit(sol, ctx)
    (pre_Z1,) = asm.pre_Z1
    J, N, layout = data.J, data.window_defect, data.layout
    at_zero = _block_defect(oracles.orbit_enclosure(replace(sol, y=np.zeros(4, complex)), ctx),
                            J, N, ctx, layout)
    E = oracles.orbit_enclosure(sol, ctx)
    sums = block_norms(E.restrict(4, layout.slots).corner_abs(np.zeros_like(J)),
                       layout, ctx.nu)
    with_y = N.copy()
    for g in (4 + 1, 4 + 6, 4 + 7, 4 + 8):
        with_y[g, g] += pre_Z1 + 2.0 ** -50 * sums[g, g]
    return at_zero, _block_defect(E, J, with_y, ctx, layout), pre_Z1, opnorm_upper(N)


@pytest.mark.parametrize("moved", [False, True])
def test_window_defect_dominates_the_entrywise_defect(run, moved):
    # delta, the window defect of a stage, bounds its entrywise defect; for
    # order 0, with pre_Z1 at y_bar (`_orbit_defects`).  Moved: each mass is
    # an interval of radius 1e-9 about its midpoint, so the exact kernels lie
    # up to about 1e-9 from the float ones, which J holds, in every block and
    # in both classes of Q, and delta must follow through the discs' radii.
    cfg, res0, _, table = run
    sol = res0.context[0]
    if moved:
        cfg = model.primaries(model.MassTriple(
            *(oracles.iv_midrad(m.mid, 1e-9) for m in cfg.masses)))
    ctx = stages._StageContext(sol.seqs(), cfg, sol.omega, sol.K, sol.nu)
    at_zero, with_y, _, _ = _orbit_defects(sol, ctx)
    assert (at_zero >= 1e-9) == moved
    assert (with_y >= 1e-9) == moved
    coeffs = np.array([a.c.mid() for a in table.orders[(1, 0)]])
    bsol = stages.BundleSolution(KIND, table.lambda_bar, coeffs, K0, XI0)
    data, _ = stages._assemble_bundle(bsol, ctx, table.radii[(0, 0)])
    seen = _block_defect(oracles.bundle_enclosure(bsol, ctx), data.J, data.window_defect,
                         ctx, data.layout)
    assert (seen >= 1e-9) == moved
    s = 3 * table.lambda_bar
    for cls in (None, 1, -1):
        # the jets' class and the other one, and the whole window
        layout = SpaceLayout(0, ctx.K, cls)
        J = ctx.window_block(s, layout)
        seen = _block_defect(oracles.base_enclosure(ctx, 0, s), J,
                             stages._window_defect(ctx, J, layout, s), ctx, layout)
        assert (seen >= 1e-9) == moved, cls


def test_pre_z1_covers_raised_unfolding_terms(run):
    # a copy of the solution with every y at 1e-9, assembled and not
    # validated: the y terms that J leaves out are far above delta, and
    # only pre_Z1 covers them
    cfg, res0, _, _ = run
    sol = replace(res0.context[0], y=np.full(4, 1e-9 + 0j))
    ctx = stages._StageContext(sol.seqs(), cfg, sol.omega, sol.K, sol.nu)
    at_zero, with_y, pre_Z1, delta = _orbit_defects(sol, ctx)
    assert at_zero < 1e-12
    assert with_y >= 1e-9
    assert pre_Z1 >= 1e-9 >= 1e3 * delta


@pytest.fixture(scope="module")
def stage_ctx(run):
    """A fresh order-0 context of the run, for building operators by hand."""
    cfg, res0, _, _ = run
    sol = res0.context[0]
    return stages._StageContext(sol.seqs(), cfg, sol.omega, sol.K, sol.nu)


def _real_shift_operators(run, ctx):
    """(`_OperatorData`, the whole J) of order 0, order 1 and the shift of
    jet (2,1); lambda_bar is real, so all three shifts are, and every
    centre lies in class +1 of Q.  Last, the jets' operator on class -1,
    which a bundle of class -1 would give the jets of odd order."""
    cfg, res0, _, table = run
    sol = res0.context[0]
    whole = SpaceLayout(4, ctx.K)
    yield (stages._assemble_orbit(sol, ctx)[0],
           stages._orbit_jacobian(whole.pack(sol.y, sol.coeffs), sol.omega, sol.anchor,
                                  whole, ctx.ms, ctx.pos, kernels=(ctx.fconst, ctx.fkers)))
    coeffs = np.array([a.c.mid() for a in table.orders[(1, 0)]])
    bsol = stages.BundleSolution(KIND, table.lambda_bar, coeffs, K0, XI0)
    whole = SpaceLayout(1, ctx.K)
    yield (stages._assemble_bundle(bsol, ctx, table.radii[(0, 0)])[0],
           stages._bundle_jacobian(ctx.window_block(0.0, whole),
                                   whole.pack([table.lambda_bar], coeffs), whole, K0))
    s = 3 * table.lambda_bar
    whole = SpaceLayout(0, ctx.K)
    yield ctx.jet_operator_data(s, 1), ctx.window_block(s, whole)
    yield ctx.jet_operator_data(s, -1), ctx.window_block(s, whole)


def _residual_seen(Jhat, J, layout, ctx) -> float:
    """What an independent complex `ivarray.cmm` product shows of
    ||I - Jhat J||: the largest block norm of the lower end of its enclosure,
    which each block of the operator norm bounds from below."""
    cm, cr = ivarray.cmm(Jhat, None, J, None)
    cm[np.diag_indices_from(cm)] -= 1.0
    return float(block_norms(np.maximum(np.abs(cm) - cr, 0.0), layout, ctx.nu).max())


def test_cos_sin_operator_matches_the_complex_one(run, stage_ctx, monkeypatch):
    # every stage inverts the block of J on its scalars and its class of Q,
    # in the cos/sin basis.  With centres in the class, the whole J maps the
    # (scalars, class) slots into themselves, exactly: it is block upper
    # triangular in ((scalars, class), other class), so Jhat is the
    # (scalars, class) block of the whole inverse.  It equals that block of
    # the oracle's complex inverse of the whole J within 1e-12, and ||A||,
    # ||A||_seq, Z1_window and Z1_tail are no larger than the oracle's on the
    # whole space (its window defect takes the stage's scalar rows and
    # columns).  The real form's Z0 is small and covers what an independent
    # complex product of its Jhat with J shows (order 0's Z0 is about 8e-9,
    # hence the bound relative to ||A||).
    K = stage_ctx.K
    for data, J in _real_shift_operators(run, stage_ctx):
        layout = data.layout
        ns = layout.ns
        assert isinstance(data.s, float) and (layout.cls == 1 or ns == 0)
        assert layout.n == ns + len(class_slots(K, layout.cls)) <= ns + 9 * K
        keep = np.concatenate([np.arange(ns), ns + layout.slots])
        other = np.setdiff1d(np.arange(J.shape[0]), keep)
        assert np.array_equal(data.J, J[np.ix_(keep, keep)]), ns
        assert not J[np.ix_(other, keep)].any(), ns
        real = stages._operator(stage_ctx, data)
        whole = SpaceLayout(ns, K)
        Nw = stages._window_defect(stage_ctx, J, whole, data.s)
        Nw[:ns], Nw[:, :ns] = data.window_defect[:ns], data.window_defect[:, :ns]
        with monkeypatch.context() as m:
            m.setattr(stages, "cos_sin_inverse", oracles.complex_inverse)
            ref = stages._operator(stage_ctx, replace(data, layout=whole, J=J,
                                                      window_defect=Nw))
        block = ref.Jhat[np.ix_(keep, keep)]
        assert np.abs(real.Jhat - block).max() <= 1e-12 * np.abs(block).max(), ns
        for name in ("normA", "normA_seq", "Z1_window", "Z1_tail"):
            assert getattr(real, name) <= getattr(ref, name) * (1.0 + 1e-12), (name, ns)
        assert real.Z0 <= 1e-10 * max(1.0, real.normA), ns
        assert real.Z0 >= _residual_seen(real.Jhat, data.J, layout, stage_ctx), ns


@pytest.mark.parametrize("defect", ["J not R-symmetric", "J skewed in the class",
                                    "inverse inexact"])
def test_cos_sin_z0_covers_a_visible_defect(run, stage_ctx, monkeypatch, defect):
    # Z0 must cover the ||I - Jhat J|| that an independent complex product
    # shows when it is far above rounding: for J + 1e-8 i I, whose added part
    # anticommutes with R and so is left out of M; for J plus 1e-8 on the
    # first upper off-diagonal of every window of the class (the modes k and
    # k + 2), which stays in the class but breaks R, so M misses half of it;
    # and for an inverse of M that is 1e-6 too large
    if defect == "inverse inexact":
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) * (1.0 + 1e-6))
    for data, _ in _real_shift_operators(run, stage_ctx):
        layout = data.layout
        J = data.J.copy()
        if defect == "J not R-symmetric":
            J[np.diag_indices_from(J)] += 1e-8j
        elif defect == "J skewed in the class":
            for sl in layout.slices[layout.ns:]:
                i = np.arange(sl.start, sl.stop - 1)
                J[i, i + 1] += 1e-8
        op = stages._operator(stage_ctx, replace(data, J=J))
        seen = _residual_seen(op.Jhat, J, layout, stage_ctx)
        assert seen >= 1e-9, layout.ns
        assert op.Z0 >= seen, layout.ns


def test_report_splits_z1(run):
    # Z1 = Z1_tail + Z1_window + the data part; the window part is rounding
    cfg, res0, _, table = run
    for bounds in (res0.bounds, stages.validate_jet((2, 0), table, cfg).bounds):
        assert bounds["Z1"] >= bounds["Z1_tail"] > 0.0
        assert 0.0 < bounds["Z1_window"] <= 1e-6 * bounds["Z1"]


def test_report_carries_the_data_parts(run):
    # pre_Y and pre_Z1 enter Y and Z1 times ||A||_seq, and the report
    # carries them: order 0's pre_Z1 bounds the y terms its J leaves out, so
    # it is at least |y0_bar|; a jet's carry the lower orders' radii and its
    # shift error.  Y0, the residual part of Y, is named with its row group:
    # order 0's is its Y but for rounding, and a jet's is far below its
    # data part
    cfg, res0, _, table = run
    y0 = abs(complex(res0.context[0].y[0]))
    assert res0.bounds["pre_Z1"] >= y0 > 0.0
    assert res0.bounds["pre_Y"] == 0.0
    assert res0.bounds["Y0"] <= res0.bounds["Y"] <= res0.bounds["Y0"] * (1.0 + 1e-15)
    bounds = stages.validate_jet((2, 0), table, cfg).bounds
    assert bounds["pre_Y"] > 0.0 and bounds["pre_Z1"] > 0.0
    assert 0.0 < bounds["Y0"] <= 1e-6 * bounds["Y"]
    groups = ["scalar %d" % g for g in range(4)] + ["seq %d" % i for i in range(9)]
    assert res0.bounds["Y_group"] in groups and bounds["Y_group"] in groups[4:]


@pytest.fixture
def dense_calls(monkeypatch):
    """The `np.linalg.inv` and `np.linalg.solve` calls made while the test
    runs.  Gives a function that reads the calls so far as (name, process
    id, dtype of the matrix) triples, those of one name when given."""
    log = []

    def logged(name, fn):
        def call(*args, **kwargs):
            log.append((name, os.getpid(), np.asarray(args[0]).dtype))
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
    calls = {"carr_conv": 0}

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
    ctx = start.ctx_cache[1]
    N = 9 * (2 * ctx.K - 1)
    # all of it, the kernels of df0 and the nested lists included: 142.3 N
    # floats at K = 24, the 13.1 N of kmags and the 3.7 N of their tail
    # profiles among them; one N x N complex block would be 2 N^2 floats
    assert _held_bytes(ctx, set()) <= 8 * 143 * N
    counted(ivarray, "carr_conv")
    again = stages.extend_with_jets(start, cfg)
    assert again.digest() == table.digest()
    assert calls == {"carr_conv": 0}
    assert again.ctx_cache[1] is ctx
    assert _held_bytes(ctx, set()) <= 8 * 143 * N

    assert stages.validate_jet((2, 1), again, cfg).cert == again.certs["jet:2,1:%s" % KIND]
    assert _held_bytes(ctx, set()) <= 8 * 143 * N


def test_no_dense_solve_or_inverse_in_a_worker(run, dense_calls):
    # counts, not timings: a jet takes its step with its certificate's
    # inverse, so the jets make no solve, and this process makes the one
    # operator of each distinct shift (2 for the 4 jets), whatever jobs is,
    # with one inverse, on the jets' class of Q.  lambda_bar is real, so
    # every stage's shift is: orders 0 and 1 and every jet invert float64
    # matrices, made from the cos/sin form of their block
    cfg, res0, start, table = run
    shifts = {sum(a) * table.lambda_bar for a in table.radii if sum(a) >= 2}
    parent = os.getpid()
    real_inverse = ("inv", parent, np.float64)
    for jobs in (1, 2):
        before = len(dense_calls())
        again = stages.extend_with_jets(stages.rescale_jets(start, 1.0), cfg, jobs=jobs)
        assert again.digest() == table.digest()
        assert dense_calls()[before:] == [real_inverse] * len(shifts), jobs
    assert len(shifts) == 2
    sol = res0.context[0]
    lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
    before = len(dense_calls("inv"))
    res = stages.validate_order0(sol, cfg)
    stages.start_jet_table(KIND, sol, res, cfg, lam, v, K0, XI0, N_T)
    assert dense_calls("inv")[before:] == [real_inverse] * 2


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


def test_a_level_makes_one_operator(run, monkeypatch):
    # counts, not certificates: the jets of a level share the shift
    # p lambda_bar, and one operator, made at that shift, serves them all
    cfg, _, _, table = run
    made, tasks = [], []

    def operator(ctx, data):
        N = data.layout.n
        made.append(SimpleNamespace(s=data.s, layout=data.layout, Jhat=np.zeros((N, N))))
        return made[-1]

    def certify(jet, ctx, alphas, rhss, rhos, centers, op):
        tasks.append((tuple(alphas), id(op)))

    monkeypatch.setattr(stages, "_operator", operator)
    monkeypatch.setattr(stages, "_certify_jets", certify)
    for p in (2, 3):
        alphas = solved(p)
        assert len(alphas) == 2
        del made[:], tasks[:]
        stages._level_parallel(table, cfg, alphas, numerics._level_fields(table, cfg, p))
        assert [op.s for op in made] == [p * table.lambda_bar]
        assert tasks == [(tuple(alphas), id(made[0]))]


def test_level_batch_certifies_as_one_jet_at_a_time(run):
    # the batched certificates of a level give each jet the r0 and r_max of
    # the jet certified on its own and scanned at every grid point, and, on
    # the one BLAS thread of the stages, the table's certificate
    cfg, _, _, table = run
    ctx = stages._context_for(table, cfg)
    fields = None
    with numerics.one_blas_thread():
        for p in range(2, N_T + 1):
            fields = numerics._level_fields(table, cfg, p, fields)
            op = stages._operator(ctx, ctx.jet_operator_data(p * table.lambda_bar,
                                                             stages._jet_class(table, p)))
            done = stages._level_parallel(table, cfg, solved(p), fields)
            assert [res.alpha for res in done] == solved(p)
            for res in done:
                rhs, rho = numerics._jet_rhs(fields, res.alpha)
                want = oracles.certify_jet_alone(table, ctx, res.alpha, rhs, rho,
                                                 res.centers, op)
                assert (res.cert.r0, res.cert.r_max) == want, res.alpha
                assert res.cert == table.certs[res.cert.stage]


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
    assert "residual %.3e, set by row group %s" % (want["Y0"], want["Y_group"]) in message


# the module fixture's run in a fresh interpreter; prints the table's digest
RUN_CHILD = """
import oracles
from fourbody import model, seeding, stages
cfg = model.primaries(model.MassTriple.of("1/2", "3/10", "1/5"))
eq = oracles.rest_point(cfg, oracles.REFERENCE_REST_POINT)
H0 = seeding.jacobi_mid(cfg, seeding.embed_point(cfg, [eq[0], 0.0, eq[1], 0.0, 0.0, 0.0]))
sol, _ = seeding.orbit_to_jacobi(cfg, eq, H0 - 0.3, %d, %r)
lam, v = seeding.bundle_guess(cfg, sol, %r, %d, %r)
res0 = stages.validate_order0(sol, cfg)
start = stages.start_jet_table(%r, sol, res0, cfg, lam, v, %d, %r, %d)
print(stages.extend_with_jets(start, cfg).digest())
""" % (K, NU, KIND, K0, XI0, KIND, K0, XI0, N_T)


def openblas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS; skips without it."""
    api = numerics._openblas_threads()
    if api is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, so there is no thread count to pin")
    return api


def test_digests_do_not_depend_on_the_blas_thread_count(run):
    # the stages run on one BLAS thread, so a run started with one or with
    # two OpenBLAS threads gives this process's table, bit for bit
    openblas_threads()
    _, _, _, table = run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for threads in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", RUN_CHILD], capture_output=True,
                             text=True, timeout=300, cwd=ROOT,
                             env=dict(env, OPENBLAS_NUM_THREADS=threads))
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-1] == table.digest(), threads


def test_public_calls_pin_one_blas_thread_and_restore_the_count(run, monkeypatch):
    # two threads going in: one inside the jets and inside order 1's
    # certificate, two again after each public call that pins, a failing one
    # included; order 1 certified on its own gives the table's digest
    get, set_ = openblas_threads()
    cfg, res0, start, table = run
    sol = res0.context[0]
    inside = []

    def spy(name):
        fn = getattr(stages, name)

        def call(*args):
            inside.append((name, get()))
            return fn(*args)
        monkeypatch.setattr(stages, name, call)

    spy("_extend")
    spy("_assemble_bundle")
    coeffs = np.array([a.c.mid() for a in table.orders[(1, 0)]])
    bsol = stages.BundleSolution(KIND, table.lambda_bar, coeffs, K0, XI0)
    before = get()
    set_(2)
    try:
        again = stages.extend_with_jets(stages.rescale_jets(start, 1.0), cfg)
        after = [get()]
        stages.validate_jet((2, 0), again, cfg)
        after.append(get())
        lam, v = seeding.bundle_guess(cfg, sol, KIND, K0, XI0)
        after.append(get())
        with pytest.raises(ValueError, match="unstabel"):
            stages.start_jet_table("unstabel", sol, res0, cfg, lam, v, K0, XI0, N_T)
        after.append(get())
        order1 = stages.validate_order1(bsol, table, cfg)
        after.append(get())
    finally:
        set_(before)
    assert inside == [("_extend", 1), ("_assemble_bundle", 1)]
    assert after == [2] * 5
    assert again.digest() == table.digest()
    assert content_digest(order1.cert.to_json_obj()) == table.digests["order1"]


def project_scripts(text):
    """The [project.scripts] table of a pyproject.toml, whose lines are all
    of the form name = "module:function"; read line by line, as tomllib is
    not in the standard library before Python 3.11."""
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, value = line.split("=", 1)
            scripts[name.strip()] = value.strip().strip('"')
    return scripts


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
    scripts = project_scripts((ROOT / "pyproject.toml").read_text())
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
    init = numerics._Incremental.__init__

    def counted(self, base, order, old, keep, inputs, plans):
        evaluations.append((type(base).__name__, order, keep))
        init(self, base, order, old, keep, inputs, plans)

    monkeypatch.setattr(numerics, "remainder_layer", float_remainder)
    monkeypatch.setattr(numerics._Incremental, "__init__", counted)
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
    # and the levels of a table the same nodes, so each solved layer's factor
    # pairs are planned once per node and table, by one lane; a mirror layer
    # is planned never, and a level lists the layers of each key set of its
    # nodes once
    cfg, _, _, table = run
    made, keysets = [], []
    plan, keys = numerics._cauchy_plan, numerics._product_keys

    def counted(b, c, alphas):
        made.append(len(alphas))
        assert all(source(g) == g for g in alphas), alphas
        return plan(b, c, alphas)

    def counted_keys(b, c, cap):
        keysets.append((cap, frozenset(b), frozenset(c)))
        return keys(b, c, cap)

    monkeypatch.setattr(numerics, "_cauchy_plan", counted)
    monkeypatch.setattr(numerics, "_product_keys", counted_keys)
    fields, computed, mirrors = None, {}, 0
    for p in range(2, N_T + 1):
        prev, fields = fields, numerics._level_fields(table, cfg, p, fields)
        (floats, _), (norms, _) = fields
        assert floats.plans is norms.plans
        assert prev is None or floats.plans is prev[0][0].plans
        assert len(floats.nodes) == len(norms.nodes) == len(floats.plans) > 0
        for k, node in enumerate(floats.plans):
            computed.setdefault(k, set()).update(g for g, _, _ in node.made)
            mirrors += len(node.mirrors)
            assert all(source(g) != g for g in node.mirrors)
        level = [ks for ks in keysets if ks[0] == p]
        assert len(level) == len(set(level)) < len(floats.plans)
    # every layer a node folds at some level was planned exactly once
    assert len(made) <= len(floats.plans) * (N_T - 1)
    assert sum(made) == sum(len(layers) for layers in computed.values())
    assert mirrors > 0


def test_mirror_layers_are_reflections_of_their_sources(run):
    # at every level and node each mirror layer (n, m) is the conjugate
    # reflection of (m, n) bit for bit in the float lane, and (m, n)'s
    # (N, r) in the norm lane; so is each one of the nine grids of the
    # field, as numbers in the float lane: a table's mirror centre has 0.0
    # where the reflection of its source has -0.0
    cfg, _, _, table = run
    fields, seen = None, 0
    for p in range(2, N_T + 1):
        fields = numerics._level_fields(table, cfg, p, fields)
        (floats, fgrids), (norms, ngrids) = fields
        for bits, fgrid, ngrid in ([(True, f, n) for f, n in zip(floats.nodes, norms.nodes)]
                                   + [(False, f, n) for f, n in zip(fgrids, ngrids)]):
            assert set(fgrid) == set(ngrid)
            for g in fgrid:
                if source(g) == g or sum(g) >= p:
                    continue
                seen += 1
                want = np.conj(fgrid[source(g)][::-1])
                assert (fgrid[g].tobytes() == want.tobytes() if bits
                        else np.array_equal(fgrid[g], want)), (p, g)
                assert ngrid[g] == ngrid[source(g)], (p, g)
    assert seen > 0


def float_lane_pairs(table, cfg, levels, monkeypatch):
    """The Cauchy pairs that the float lane of the levels of a table folds,
    as (level, node, beta, gamma), read from the np.convolve calls made
    inside each of its products."""
    folded = []
    convolve, mul = np.convolve, numerics._Incremental.mul

    def traced(self, b, c, cap):
        if not isinstance(self.base, numerics.FloatArith):
            return mul(self, b, c, cap)
        where = {(id(b[x]), id(c[y])): (x, y) for x in b for y in c}
        k = len(self.nodes)

        def counted(u, v, *args):
            folded.append((self.order, k) + where[id(u), id(v)])
            return convolve(u, v, *args)

        monkeypatch.setattr(np, "convolve", counted)
        try:
            return mul(self, b, c, cap)
        finally:
            monkeypatch.setattr(np, "convolve", convolve)

    monkeypatch.setattr(numerics._Incremental, "mul", traced)
    fields = None
    for p in levels:
        fields = numerics._level_fields(table, cfg, p, fields)
    return folded


def test_float_lane_folds_no_pair_twice(run, monkeypatch):
    # counts: across the levels of an N_t = 5 table, a Cauchy pair whose
    # factors are complete layers is folded once, at the level that first
    # needs it: a layer's interior pairs are carried to the level that
    # completes it.  Only a pair with a factor of the level's own order,
    # which that level holds in part, is folded again once it is complete.
    # No pair of a mirror layer is folded: the layer is its source's
    # reflection.
    cfg, _, start, _ = run
    table = stages.extend_with_jets(replace(stages.rescale_jets(start, 1.0), N_t=5), cfg)
    folded = float_lane_pairs(table, cfg, range(2, 6), monkeypatch)
    layers = {(x[0] + y[0], x[1] + y[1]) for _, _, x, y in folded}
    assert all(source(g) == g for g in layers)
    complete = [(k, x, y) for p, k, x, y in folded if sum(x) < p and sum(y) < p]
    assert len(complete) == len(set(complete)) > 0
    assert len(folded) - len(complete) == sum(max(sum(x), sum(y)) == p
                                              for p, _, x, y in folded) > 0


def test_product_fold_work(run, monkeypatch):
    # counts, not timings: a product layer of the float lane is one
    # np.convolve per Cauchy pair it folds, and no disc arithmetic (mr_add)
    # runs; a layer completed from a carried interior fold folds its end
    # pairs only, and a mirror layer none
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

    def counted_layers(b, c, plan, mirrors, carried=None):
        pairs = 0
        assert all(source(g) != g for g in mirrors)
        for g, interior, ends in plan:
            assert source(g) == g, g
            tail = sum(x in b and y in c for x, y in ends)
            pairs += tail + (0 if tail and g in (carried or {}) else len(interior))
        inside.append({"convolve": 0, "pairs": pairs, "mirrors": len(mirrors)})
        try:
            return layers(b, c, plan, mirrors, carried)
        finally:
            nodes.append(inside.pop())

    monkeypatch.setattr(np, "convolve", counted_convolve)
    monkeypatch.setattr(ivarray, "mr_add", counted_mr_add)
    monkeypatch.setattr(model, "mr_add", counted_mr_add)
    monkeypatch.setattr(numerics.FloatArith, "product_layers", staticmethod(counted_layers))
    fields = None
    for p in range(2, N_T + 1):
        fields = numerics._level_fields(table, cfg, p, fields)
    assert nodes and sum(w["pairs"] for w in nodes) > len(nodes)
    assert sum(w.get("mirrors", 0) for w in nodes) > 0
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


@pytest.mark.parametrize("name", ["jetx3,0", "foo:3,0:%s" % KIND, "jet:3,0",
                                  "jet:3,0:%s:x" % KIND, "jet:3,0:stable"])
def test_recheck_refuses_a_name_no_writer_gives(run, tmp_path, capsys, name):
    # a certificate and its digest copied under a name that no stage of an
    # unstable table gets: the name gives no (m,n), so the stage is tied to
    # no centers and fails, and only it
    _, _, _, table = run
    stage = "jet:3,0:%s" % KIND
    obj = table.to_json_obj()
    obj["certs"][name] = obj["certs"][stage]
    obj["digests"][name] = obj["digests"][stage]
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["recheck", str(path)]) == 1
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")] == [
        "FAIL %s  r0=%.3e  centers" % (name, table.certs[stage].r0)]


@pytest.mark.parametrize("gone", [["0,0"], ["1,1"], ["1,0", "0,1"]],
                         ids=["order0", "jet 1,1", "order1"])
def test_recheck_requires_every_certified_radius(run, tmp_path, capsys, gone):
    # a certificate whose radius was dropped from the table fails, one line
    # per missing radius; E_total would otherwise leave it out
    _, _, _, table = run
    obj = table.to_json_obj()
    for key in gone:
        del obj["radii"][key]
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["recheck", str(path)]) == 1
    stage = {"0,0": "order0", "1,1": "jet:1,1:%s" % KIND, "1,0": "order1"}[gone[0]]
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")] == [
        "FAIL radius %s  missing for %s" % (key, stage) for key in sorted(gone)]


@pytest.mark.parametrize("edit", ["mode -44", "mode 24", "short lambda_bar",
                                  "complex lambda_bar"])
def test_recheck_rejects_a_malformed_table(run, tmp_path, capsys, edit):
    # a mode outside the support of its row, or a lambda_bar of one number
    # or with an imaginary part, cannot be read as a table: exit 2, no
    # traceback and no stage lines
    _, _, _, table = run
    obj = table.to_json_obj()
    entry = obj["orders"]["0,0"][0]["entries"][K - 1]
    if edit == "mode -44":
        entry[0] = -44
    elif edit == "mode 24":
        entry[0] = K
    elif edit == "short lambda_bar":
        obj["lambda_bar"] = obj["lambda_bar"][:1]
    else:
        obj["lambda_bar"][1] = (0.5).hex()
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["recheck", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("fourbody recheck: cannot read")
