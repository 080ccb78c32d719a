"""Time to a certified manifold, end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wide|deep|pool --seed N \\
        --seconds S --trace 0|1

The run builds the reference configuration, then runs the whole certified
pipeline (seeding, order 0, order 1, jets) again and again until S seconds
have passed, one pipeline at a time (a closed loop with one client).  Every
finished table is checked: it is complete, every certificate rechecks, the
JSON round trip keeps its digest, Re(lambda) excludes zero, and on `pool`
its digest equals the jobs=1 digest of the same inputs.  A stage that
cannot certify is counted as a failed pipeline and contributes no timing.

With `--trace 0` the end-to-end metrics are the medians over the pipelines:
`certified_s` (wall time from the first seeding call to the finished
table), `cpu_s` (user + system CPU of the process and its pool workers per
pipeline), `peak_rss_mb` (peak RSS of the process plus that of its largest
child), the certificate radii, and `setup_s`, the median over fresh
interpreters of the time to import fourbody and build the primaries.  The
first pipeline of a run pays the cold start of the process, as a one-shot
run does.

With `--trace 1` the run first runs one pipeline untimed, then spends half
the time on untraced pipelines and half on traced ones; the metrics are the
per-layer times and counts of `tracing.py`, and the difference in
`certified_s` is the tracing overhead.  It also prints where the time of the
first traced pipeline went, by group of layers.  `python3
perfbench/selftest.py` checks the tracer.

The pipeline has no randomness: the seed is recorded, not used.  The last
line of standard output is one JSON object; a result file with the
provenance of the run goes to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pipeline
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROCESSES = 5

END_TO_END_UNITS = {
    "certified_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "r0_order0": "1", "r1_order1": "1", "r_jet_max": "1", "E_total": "1",
}
QUALITY = ("r0_order0", "r1_order1", "r_jet_max", "E_total")
LAYERS = ("seeding", "stages", "numerics", "ivarray", "numpy", "model",
          "radii", "opbound")
MAX_LEVEL = 8

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fourbody import model, seeding, stages
model.primaries(model.MassTriple.of(*sys.argv[2:5]))
print(repr(time.perf_counter() - t0))
"""


def per_layer_names():
    names = ["seeding.planar_equilibria_s", "seeding.orbit_to_jacobi_s",
             "seeding.bundle_guess_s", "stages.validate_order0_s",
             "stages.start_jet_table_s", "stages.extend_with_jets_s"]
    names += ["stages.level.%d_s" % p for p in range(2, MAX_LEVEL + 1)]
    names += ["stages.jet_problem_s", "stages.validate_jet_s",
              "stages.validate_jet_calls", "stages.newton_stage_s",
              "stages.pool_tasks", "stages.pool_snapshot_bytes",
              "stages.retries", "stages.fail_frac",
              "numerics.newton_polish_s", "numerics.newton_polish_calls",
              "numerics.newton_iters", "numerics.remainder_layer_s",
              "ivarray.carr_conv_s", "ivarray.carr_conv_calls",
              "ivarray.carr_conv_madds", "ivarray.cconv_mr_s",
              "ivarray.cconv_mr_calls", "ivarray.cconv_mr_madds",
              "ivarray.cmm_s", "ivarray.cmm_flops", "numpy.linalg.inv_s",
              "numpy.linalg.inv_n", "model.DF0.apply_s",
              "model.field_F_grid_s", "radii.radii_newton_s",
              "radii.recheck_s", "opbound.block_norms_s"]
    names += ["self.%s_s" % layer for layer in LAYERS] + ["self.other_s"]
    names += ["trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "1"
    return "count"


# -- breakdowns that confirm which layer a workload loads -----------------

# A span's self time goes to the group of its nearest ancestor-or-self that
# has one, so a group covers everything its spans call into that no other
# group claims.  Seeding claims everything under it: the claim to confirm on
# `wide` is about the seeding stage as a whole.  The remainder path is
# validate_jet's own time plus cconv_mr and remainder_layer.
GROUP_OF = {
    "seeding.planar_equilibria": "seeding", "seeding.orbit_to_jacobi": "seeding",
    "seeding.bundle_guess": "seeding",
    "stages.validate_jet": "remainder", "ivarray.cconv_mr": "remainder",
    "numerics.remainder_layer": "remainder",
    "ivarray.carr_conv": "carr_conv",
    "model.DF0.apply": "operator", "model.field_F_grid": "operator",
    "numpy.linalg.inv": "dense", "ivarray.cmm": "dense",
    "opbound.block_norms": "dense", "radii.radii_newton": "dense",
    "radii.recheck": "dense",
    "numerics.newton_polish": "newton", "stages.newton_stage": "newton",
    "stages.pool": "pool",
}


def breakdown(tracer, root: str | None) -> dict:
    """Seconds per group inside spans named `root` (all spans if None)."""
    spans = tracer.spans
    group = []
    inside = []
    for name, _, _, parent, _ in spans:
        up = group[parent] if parent >= 0 else "other"
        g = up if up == "seeding" else GROUP_OF.get(name, up)
        group.append(g)
        inside.append(root is None or name == root
                      or (parent >= 0 and inside[parent]))
    selfs = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= t1 - t0
    out = {}
    for g, ok, s in zip(group, inside, selfs):
        if ok:
            out[g] = out.get(g, 0.0) + s
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


# -- measurement ------------------------------------------------------------


def cpu_seconds() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (s + c) / 1024.0


def measure_setup(masses, n: int) -> list:
    """Import-and-configure time of `n` fresh interpreters, one at a time."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *masses],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def repeat(fn, seconds: float) -> list:
    """Call fn until `seconds` have passed, at least once."""
    out = []
    t0 = time.perf_counter()
    while not out or time.perf_counter() - t0 < seconds:
        out.append(fn())
    return out


def timed_pipeline(cfg, wl):
    c0 = cpu_seconds()
    out = pipeline.run_pipeline(cfg, wl)
    out.cpu_s = cpu_seconds() - c0
    return out


def check_all(cfg, wl, outcomes) -> list:
    """Correctness checks on every finished table; returns failure notes."""
    notes = []
    want = None
    for i, o in enumerate(outcomes):
        if o.table is None:
            notes.append({"pipeline": i, "stage": o.stage, "error": o.error})
            continue
        if wl.jobs > 1 and want is None:
            want = pipeline.sequential_digest(cfg, o.start)
        try:
            o.checks = pipeline.check_table(o, want)
        except pipeline.CheckFailed as exc:
            o.checks = {"error": str(exc)}
            notes.append({"pipeline": i, "stage": "check", "error": str(exc)})
            o.table = None
    return notes


# -- provenance -----------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() or None
        except OSError:
            pass
    h = hashlib.sha256()
    for f in sorted((SRC / "fourbody").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    # unset, OpenBLAS runs one thread per CPU
    thread_env = {k: v for k, v in sorted(os.environ.items())
                  if k.endswith("_NUM_THREADS")}
    return {
        "git_rev": rev,
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": thread_env,
        "seed": seed,
    }


# -- the run ----------------------------------------------------------------


def median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end(plain, rss) -> tuple:
    """End-to-end metrics over the untraced pipelines that certified."""
    setup = measure_setup(pipeline.MASSES, SETUP_PROCESSES)
    values = {
        "certified_s": median(o.certified_s for o in plain),
        "setup_s": median(setup),
        "cpu_s": median(o.cpu_s for o in plain),
        "peak_rss_mb": rss,
    }
    for q in QUALITY:
        values[q] = median(pipeline.quality(o.table)[q] for o in plain)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return metrics, {"setup_s_samples": setup}


def layer_metrics(tracer, outcome) -> dict:
    """Per-layer metrics of one traced pipeline, keyed as in BENCHMARK.json."""
    incl = tracer.inclusive()
    levels = tracer.levels()
    selfs = tracer.self_times()
    special = {"stages.level.%d_s" % p: levels.get(p, 0.0)
               for p in range(2, MAX_LEVEL + 1)}
    for layer in LAYERS:
        special["self.%s_s" % layer] = sum(
            v for k, v in selfs.items() if k.split(".")[0] == layer)
    special["self.other_s"] = outcome.certified_s - tracer.top_level()
    special["stages.retries"] = pipeline.retries(outcome.table)
    out = {}
    for name in per_layer_names():
        if name in special:
            out[name] = special[name]
        elif name.endswith("_s"):
            out[name] = incl.get(name[:-2], 0.0)
        else:
            out[name] = tracer.counts.get(name, 0)
    return out


def per_layer(plain, traced_ok, fail_frac) -> tuple:
    """Per-layer metrics, medians over the traced pipelines that certified."""
    overhead = (median(o.certified_s for o, _ in traced_ok)
                - median(o.certified_s for o in plain))
    per = [layer_metrics(t, o) for o, t in traced_ok]
    metrics = {}
    for name in per_layer_names():
        if name == "trace.overhead_s":
            v = overhead
        elif name == "stages.fail_frac":
            v = fail_frac
        else:
            v = median(m[name] for m in per)
        metrics[name] = {"value": v, "unit": unit_of(name)}
    tracers = [t for _, t in traced_ok]
    extra = {
        "tracing_overhead_s": overhead,
        "counts_repeat": all(t.counts == tracers[0].counts for t in tracers),
        "breakdown": {
            "certified_s": [breakdown(t, None) for t in tracers],
            "stages.extend_with_jets": [
                breakdown(t, "stages.extend_with_jets") for t in tracers],
        },
    }
    return metrics, extra


def run(args) -> tuple:
    """Measure one workload; returns the result line and the result record."""
    wl = pipeline.WORKLOADS[args.workload]
    cfg = pipeline.make_config()
    tracers = []

    def untraced():
        return timed_pipeline(cfg, wl)

    def traced():
        tracer = Tracer()
        with tracer:
            out = timed_pipeline(cfg, wl)
        tracers.append(tracer)
        return out

    if args.trace:
        # The first pipeline in a process is slower; run one untimed before
        # comparing untraced with traced pipelines, so the difference is the
        # overhead.
        pipeline.run_pipeline(cfg, wl)
        plain_runs = repeat(untraced, args.seconds / 2.0)
        traced_runs = repeat(traced, args.seconds / 2.0)
    else:
        plain_runs = repeat(untraced, args.seconds)
        traced_runs = []
    rss = peak_rss_mb()
    outcomes = plain_runs + traced_runs
    notes = check_all(cfg, wl, outcomes)
    attempts = sum(o.stage_attempts for o in outcomes)
    fail_frac = sum(o.stage_failures for o in outcomes) / attempts
    plain = [o for o in plain_runs if o.table is not None]
    traced_ok = [(o, t) for o, t in zip(traced_runs, tracers)
                 if o.table is not None]
    record = {
        "workload": {"name": wl.name, "K": wl.K, "N_t": wl.N_t,
                     "jobs": wl.jobs},
        "seconds": args.seconds, "trace": args.trace,
        "pipelines": [pipeline_record(o, i >= len(plain_runs))
                      for i, o in enumerate(outcomes)],
        "failures": notes,
        "fail_frac": fail_frac,
    }
    metrics = {}
    if args.trace and plain and traced_ok:
        metrics, extra = per_layer(plain, traced_ok, fail_frac)
        record.update(extra)
        record["spans_written_to"] = write_spans(args, tracers)
    elif not args.trace and plain:
        metrics, extra = end_to_end(plain, rss)
        record.update(extra)
        record["tracing_overhead_s"] = previous_overhead(wl.name)
    record["provenance"] = provenance(args.seed)
    n_ok = sum(o.table is not None for o in outcomes)
    result = {"correct": not any(n["stage"] == "check" for n in notes),
              "attempted": len(outcomes), "failed": len(outcomes) - n_ok,
              "metrics": metrics}
    record["result"] = result
    return result, record


def pipeline_record(o, traced: bool) -> dict:
    rec = {"traced": traced, "certified_s": o.certified_s, "cpu_s": o.cpu_s,
           "stage_attempts": o.stage_attempts,
           "stage_failures": o.stage_failures, "checks": o.checks}
    if o.table is not None:
        rec["quality"] = pipeline.quality(o.table)
        rec["digest"] = o.table.digest()
    return rec


def result_path(workload: str, seed: int, trace: int, kind="BENCH") -> Path:
    return RESULTS / ("%s_%s_seed%d_trace%d.json" % (kind, workload, seed, trace))


def previous_overhead(workload: str):
    """Tracing overhead from the latest traced result of this workload."""
    found = sorted(RESULTS.glob("BENCH_%s_seed*_trace1.json" % workload),
                   key=lambda p: p.stat().st_mtime)
    for path in reversed(found):
        try:
            return json.loads(path.read_text())["tracing_overhead_s"]
        except (ValueError, KeyError):
            continue
    return None


def write_spans(args, tracers) -> str:
    path = result_path(args.workload, args.seed, 1, kind="TRACE")
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps([t.to_json_obj() for t in tracers]))
    return str(path.relative_to(ROOT))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fourbody" / "stages.py").is_file():
        print("perfbench: no fourbody package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run(args)
    RESULTS.mkdir(exist_ok=True)
    path = result_path(args.workload, args.seed, args.trace)
    path.write_text(json.dumps(record, indent=1, default=str))
    for name, m in result["metrics"].items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for root, rows in record.get("breakdown", {}).items():
        total = sum(rows[0].values())
        print("breakdown of %s (first traced pipeline):" % root)
        for g, sec in rows[0].items():
            print("  %-12s %9.3f s  %5.1f%%" % (g, sec, 100.0 * sec / total))
    for note in record["failures"]:
        print("failed pipeline %(pipeline)d at %(stage)s: %(error)s" % note)
    print(json.dumps(result))
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
