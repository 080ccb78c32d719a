"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs a small pipeline (K=24, N_t=3) traced twice on the sequential path
and twice through the process pool, then once untraced, and checks that

* the computed kernel counts (madds, flops, inv_n, Newton iterations, pool
  tasks and snapshot bytes) of the two traced runs are equal and non-zero;
* every span is closed and lies inside its parent;
* after tracing, every wrapped attribute is the original object again, and
  the untraced run leaves them so.

Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pipeline
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# Kernels run in the parent only on the sequential path; pool tasks run in
# workers whose spans and counts are lost, so the pool run checks its own.
MUST_COUNT = {
    1: ("ivarray.carr_conv_madds", "ivarray.cconv_mr_madds",
        "ivarray.cmm_flops", "numpy.linalg.inv_n", "numerics.newton_iters"),
    2: ("stages.pool_tasks", "stages.pool_snapshot_bytes"),
}


def snapshot():
    """Every attribute of the fourbody modules, plus the foreign ones traced."""
    import numpy as np
    from fourbody import model, radii

    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("fourbody"):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    out[("numpy.linalg", "inv")] = np.linalg.inv
    out[("DF0", "apply")] = model.DF0.apply
    out[("Certificate", "recheck")] = radii.Certificate.recheck
    return out


def changed(before) -> list:
    after = snapshot()
    return sorted("%s.%s" % k for k, v in before.items() if after.get(k) is not v)


def check_traced(cfg, wl, before) -> tuple:
    """Two traced runs of `wl`; returns (problems, number of counts)."""
    problems = []
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            out = pipeline.run_pipeline(cfg, wl)
        tracers.append(tracer)
        if out.table is None:
            problems.append("traced pipeline failed: " + out.error)
        for bad in tracer.nesting_errors():
            problems.append("span %d (%s) %s" % bad)
        problems += ["not restored after tracing: " + a for a in changed(before)]
    a, b = (t.counts for t in tracers)
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            problems.append("jobs=%d: count %s differs: %r != %r"
                            % (wl.jobs, key, a.get(key), b.get(key)))
    for key in MUST_COUNT[wl.jobs]:
        if not a.get(key):
            problems.append("jobs=%d: count %s was not recorded" % (wl.jobs, key))
    return problems, len(a)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from fourbody import seeding, stages  # noqa: F401  (load every module)

    cfg = pipeline.make_config()
    before = snapshot()
    problems = []
    for jobs in (1, 2):
        wl = pipeline.Workload("selftest", K=24, N_t=3, jobs=jobs)
        found, n = check_traced(cfg, wl, before)
        problems += found
        print("jobs=%d: %d counts compared" % (jobs, n))
    small = pipeline.Workload("selftest", K=24, N_t=3, jobs=1)
    out = pipeline.run_pipeline(cfg, small)
    if out.table is None:
        problems.append("untraced pipeline failed: " + out.error)
    problems += ["changed by an untraced run: " + a for a in changed(before)]
    for p in problems:
        print("FAIL", p)
    print("selftest: %d problems" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
