"""Spans and counts around the public entry points of the fourbody layers.

`Tracer.install` replaces each traced function with a wrapper, in its
home module and in every loaded `fourbody` module that imported it by name,
and `Tracer.remove` puts the originals back.  Nothing under `src/fourbody`
is edited.  Spans (name, start, end, parent) and counts stay in memory until
the run writes them out.  Spans recorded inside pool workers are lost with
the workers; the parent-side spans and the pool counters remain.

Kernel counts are computed from operand shapes, so they repeat exactly:

* `ivarray.carr_conv_madds`: len(a) * len(b) complex interval multiply-adds.
* `ivarray.cconv_mr_madds`: len(a) * len(b) per convolution the kernel runs,
  two without operand radii (midpoint, magnitudes) and five with them.
* `ivarray.cmm_flops`: 8mnp real flops for the complex midpoint product and
  2mnp per real magnitude product (one, or four with operand radii).
* `numpy.linalg.inv_n`: the sum of the matrix orders n over all calls.
* `stages.pool_snapshot_bytes`: len(pickle.dumps(snapshot)) for each task
  the process pool is sent.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from collections import Counter


def _carr_conv_counts(args, kwargs):
    a, b = args[:2]
    return {"madds": len(a) * len(b)}


def _cconv_mr_counts(args, kwargs):
    am, ar, bm, br = args[:4]
    n = len(am) * len(bm)
    return {"madds": n * (2 if ar is None and br is None else 5)}


def _cmm_counts(args, kwargs):
    import numpy as np
    am, ar, bm, br = args[:4]
    a, b = np.shape(am), np.shape(bm)
    m, n = (a if len(a) == 2 else (1,) + tuple(a))
    p = b[1] if len(b) == 2 else 1
    real_products = 1 if ar is None and br is None else 4
    return {"flops": 8 * m * n * p + 2 * m * n * p * real_products}


def _inv_counts(args, kwargs):
    import numpy as np
    return {"n": int(np.shape(args[0])[-1])}


def _jet_order(args, kwargs):
    alpha = args[0]
    return int(alpha[0]) + int(alpha[1])


class Tracer:
    """In-memory spans and counts for one traced section of a run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, jet order]
        self.counts = Counter()
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name, order=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, order])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrapper(self, name, fn, counts=None, order=None, around=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[name + "_calls"] += 1
            if counts is not None:
                for key, v in counts(args, kwargs).items():
                    tracer.counts[name + "_" + key] += v
            if around is not None:
                args, kwargs = around(args, kwargs)
            tracer._open(name, order(args, kwargs) if order else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name, **how):
        original = getattr(owner, attr)
        wrapped = self._wrapper(name, original, **how)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for k, m in sorted(sys.modules.items())
                        if k.startswith("fourbody") and m is not owner
                        and getattr(m, attr, None) is original]
        for h in holders:
            self._patched.append((h, attr, original))
            setattr(h, attr, wrapped)

    def _newton_polish_around(self, args, kwargs):
        """Count Newton iterations: each one evaluates the jacobian once."""
        jacobian = args[1] if len(args) > 1 else kwargs["jacobian"]

        def counted(x):
            self.counts["numerics.newton_iters"] += 1
            return jacobian(x)

        if len(args) > 1:
            return (args[0], counted) + tuple(args[2:]), kwargs
        return args, dict(kwargs, jacobian=counted)

    def _pool_counts(self, args, kwargs):
        from fourbody import stages
        jet, cfg, alphas = args[:3]
        snap = stages._strip_unvalidated(jet)
        snap.ctx_cache = None
        size = len(pickle.dumps(snap))
        return {"tasks": len(alphas), "snapshot_bytes": size * len(alphas)}

    def install(self):
        """Wrap every traced entry point; undo with `remove`."""
        import numpy as np
        from fourbody import ivarray, model, numerics, opbound, radii, seeding, stages

        if self._patched:
            raise RuntimeError("tracer already installed")
        for fn in ("planar_equilibria", "orbit_to_jacobi", "bundle_guess"):
            self._patch(seeding, fn, "seeding." + fn)
        for fn in ("validate_order0", "start_jet_table", "extend_with_jets",
                   "newton_stage"):
            self._patch(stages, fn, "stages." + fn)
        for fn in ("jet_problem", "validate_jet"):
            self._patch(stages, fn, "stages." + fn, order=_jet_order)
        self._patch(stages, "_level_parallel", "stages.pool",
                    counts=self._pool_counts)
        self._patch(numerics, "newton_polish", "numerics.newton_polish",
                    around=self._newton_polish_around)
        self._patch(numerics, "remainder_layer", "numerics.remainder_layer")
        self._patch(ivarray, "carr_conv", "ivarray.carr_conv",
                    counts=_carr_conv_counts)
        self._patch(ivarray, "cconv_mr", "ivarray.cconv_mr",
                    counts=_cconv_mr_counts)
        self._patch(ivarray, "cmm", "ivarray.cmm", counts=_cmm_counts)
        self._patch(np.linalg, "inv", "numpy.linalg.inv", counts=_inv_counts)
        self._patch(model.DF0, "apply", "model.DF0.apply")
        self._patch(model, "field_F_grid", "model.field_F_grid")
        self._patch(radii, "radii_newton", "radii.radii_newton")
        self._patch(radii.Certificate, "recheck", "radii.recheck")
        self._patch(opbound, "block_norms", "opbound.block_norms")

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- summaries ---------------------------------------------------------

    def inclusive(self) -> Counter:
        """Seconds inside each span name, not counting a span nested in one
        of the same name twice."""
        out = Counter()
        for name, t0, t1, parent, _ in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += t1 - t0
        return out

    def self_times(self) -> Counter:
        """Seconds in each span name minus the part its child spans cover."""
        out = Counter()
        for name, t0, t1, _, _ in self.spans:
            out[name] += t1 - t0
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= t1 - t0
        return out

    def levels(self) -> Counter:
        """Seconds in jet_problem and validate_jet, by jet order |alpha|."""
        out = Counter()
        for name, t0, t1, _, order in self.spans:
            if order is not None:
                out[order] += t1 - t0
        return out

    def top_level(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def nesting_errors(self) -> list:
        """Spans that are unclosed or not inside their parent's interval."""
        bad = []
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if t1 is None or t1 < t0:
                bad.append((i, name, "unclosed"))
            elif parent >= 0:
                _, p0, p1, _, _ = self.spans[parent]
                if parent >= i or p1 is None or t0 < p0 or t1 > p1:
                    bad.append((i, name, "outside parent %d" % parent))
        return bad

    def to_json_obj(self):
        return {
            "spans": [{"name": n, "start": t0, "end": t1, "parent": p,
                       **({"order": o} if o is not None else {})}
                      for n, t0, t1, p, o in self.spans],
            "counts": dict(sorted(self.counts.items())),
        }
