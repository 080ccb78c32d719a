"""Every function and method of `fourbody` runs in the program.

The check runs the program under `sys.setprofile` and records each code
object that it enters, in this order: the reference configuration at K = 24
and N_t = 3 through seeding, order 0, order 1 and the jets, by the
benchmark's own `pipeline.run_pipeline`; the table checks the benchmark
makes (`pipeline.check_table` and `pipeline.quality`: completeness, every
recheck, the JSON round trip of the digest, E_total and the sign of
Re(lambda)); `fourbody recheck` on the saved table; `validate_jet` and
`jet_problem` on one jet; and one failing certificate.

Every function and method defined in src/fourbody, nested ones included,
must then have been entered.  A definition that only the tests reach is
test code and belongs under tests/.  The exemptions are the protocol
dunders in PROTOCOL, which the language calls outside this run (the
benchmark's tracer pickles tables, and `__setattr__` guards immutability),
and the one name in ALLOWED: `numerics.remainder_layer`, an entry point
that only the benchmark's tracer (`perfbench/tracing.py`) patches and
names.  A definition is matched to the code entered by its file, the first
line of its code object and its name.

A second check reads the sources alone: every name that a module of
src/fourbody imports is read in that module or listed in its `__all__`.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import fourbody
from fourbody import cli, numerics, stages
from fourbody.radii import NoNegativeRadius

ROOT = Path(__file__).resolve().parent.parent
# the modules the run imports, wherever the package is found
SRC = sorted(Path(fourbody.__file__).resolve().parent.glob("*.py"))

sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402

PROTOCOL = {"__repr__", "__eq__", "__hash__", "__reduce__", "__setattr__"}
ALLOWED = {"numerics.remainder_layer"}


def definitions(tree, prefix):
    """(qualified name, name, first line of its code object) of every
    function and method in a tree, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            # a decorated function's code starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, node.name, first
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from definitions(node, prefix + node.name + ".")
        else:
            yield from definitions(node, prefix)


def where(code) -> tuple:
    return Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name


def run_program(tmp_path, capsys, monkeypatch):
    """The program's traffic, in the order of the module docstring."""
    cfg = pipeline.make_config()
    out = pipeline.run_pipeline(cfg, pipeline.Workload("tier1", K=24, N_t=3, jobs=1))
    assert out.table is not None, out.error
    pipeline.check_table(out)
    pipeline.quality(out.table)
    table = out.table

    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_obj()))
    assert cli.main(["recheck", str(path)]) == 0
    capsys.readouterr()

    alpha = (2, 0)
    assert stages.validate_jet(alpha, table, cfg).r > 0.0
    residual, jacobian = stages.jet_problem(alpha, table, cfg)
    J = jacobian(None)
    assert np.isfinite(J @ residual(np.zeros(len(J)))).all()

    monkeypatch.setattr(stages, "R_STAR", 1e-12)
    with pytest.raises(NoNegativeRadius):
        stages.validate_jet(alpha, table, cfg)


def test_every_definition_has_a_caller(tmp_path, capsys, monkeypatch):
    # a cached function that an earlier test already called would not be
    # entered again, so the check would depend on the order of the tests
    numerics._openblas_threads.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_program(tmp_path, capsys, monkeypatch)
    finally:
        sys.setprofile(before)
    ran = {where(code) for code in entered}
    missed = []
    for path in SRC:
        for qualname, name, first in definitions(ast.parse(path.read_text()),
                                                 path.stem + "."):
            at = (path.resolve(), first, name)
            if at in ran or name in PROTOCOL or qualname in ALLOWED:
                continue
            missed.append(qualname)
    assert missed == [], "\n".join(missed)


def imported_names(tree):
    """The names that the imports of a tree bind, __future__ left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_import_is_read():
    # a name a module imports is read in that module or exported by its
    # __all__, so a definition that moves takes its imports with it
    unread = []
    for path in SRC:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unread += [path.stem + "." + name for name in imported_names(tree)
                   if name not in used]
    assert unread == [], "\n".join(unread)
