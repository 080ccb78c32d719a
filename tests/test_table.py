"""The jet table's index set, the names of its stages, its mirrors, and a
table saved by an earlier version of the code.

`tests/data/table_k24_nt2.json.gz` is the K = 24, N_t = 2 table of the
benchmark's reference pipeline (`perfbench/pipeline.py`), saved as
`json.dumps(table.to_json_obj())`, gzipped, by the code of commit 5ec833f,
before the `table` module owned it.  It must still load, keep its JSON and
digest, and recheck.
"""

import gzip
import json
from pathlib import Path

import pytest

from fourbody import cli
from fourbody.table import (
    JetTable,
    cert_tag,
    digest_stage,
    mirror,
    rescale_jets,
    solved,
    source,
    stage_alpha,
    stage_key,
)

SAVED = Path(__file__).resolve().parent / "data" / "table_k24_nt2.json.gz"
# the digest of the saved table, as the code that saved it computed it
SAVED_DIGEST = "7e8da321d8eaa9044929f36120ce62425331e5bd9384e1c0ca5bc9c9e6c98e51"
FORMS = (stage_key, cert_tag, digest_stage)


@pytest.fixture(scope="module")
def saved_obj():
    with gzip.open(SAVED, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def saved(saved_obj):
    return JetTable.from_json_obj(saved_obj)


@pytest.mark.parametrize("p", range(9))
def test_solved_and_their_mirrors_are_each_alpha_once(p):
    got = solved(p) + [mirror(a) for a in solved(p) if mirror(a) != a]
    assert sorted(got) == [(m, p - m) for m in range(p + 1)]
    assert solved(p) == sorted(solved(p), reverse=True)
    assert all(source(a) == source(mirror(a)) == a for a in solved(p))


def test_the_name_forms():
    assert [f((0, 0), "unstable") for f in FORMS] == ["order0"] * 3
    assert [f((1, 0), "unstable") for f in FORMS] == ["order1", "order1:unstable", "order1"]
    assert [f((2, 1), "stable") for f in FORMS] == ["jet:2,1:stable"] * 2 + ["jet:2,1"]
    # a mirror's stage is the one of its solved alpha
    assert [f((1, 2), "stable") for f in FORMS] == [f((2, 1), "stable") for f in FORMS]


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
def test_each_name_form_goes_back_to_its_alpha(form):
    for kind in ("stable", "unstable"):
        alphas = [a for p in range(9) for a in solved(p)]
        names = [form(a, kind) for a in alphas]
        assert len(set(names)) == len(names)
        assert [stage_alpha(name, kind, form) for name in names] == alphas


@pytest.mark.parametrize("name", [
    "jet:0,3:unstable", "jet:03,0:unstable", "jet:3,0:stable", "jet:3,0", "jet:3,0:unstable:x",
    "jetx3,0", "foo:3,0:unstable", "order1:unstable", "order2", "jet:1,0:unstable", "jet:", ""])
def test_a_name_no_writer_gives_has_no_alpha(name):
    with pytest.raises(ValueError):
        stage_alpha(name, "unstable")


def test_the_saved_table_names_its_stages_by_the_forms(saved):
    alphas = {stage_alpha(key, saved.kind): key for key in saved.certs}
    assert sorted(alphas) == sorted(a for p in range(saved.N_t + 1) for a in solved(p))
    for alpha, key in alphas.items():
        assert saved.certs[key].stage == cert_tag(alpha, saved.kind)
        assert stage_alpha(saved.certs[key].stage, saved.kind, cert_tag) == alpha
        assert key in saved.digests


def test_complete_needs_every_mirror(saved):
    assert saved.complete()
    for alpha in [(0, 1), (0, 2)]:
        for part in ("orders", "radii"):
            table = rescale_jets(saved, 1.0)
            del getattr(table, part)[alpha]
            assert not table.complete(), (alpha, part)


def test_write_files_the_mirror(saved):
    # writing each solved alpha of the saved table again, from its own
    # centers, radius and certificate, gives the saved table bit for bit
    table = JetTable(**{**vars(rescale_jets(saved, 1.0)), "orders": {}, "radii": {},
                        "certs": {}, "digests": {}})
    for p in range(saved.N_t + 1):
        for alpha in solved(p):
            key = stage_key(alpha, saved.kind)
            table.write(alpha, saved.orders[alpha], saved.radii[alpha], saved.certs[key])
            want = saved.orders[alpha]
            if mirror(alpha) != alpha:
                want = [s.conj_reflect() for s in want]
            assert ([s.to_json_obj() for s in table.orders[mirror(alpha)]]
                    == [s.to_json_obj() for s in want])
            assert table.radii[mirror(alpha)] == table.radii[alpha] == saved.radii[alpha]
            assert table.mirrored(alpha)
    assert table.digest() == saved.digest()
    # a mirror with another radius, or moved, is no longer the reflection
    table.radii[(0, 1)] *= 2.0
    assert not table.mirrored((1, 0))
    table.write((2, 0), saved.orders[(2, 0)][::-1], 0.5,
                saved.certs[stage_key((2, 0), saved.kind)])
    assert table.mirrored((2, 0))
    table.orders[(0, 2)] = saved.orders[(0, 2)]
    assert not table.mirrored((2, 0))


def test_a_saved_table_loads_keeps_its_digest_and_rechecks(saved_obj, tmp_path, capsys):
    table = JetTable.from_json_obj(saved_obj)
    assert json.loads(json.dumps(table.to_json_obj())) == saved_obj
    assert table.digest() == SAVED_DIGEST
    path = tmp_path / "table.json"
    path.write_text(json.dumps(saved_obj))
    assert cli.main(["recheck", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["ok", "jet:1,1:unstable"], ["ok", "jet:2,0:unstable"], ["ok", "order0"], ["ok", "order1"]]
