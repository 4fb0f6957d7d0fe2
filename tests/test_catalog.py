"""Manifest parsing and entry construction."""

import numpy as np
import pytest

from wefe import catalog, jets
from wefe.errors import DomainError, ManifestError, ParameterOutOfRange

ALL_IDS = [
    "cor36-1-kneg", "cor36-1-kpos", "cor36-2-tau-neg", "cor36-2-tau-pos",
    "cor36-2-tau-zero", "ex37-warped3d", "ex52-liegroup", "ex66-kundt",
    "lemma46-multiwarp", "minkowski", "thm11-planewave", "thm41-ppwave",
    "thm41-surfaces", "thm62-ppwave",
]


def test_entry_ids_complete_and_sorted():
    assert catalog.entry_ids() == ALL_IDS


@pytest.mark.parametrize("eid", ALL_IDS)
def test_every_entry_builds(eid):
    spec = catalog.build(eid)
    assert spec.name == eid
    assert spec.n == len(spec.coords) == len(spec.box)
    # density evaluates at the box centre
    c = np.array([(lo + hi) / 2 for lo, hi in spec.box])
    v = jets.eval_values(spec.h, c[None, :])
    assert np.isfinite(v).all()


def test_get_entry_fields():
    e = catalog.get_entry("ex66-kundt")
    assert e.dimension == 4
    assert e.signature == "lorentzian"
    assert e.coords == ("u", "v", "x1", "x2")
    assert "C" in e.params
    assert e.kundt == "u"
    assert e.citation


def test_get_entry_unknown():
    with pytest.raises(ManifestError):
        catalog.get_entry("nonsense")


def test_param_override_in_range():
    s1 = catalog.build("ex66-kundt")
    s2 = catalog.build("ex66-kundt", C=2.0)
    assert s1.flags["params"]["C"] == 1.0
    assert s2.flags["params"]["C"] == 2.0


def test_param_override_out_of_range():
    with pytest.raises(ParameterOutOfRange):
        catalog.build("ex66-kundt", C=100.0)


def test_unknown_param_rejected():
    with pytest.raises(ParameterOutOfRange):
        catalog.build("minkowski", bogus=1.0)


GOOD = """\
id: toy
dimension: 3
signature: riemannian
coords: x y z
citation: none
box: -1 1
box: -1 1
box: -1 1
param: a 1.0 0.5 2.0
metric 0 0: (add 1 (mul a x x))
metric 1 1: 1
metric 2 2: 1
density: (exp x)
"""


def test_user_manifest_roundtrip(tmp_path):
    path = tmp_path / "toy.manifest"
    path.write_text(GOOD)
    e = catalog.load_manifest(path)
    assert e.entry_id == "toy"
    spec = e.build(a=2.0)
    assert spec.n == 3
    assert spec.flags["params"]["a"] == 2.0


def test_manifest_comments_and_blanks():
    e = catalog.parse_manifest("# leading comment\n\n" + GOOD)
    assert e.entry_id == "toy"


@pytest.mark.parametrize("mangle, frag", [
    (lambda s: s.replace("id: toy\n", ""), "id"),
    (lambda s: s.replace("box: -1 1\n", "", 1), "box"),
    (lambda s: s.replace("coords: x y z", "coords: x y"), "coordinate"),
    (lambda s: s.replace("signature: riemannian",
                         "signature: euclidean"), "signature"),
    (lambda s: s + "junk line without separator\n", "key"),
    (lambda s: s + "frobnicate: 1\n", "unknown key"),
])
def test_manifest_rejects_malformed(mangle, frag):
    with pytest.raises(ManifestError):
        catalog.parse_manifest(mangle(GOOD))


def test_unbalanced_expression_fails_at_build():
    e = catalog.parse_manifest(
        GOOD.replace("density: (exp x)", "density: (exp x"))
    with pytest.raises(ManifestError, match="toy: density") as exc:
        e.build()
    assert isinstance(exc.value.__cause__, DomainError)


def test_metric_index_outside_dimension_names_line():
    with pytest.raises(ManifestError, match=r"<manifest>:14: metric 0 7"):
        catalog.parse_manifest(GOOD + "metric 0 7: 1\n")


def test_duplicate_metric_line_names_line():
    with pytest.raises(ManifestError,
                       match=r"<manifest>:14: metric 1 1: already given "
                             r"on line 11"):
        catalog.parse_manifest(GOOD + "metric 1 1: 2\n")


def test_key_error_inside_line_names_source_and_line():
    text = GOOD.replace("signature: riemannian", "signature: lorentz")
    with pytest.raises(ManifestError,
                       match=r"toy\.manifest:3: unknown signature 'lorentz'"):
        catalog.parse_manifest(text, source="toy.manifest")


@pytest.mark.parametrize("field, line, bad", [
    ("density", "density: (exp x)", "density: (foo x)"),
    ("metric 1 1", "metric 1 1: 1", "metric 1 1: (foo x)"),
    ("metric 0 0", "metric 0 0: (add 1 (mul a x x))",
     "metric 0 0: (pow x abc)"),
    ("density", "density: (exp x)", "density: (pow x 1/0)"),
])
def test_expression_error_names_entry_and_field(field, line, bad):
    e = catalog.parse_manifest(GOOD.replace(line, bad))
    with pytest.raises(ManifestError, match=f"toy: {field}: "):
        e.build()


def test_metric_index_order_normalized():
    text = GOOD + "metric 1 0: (mul x y)\n"
    e = catalog.parse_manifest(text)
    assert (0, 1) in e.metric


def test_kundt_vector_exprs():
    spec = catalog.build("thm62-ppwave")
    V = catalog.kundt_vector_exprs(spec)
    assert len(V) == 4
    vals = [float(jets.eval_values(c, np.zeros((1, 4)))[0]) for c in V]
    assert vals == [1.0, 0.0, 0.0, 0.0]


def test_kundt_vector_absent():
    spec = catalog.build("minkowski")
    assert catalog.kundt_vector_exprs(spec) is None


def test_flags_parsed_types():
    e = catalog.get_entry("thm41-ppwave")
    assert e.flags["is_solution"] is True
    assert e.flags["locally_conformally_flat"] is False
    assert e.flags["ricci_type"] == "I.a"


def test_manifest_file_names_are_ids():
    # get_entry parses <id>.manifest alone, so each file must carry its id
    for item in catalog._manifest_dir().iterdir():
        if item.name.endswith(".manifest"):
            e = catalog.parse_manifest(item.read_text(encoding="utf-8"))
            assert item.name == f"{e.entry_id}.manifest"
            assert catalog.get_entry(e.entry_id).entry_id == e.entry_id


@pytest.mark.parametrize("eid", ["../cli", "minkowski.manifest", "",
                                 "manifests/minkowski"])
def test_get_entry_rejects_path_like_ids(eid):
    with pytest.raises(ManifestError):
        catalog.get_entry(eid)


def test_get_entry_rejects_id_differing_from_file_name(tmp_path,
                                                       monkeypatch):
    text = (catalog._manifest_dir() / "minkowski.manifest").read_text(
        encoding="utf-8")
    (tmp_path / "flat.manifest").write_text(text, encoding="utf-8")
    monkeypatch.setattr(catalog, "_manifest_dir", lambda: tmp_path)
    with pytest.raises(ManifestError, match="flat.manifest"):
        catalog.get_entry("flat")
