"""Manifest parsing and entry construction."""

import os
import pathlib
import subprocess
import sys

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
    v = jets.eval_jets(spec.h, c[None, :], jets.jet_context(spec.n, 0))
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
    # named by its file and line, as a bad line is at parse
    e = catalog.parse_manifest(
        GOOD.replace("density: (exp x)", "density: (exp x"),
        source="toy.manifest")
    with pytest.raises(ManifestError,
                       match=r"^toy\.manifest:13: density: ") as exc:
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


@pytest.mark.parametrize("extra, field, first", [
    ("id: toy2", "id", 1),
    ("dimension: 3", "dimension", 2),
    ("signature: lorentzian", "signature", 3),
    ("coords: a b c", "coords", 4),
    ("citation: other", "citation", 5),
    ("kundt: x\nkundt: y", "kundt", 14),
    ("density: (add 2 x)", "density", 13),
    ("param: a 9.0 0.5 20.0", "param a", 9),
    ("flag: is_solution true\nflag: is_solution false",
     "flag is_solution", 14),
])
def test_repeated_field_names_both_lines(extra, field, first):
    later = GOOD.count("\n") + extra.count("\n") + 1
    with pytest.raises(ManifestError,
                       match=f"<manifest>:{later}: {field}: already given "
                             f"on line {first}$"):
        catalog.parse_manifest(GOOD + extra + "\n")
    # other names, and box lines, may repeat
    e = catalog.parse_manifest(GOOD + "param: b 1.0 0.0 2.0\n"
                               "flag: is_solution true\n"
                               "flag: locally_conformally_flat false\n")
    assert set(e.params) == {"a", "b"} and len(e.box) == 3


def test_param_named_like_a_coordinate_names_line():
    with pytest.raises(ManifestError,
                       match=r"toy\.manifest:14: param x: the name of a "
                             r"coordinate"):
        catalog.parse_manifest(GOOD + "param: x 0.5 0 1\n",
                               source="toy.manifest")


@pytest.mark.parametrize("param, msg", [
    ("param: b 5 0 1", r"param b: default 5\.0 outside \[0\.0, 1\.0\]"),
    ("param: b -0.5 0 1", r"param b: default -0\.5 outside \[0\.0, 1\.0\]"),
    ("param: b nan 0 1", r"param b: default nan outside \[0\.0, 1\.0\]"),
    ("param: b 1 2 0", r"param b: default 1\.0 outside \[2\.0, 0\.0\]"),
])
def test_param_default_outside_its_range_names_line(param, msg):
    with pytest.raises(ManifestError, match=r"toy\.manifest:14: " + msg):
        catalog.parse_manifest(GOOD + param + "\n", source="toy.manifest")
    # the ends of the range are admissible defaults
    e = catalog.parse_manifest(GOOD + "param: b 0 0 1\nparam: c 1 0 1\n")
    assert e.build().flags["params"] == {"a": 1.0, "b": 0.0, "c": 1.0}


@pytest.mark.parametrize("box, msg", [
    ("box: 1 -1", r"box: lower bound 1\.0 is not below upper bound -1\.0"),
    ("box: 0.5 0.5", r"box: lower bound 0\.5 is not below upper bound 0\.5"),
    ("box: -inf 1", r"box: expected a finite number, got '-inf'"),
    ("box: 0 nan", r"box: expected a finite number, got 'nan'"),
    ("box: 0", r"box: not enough values"),
])
def test_bad_box_names_line(box, msg):
    text = GOOD.replace("box: -1 1\n", box + "\n", 1)
    with pytest.raises(ManifestError, match=r"toy\.manifest:6: " + msg):
        catalog.parse_manifest(text, source="toy.manifest")


@pytest.mark.parametrize("n", [2, 7])
def test_dimension_outside_3_to_6_names_line(n):
    # even with n coordinates and n box lines
    text = (GOOD.replace("dimension: 3", f"dimension: {n}")
            .replace("coords: x y z",
                     "coords: " + " ".join(f"x{i}" for i in range(n)))
            .replace("box: -1 1\n" * 3, "box: -1 1\n" * n))
    with pytest.raises(ManifestError,
                       match=rf"toy\.manifest:2: dimension: {n} outside "
                             rf"3\.\.6$"):
        catalog.parse_manifest(text, source="toy.manifest")


def test_kundt_naming_no_coordinate_names_line():
    with pytest.raises(ManifestError,
                       match=r"toy\.manifest:14: kundt: 'zz' is not a "
                             r"coordinate$"):
        catalog.parse_manifest(GOOD + "kundt: zz\n", source="toy.manifest")
    assert catalog.parse_manifest(GOOD + "kundt: y\n").kundt == "y"


def test_repeated_coordinate_name_names_line():
    with pytest.raises(ManifestError,
                       match=r"toy\.manifest:4: coords: 'x' repeats"):
        catalog.parse_manifest(GOOD.replace("coords: x y z", "coords: x y x"),
                               source="toy.manifest")


@pytest.mark.parametrize("make, reason", [
    (lambda p: None, "No such file or directory"),
    (lambda p: p.mkdir(), "Is a directory"),
    (lambda p: p.write_bytes(GOOD.encode() + b"citation: \xe9\n"),
     "can't decode byte 0xe9"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_manifest_names_path(tmp_path, make, reason):
    path = tmp_path / "toy.manifest"
    make(path)
    with pytest.raises(ManifestError) as exc:
        catalog.load_manifest(path)
    assert str(exc.value).startswith(f"{path}: cannot read manifest: ")
    assert reason in str(exc.value)


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
    # the entry's manifest file, the field's line and the field
    lineno = GOOD.splitlines().index(line) + 1
    e = catalog.parse_manifest(GOOD.replace(line, bad), source="toy.manifest")
    with pytest.raises(ManifestError,
                       match=rf"^toy\.manifest:{lineno}: {field}: "):
        e.build()


def test_metric_index_order_normalized():
    text = GOOD + "metric 1 0: (mul x y)\n"
    e = catalog.parse_manifest(text)
    assert (0, 1) in e.metric


def test_kundt_vector_exprs():
    spec = catalog.build("thm62-ppwave")
    V = catalog.kundt_vector_exprs(spec)
    assert len(V) == 4
    vals = jets.eval_jets(V, np.zeros((1, 4)), jets.jet_context(4, 0))
    assert vals[:, 0, 0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_kundt_vector_absent():
    spec = catalog.build("minkowski")
    assert catalog.kundt_vector_exprs(spec) is None


def test_flags_parsed_types():
    e = catalog.get_entry("thm41-ppwave")
    assert e.flags["is_solution"] is True
    assert e.flags["locally_conformally_flat"] is False
    assert e.flags["ricci_type"] == "I.a"


def test_flag_values_take_their_declared_types():
    e = catalog.get_entry("cor36-2-tau-neg")
    assert e.flags["tau"] == 3.0 and isinstance(e.flags["tau"], float)
    assert e.flags["fiber_curvature"] == 1.0
    assert e.flags["eps"] == -1.0
    assert e.flags["warped_product"] == "warped"
    assert e.flags["causal_character"] == "timelike"


def test_every_builtin_flag_is_declared():
    for e in catalog.list_entries():
        assert set(e.flags) <= set(catalog.FLAGS), e.entry_id


def test_unknown_flag_names_source_and_line():
    with pytest.raises(ManifestError,
                       match=r"toy\.manifest:14: unknown flag 'is_soluton'"):
        catalog.parse_manifest(GOOD + "flag: is_soluton false\n",
                               source="toy.manifest")


@pytest.mark.parametrize("line, frag", [
    ("flag: is_solution yes", "expected true or false"),
    ("flag: ricci_flat 1", "expected true or false"),
    ("flag: tau three", "could not convert"),
    ("flag: tau nan", "finite"),
    ("flag: fiber_curvature inf", "finite"),
    ("flag: ricci_type IV", "expected one of I.a, I.b, II, III"),
    ("flag: causal_character null", "expected one of"),
    ("flag: warped_product twisted", "expected one of direct, warped"),
])
def test_flag_value_of_wrong_type_names_line(line, frag):
    name = line.split()[1]
    with pytest.raises(ManifestError,
                       match=f"<manifest>:14: flag {name}: .*{frag}"):
        catalog.parse_manifest(GOOD + line + "\n")


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


# -- the per-process table of built-in entries ----------------------------

def _from_file(eid):
    item = catalog._manifest_dir() / f"{eid}.manifest"
    return catalog.parse_manifest(item.read_text(encoding="utf-8"),
                                  source=item.name)


def test_mutating_a_returned_entry_does_not_reach_the_next_call():
    for got in (catalog.get_entry("ex66-kundt"),
                {e.entry_id: e for e in catalog.list_entries()}["ex66-kundt"]):
        got.flags["ricci_type"] = "III"
        got.flags["is_solution"] = False
        got.params["C"] = (9.0, 0.0, 10.0)
        got.metric.clear()
        got.density = "1"
        assert catalog.get_entry("ex66-kundt") == _from_file("ex66-kundt")
        assert catalog.build("ex66-kundt").flags["params"] == {"C": 1.0}
    # a mutated entry builds as it now reads, not from the table
    assert catalog.build(got).flags["params"] == {"C": 9.0}


def test_mutating_a_returned_spec_does_not_reach_the_next_call():
    first = catalog.build("ex66-kundt")
    want = dict(first.flags, params=dict(first.flags["params"]))
    first.flags["ricci_type"] = "III"
    first.flags["params"]["C"] = 5.0
    del first.flags["kundt_vector"]
    for again in (catalog.build("ex66-kundt"),
                  catalog.build(catalog.get_entry("ex66-kundt"))):
        assert again is not first and again.flags == want
        # fresh specs, one shared Expr DAG
        assert again.g is first.g and again.h is first.h


def test_builds_with_overrides_are_not_shared():
    a = catalog.build("ex66-kundt", C=2.0)
    b = catalog.build("ex66-kundt", C=2.0)
    assert a.h is not b.h and a.flags["params"] is not b.flags["params"]
    assert a.flags["params"] == b.flags["params"] == {"C": 2.0}
    assert catalog.build("ex66-kundt").flags["params"] == {"C": 1.0}


def test_unknown_id_fails_on_every_call():
    for _ in range(2):
        with pytest.raises(ManifestError, match="no catalog entry"):
            catalog.get_entry("nonsense")
        with pytest.raises(ManifestError, match="no catalog entry"):
            catalog.build("nonsense")


def test_manifest_that_fails_to_parse_fails_until_fixed(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(catalog, "_manifest_dir", lambda: tmp_path)
    path = tmp_path / "toy.manifest"
    path.write_text(GOOD.replace("dimension: 3", "dimension: three"))
    for _ in range(2):
        with pytest.raises(ManifestError, match="toy.manifest:2"):
            catalog.get_entry("toy")
        with pytest.raises(ManifestError, match="toy.manifest:2"):
            catalog.build("toy")
    path.write_text(GOOD)
    assert catalog.build("toy").flags["params"] == {"a": 1.0}


def test_nothing_is_parsed_at_import():
    code = ("import wefe.cli\n"
            "from wefe import catalog\n"
            "assert not catalog._entries and not catalog._specs\n"
            "assert catalog._listing.cache_info().currsize == 0\n")
    src = pathlib.Path(catalog.__file__).parents[1]
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))
