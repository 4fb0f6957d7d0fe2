"""Command-line interface: exit codes, determinism, report shape."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from wefe import catalog, cli, jets, tensor, weighted
from wefe.errors import VanishingGradient
from wefe.sampling import resolve_seed, sample_box

GOOD_MANIFEST = """\
id: toy-flat
dimension: 4
signature: lorentzian
coords: t x y z
citation: none
box: -1 1
box: -1 1
box: -1 1
box: -1 1
flag: is_solution true
flag: harmonic_curvature true
flag: locally_conformally_flat true
flag: ricci_type I.a
flag: causal_character spacelike
metric 0 0: -1
metric 1 1: 1
metric 2 2: 1
metric 3 3: 1
density: (add 2 x)
"""


def run(argv):
    return cli.main(argv)


def test_verify_single_entry(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["verify", "--entry", "minkowski", "--samples", "10",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    entry = rep["entries"]["minkowski"]
    assert entry["spec"] == "minkowski"
    assert entry["verdicts"]["is_solution"] is True


def test_verify_deterministic(tmp_path):
    a, c = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, c):
        assert run(["verify", "--entry", "ex52-liegroup",
                    "--samples", "12", "--out", str(path)]) == 0

    def strip(rep):
        for item in rep["entries"].values():
            item.pop("seconds", None)
        return rep

    ra = strip(json.loads(a.read_text()))
    rb = strip(json.loads(c.read_text()))
    assert ra == rb


def test_verify_seed_env(tmp_path, monkeypatch):
    a, c = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("WEFE_SEED", "1")
    run(["verify", "--entry", "ex66-kundt", "--samples", "8",
         "--out", str(a)])
    monkeypatch.setenv("WEFE_SEED", "2")
    run(["verify", "--entry", "ex66-kundt", "--samples", "8",
         "--out", str(c)])
    ra = json.loads(a.read_text())["entries"]["ex66-kundt"]
    rb = json.loads(c.read_text())["entries"]["ex66-kundt"]
    assert ra["verdicts"] == rb["verdicts"]
    assert ra["residuals"] != rb["residuals"]


def test_verify_unknown_entry():
    assert run(["verify", "--entry", "no-such-thing"]) == 4


def test_verify_external_manifest(tmp_path):
    path = tmp_path / "toy.manifest"
    path.write_text(GOOD_MANIFEST)
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["entries"]["toy-flat"]["spec"] == "toy-flat"


def test_verify_flag_mismatch_exit_2(tmp_path):
    bad = GOOD_MANIFEST.replace("flag: locally_conformally_flat true",
                                "flag: locally_conformally_flat false")
    path = tmp_path / "bad.manifest"
    path.write_text(bad)
    assert run(["verify", "--manifest", str(path)]) == 2


def test_verify_text_format(tmp_path):
    out = tmp_path / "r.txt"
    assert run(["verify", "--entry", "minkowski", "--samples", "6",
                "--out", str(out), "--format", "text"]) == 0
    text = out.read_text()
    assert "entries.minkowski.spec: minkowski" in text
    assert "entries.minkowski.verdicts.is_solution: True" in text


def test_classify_default_point(tmp_path):
    out = tmp_path / "c.json"
    assert run(["classify", "--entry", "thm62-ppwave",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["type"] == "II"
    assert rep["report"]["nilpotency_degree"] == 2


def test_classify_explicit_point(tmp_path):
    out = tmp_path / "c.json"
    assert run(["classify", "--entry", "ex52-liegroup",
                "--point", "0.1,-0.2,0.3,0.25", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["type"] == "I.b"


def test_classify_bad_point():
    assert run(["classify", "--entry", "ex52-liegroup",
                "--point", "0.1,0.2"]) == 4


def test_groebner_report(tmp_path):
    out = tmp_path / "g.json"
    assert run(["groebner", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["target_in_ideal"] is True
    assert rep["normal_form_of_target"] == "0"
    assert rep["basis_size"] > 0
    assert all(rep["generator_match"].values())
    assert rep["branch_certificate_zero"] is True


def test_ode_run(tmp_path):
    out = tmp_path / "o.json"
    csv_path = tmp_path / "traj.csv"
    code = run(["ode", "--branch", "direct", "--param", "eps=1",
                "--param", "kappa=1", "--param", "c1=0.3", "--param",
                "c2=1.0", "--span=-0.4:0.4", "--csv", str(csv_path),
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["closed_form_deviation"] < 1e-7
    assert rep["gamma_drift"] < 1e-8
    assert csv_path.exists()
    assert csv_path.read_text().startswith("t,h,hp,phi,phip,gamma")


def test_ode_bad_param():
    assert run(["ode", "--branch", "direct", "--param", "eps"]) == 4


def test_ode_flat_branch_rejected():
    # flat configurations fail at evaluation time
    assert run(["ode", "--branch", "direct", "--param", "eps=1",
                "--param", "kappa=0", "--param", "c1=1", "--param",
                "c2=1"]) == 3


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ode_direct_branch_in_every_dimension(tmp_path, n, eps):
    # h'' = -(n-2) eps kappa h / phi^2, so the closed form's frequency
    # depends on n
    out = tmp_path / "o.json"
    assert run(["ode", "--branch", "direct", "--param", f"n={n}",
                "--param", f"eps={eps}", "--param", "kappa=1", "--param",
                "c1=0.3", "--param", "c2=1.0", "--span=-0.4:0.4",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["closed_form_deviation"] < 1e-9


_WARPED_N5 = ["ode", "--branch", "warped", "--param", "n=5", "--param",
              "eps=1", "--param", "tau=2", "--param", "kappa=1", "--param",
              "A=1", "--span=0:1"]


def test_ode_warped_n5_rejects_constants_with_gamma_nonzero(capsys):
    # at n = 5 the closed form needs c1^2 + c2^2 = C^2 = 25; this run used
    # to deviate from it by 0.0185 and exit 2
    assert run(_WARPED_N5 + ["--param", "c1=1", "--param", "c2=-0.1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs gamma = 0, that is c1^2 + c2^2 = C^2" in captured.err


def test_ode_warped_n5_admissible_constants(tmp_path):
    out = tmp_path / "o.json"
    assert run(_WARPED_N5 + ["--param", "c1=3", "--param", "c2=-4",
                             "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["closed_form_deviation"] < 1e-8
    assert not rep["terminated_early"]


def test_unknown_subcommand():
    assert run(["frobnicate"]) == 4


def test_no_arguments():
    assert run([]) == 4


def test_stdout_json(capsys):
    assert run(["verify", "--entry", "minkowski", "--samples", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["entries"]["minkowski"]["spec"] == "minkowski"


def test_verify_whole_catalog(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["entries"]) == 14
    for eid, item in rep["entries"].items():
        assert "error" not in item, eid
        assert item["points"] == 100, eid
        assert item["mismatches"] == [], eid
        assert "error" not in item["classification"], eid


def test_verify_probe_skips_critical_point_of_density(tmp_path):
    # h = cosh(sqrt(2) t) has zero gradient at the first plan point
    out = tmp_path / "r.json"
    assert run(["verify", "--entry", "cor36-1-kneg", "--samples", "10",
                "--out", str(out)]) == 0
    item = json.loads(out.read_text())["entries"]["cor36-1-kneg"]
    cls = item["classification"]
    assert cls["type"] == "I.a"
    assert cls["causal_character"] == "timelike"
    assert item["mismatches"] == []


def test_probe_keeps_first_plan_point(tmp_path):
    # where grad h does not vanish there, the report gives plan point 0,
    # which every plan of the seed shares
    out = tmp_path / "c.json"
    assert run(["classify", "--entry", "ex52-liegroup",
                "--out", str(out)]) == 0
    spec = catalog.build("ex52-liegroup")
    want = sample_box(spec.box, 1, resolve_seed())[0]
    got = json.loads(out.read_text())["report"]["point"]
    assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


def _frames_built(monkeypatch):
    """(spec name, rows, order) of every Frame built from now on."""
    built = []

    class Counted(tensor.Frame):
        def __init__(self, spec, pts, order=1):
            built.append((spec.name, len(np.atleast_2d(pts)), order))
            super().__init__(spec, pts, order)

    monkeypatch.setattr(tensor, "Frame", Counted)
    return built


def test_verify_builds_one_frame_per_entry(tmp_path, monkeypatch):
    # plans are nested, so the probe points are the plan's leading rows:
    # cor36-1-kneg, whose first point is a critical point of h, reads
    # its classification from the next row
    built = _frames_built(monkeypatch)
    assert run(["verify", "--out", str(tmp_path / "r.json")]) == 0
    assert built == [(eid, 100, 1) for eid in catalog.entry_ids()]


CLASSIFY_FLAGS = ("ricci_type", "causal_character")


def _minkowski_manifest(tmp_path, density, drop):
    """minkowski.manifest with another density and without the flags
    named in ``drop``."""
    lines = []
    base = pathlib.Path(catalog.__file__).parent / "manifests"
    for line in (base / "minkowski.manifest").read_text().splitlines():
        if line.startswith("density:"):
            line = f"density: {density}"
        elif line.startswith("flag: ") and line.split()[1] in drop:
            continue
        lines.append(line)
    path = tmp_path / "variant.manifest"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("keep_flags", [True, False],
                         ids=["flags-unchecked", "no-flags"])
def test_verify_fault_at_first_plan_point_fails_the_entry(
        tmp_path, monkeypatch, keep_flags):
    # h = (y - c)^2, c the y of plan point 0, vanishes there, so the
    # plan Frame fails and the entry is an evaluation failure, with or
    # without the classification flags
    c = float(sample_box(catalog.build("minkowski").box, 1,
                         resolve_seed())[0][2])
    dy = f"(sub y {c!r})"
    path = _minkowski_manifest(tmp_path, f"(add (mul {dy} {dy}) (mul 0 x))",
                               () if keep_flags else CLASSIFY_FLAGS)
    built = _frames_built(monkeypatch)
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == 3
    err = json.loads(out.read_text())["entries"]["minkowski"]["error"]
    assert err["type"] == "DomainError"
    assert "density not positive at sample point 0" in err["message"]
    assert built == [("minkowski", 100, 1)]


@pytest.mark.parametrize("keep_flags, code", [(True, 3), (False, 0)],
                         ids=["flags-unchecked", "no-flags"])
def test_verify_flag_that_cannot_be_checked_exits_3(
        tmp_path, monkeypatch, keep_flags, code):
    # a constant density has grad h = 0 at every probe point, so the
    # classification fails: a ricci_type or causal_character flag that
    # could not be checked is an evaluation failure, and the plan's own
    # verdicts stand
    path = _minkowski_manifest(tmp_path, "2",
                               () if keep_flags else CLASSIFY_FLAGS)
    spec = catalog.build(catalog.load_manifest(str(path)))
    want = weighted.verify(spec)[0].as_dict()
    with pytest.raises(VanishingGradient) as exc:
        cli._classify_at_probe(spec)
    built = _frames_built(monkeypatch)
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == code
    item = json.loads(out.read_text())["entries"]["minkowski"]
    assert item["classification"] == {"error": str(exc.value)}
    assert item["verdicts"] == want["verdicts"]
    assert item["verdicts"]["is_solution"] is True
    assert item["mismatches"] == []
    assert item["residuals"] == cli._round_floats(want["residuals"])
    assert built == [("minkowski", 100, 1)]


@pytest.mark.parametrize("samples", [[], ["--samples", "7"],
                                     ["--samples", "1"]],
                         ids=["default", "7", "1"])
def test_verify_classification_equals_classify(tmp_path, samples):
    # a row of the verify Frame gives the report of the point's own
    # one-point order-0 Frame, float for float; at one sample,
    # cor36-1-kneg's probe is past the plan and gets that Frame
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)] + samples) == 0
    entries = json.loads(out.read_text())["entries"]
    assert sorted(entries) == catalog.entry_ids()
    for eid, item in entries.items():
        c = tmp_path / f"{eid}.json"
        assert run(["classify", "--entry", eid, "--out", str(c)]) == 0
        assert item["classification"] == \
            json.loads(c.read_text())["report"], eid


def test_classify_non_numeric_point():
    assert run(["classify", "--entry", "minkowski",
                "--point=a,b,c,d"]) == 4


def test_classify_two_entries():
    assert run(["classify", "--entry", "minkowski",
                "--entry", "ex52-liegroup"]) == 4


def test_ode_non_numeric_param():
    assert run(["ode", "--branch", "direct", "--param", "eps=x"]) == 4


def test_ode_early_termination_exit_2(tmp_path):
    out = tmp_path / "o.json"
    assert run(["ode", "--branch", "direct", "--param", "eps=1",
                "--param", "kappa=1", "--param", "c1=1", "--param",
                "c2=0.1", "--span=0:3", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["terminated_early"] is True


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_carries_no_state_between_calls(tmp_path):
    assert run(["classify", "--entry", "minkowski",
                "--entry", "ex52-liegroup"]) == 4
    assert run(["classify", "--entry", "minkowski"]) == 0
    out = tmp_path / "v.json"
    assert run(["verify", "--entry", "minkowski", "--samples", "7"]) == 0
    assert run(["verify", "--entry", "minkowski", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["entries"]["minkowski"][
        "points"] == 100
    assert run(["classify", "--entry", "ex52-liegroup",
                "--point", "0.1,0.2"]) == 4
    assert run(["classify", "--entry", "ex52-liegroup",
                "--point", "0.1,-0.2,0.3,0.25"]) == 0


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_sample(samples, capsys):
    assert run(["verify", "--entry", "minkowski",
                f"--samples={samples}"]) == 4
    assert "--samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_classify_rejects_non_finite_point(value, capsys):
    assert run(["classify", "--entry", "minkowski",
                f"--point=1,2,3,{value}"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coordinates must be finite" in captured.err


def _builtin_manifest(eid):
    return (catalog._manifest_dir() / f"{eid}.manifest").read_text(
        encoding="utf-8")


def test_verify_checks_tau_flag(tmp_path):
    # cor36-2-tau-neg has scalar curvature 3 everywhere
    path = tmp_path / "tau7.manifest"
    path.write_text(_builtin_manifest("cor36-2-tau-neg").replace(
        "flag: tau 3\n", "flag: tau 7\n"))
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == 2
    (item,) = json.loads(out.read_text())["entries"].values()
    assert item["mismatches"] == ["tau: expected 7.0, computed 3"]


def test_verify_rejects_misspelled_flag(tmp_path, capsys):
    path = tmp_path / "typo.manifest"
    text = _builtin_manifest("cor36-2-tau-neg") + "flag: is_soluton false\n"
    path.write_text(text)
    assert run(["verify", "--manifest", str(path)]) == 4
    line = text.count("\n")
    assert f"typo.manifest:{line}: unknown flag 'is_soluton'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("eid, flag, code", [
    ("toy-flat", "true", 0),
    ("toy-flat", "false", 2),
    ("cor36-2-tau-neg", "true", 2),
    ("cor36-2-tau-neg", "false", 0),
])
def test_verify_checks_ricci_flat_flag(tmp_path, eid, flag, code):
    text = GOOD_MANIFEST if eid == "toy-flat" else _builtin_manifest(eid)
    path = tmp_path / "m.manifest"
    path.write_text(text + f"flag: ricci_flat {flag}\n")
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == code
    (item,) = json.loads(out.read_text())["entries"].values()
    assert item["mismatches"] == ([] if code == 0 else [
        f"ricci_flat: expected {flag.title()}, computed {flag != 'true'}"])


_DIRECT = ["ode", "--branch", "direct", "--param", "eps=1", "--param",
           "kappa=1", "--param", "c1=0.3", "--param", "c2=1.0"]


@pytest.mark.parametrize("param", ["kappa=nan", "c1=nan", "c2=inf",
                                   "eps=-inf"])
def test_ode_rejects_non_finite_param(param, capsys):
    assert run(_DIRECT + ["--param", param]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad --param {param.split('=')[0]}, values must be finite" in \
        captured.err


@pytest.mark.parametrize("span", ["0:nan", "0:inf", "nan:1", "-inf:0"])
def test_ode_rejects_non_finite_span(span, capsys):
    assert run(_DIRECT + [f"--span={span}"]) == 4
    assert "values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, 1, 2, -3])
def test_ode_rejects_dimension_below_three(n, capsys):
    assert run(_DIRECT + ["--param", f"n={n}"]) == 4
    assert "dimension must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (_DIRECT + ["--param", "foo=2"], "unknown --param foo for branch direct"),
    (_DIRECT + ["--param", "t=0.5"], "unknown --param t for branch direct"),
    (_DIRECT + ["--param", "tau=1"], "unknown --param tau for branch direct"),
    (_DIRECT[:-2], "missing --param c2 for branch direct"),
    (["ode", "--branch", "warped", "--param", "eps=1", "--param", "tau=3",
      "--param", "kappa=1", "--param", "c1=1", "--param", "c2=0"],
     "missing --param A for branch warped"),
])
def test_ode_rejects_unknown_or_missing_param(args, message, capsys):
    assert run(args) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_edited_manifest_is_read_again(tmp_path):
    path = tmp_path / "toy.manifest"
    out = tmp_path / "r.json"
    path.write_text(GOOD_MANIFEST)
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == 0
    path.write_text(GOOD_MANIFEST.replace("flag: ricci_type I.a",
                                          "flag: ricci_type II"))
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == 2
    (item,) = json.loads(out.read_text())["entries"].values()
    assert item["mismatches"] == ["ricci_type: expected II, computed I.a"]


def test_manifest_that_fails_to_parse_fails_until_fixed(tmp_path, capsys):
    path = tmp_path / "toy.manifest"
    path.write_text(GOOD_MANIFEST.replace("dimension: 4", "dimension: four"))
    for _ in range(2):
        assert run(["verify", "--manifest", str(path)]) == 4
        assert "toy.manifest:2" in capsys.readouterr().err
    path.write_text(GOOD_MANIFEST)
    assert run(["verify", "--manifest", str(path), "--samples", "4"]) == 0


def test_classify_calls_do_not_share_a_frame(tmp_path, monkeypatch):
    # every build returns a fresh spec, and frame_at builds a new Frame
    # on every call, so no call reads a Frame another call built; specs
    # keeps each spec alive, so that no id is reused
    built, specs = [], []

    class Counted(tensor.Frame):
        def __init__(self, spec, pts, order=1):
            specs.append(spec)
            built.append((id(spec), order))
            super().__init__(spec, pts, order)

    monkeypatch.setattr(tensor, "Frame", Counted)
    reports = []
    for i in range(2):
        out = tmp_path / f"c{i}.json"
        assert run(["classify", "--entry", "ex52-liegroup",
                    "--point", "0.1,-0.2,0.3,0.25", "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert len(built) == 2 and built[0] != built[1]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("old, new, line, frag", [
    ("density: (add 2 x)", "param: x 0.5 0 1\ndensity: (add 2 x)", 19,
     "param x: the name of a coordinate"),
    ("coords: t x y z", "coords: t x x z", 4, "coords: 'x' repeats"),
], ids=["param", "coords"])
def test_verify_manifest_names_must_be_distinct(tmp_path, capsys, old, new,
                                                 line, frag):
    # a param named like a coordinate would replace it in every
    # expression: h = 2 + x read as the constant 2.5
    path = tmp_path / "clash.manifest"
    path.write_text(GOOD_MANIFEST.replace(old, new))
    assert run(["verify", "--manifest", str(path)]) == 4
    assert f"clash.manifest:{line}: {frag}" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, line, frag", [
    ("density: (add 2 x)", "param: a 5 0 1\ndensity: (add 2 x)", 19,
     "param a: default 5.0 outside [0.0, 1.0]"),
    ("box: -1 1\nflag", "box: 1.0 -1.0\nflag", 9,
     "box: lower bound 1.0 is not below upper bound -1.0"),
    ("box: -1 1\nflag", "box: 0 0\nflag", 9,
     "box: lower bound 0.0 is not below upper bound 0.0"),
    ("box: -1 1\nflag", "box: -1 inf\nflag", 9,
     "box: expected a finite number, got 'inf'"),
], ids=["param-default", "box-reversed", "box-empty", "box-infinite"])
def test_verify_manifest_bad_ranges_exit_4(tmp_path, capsys, old, new, line,
                                           frag):
    # an out-of-range default used to fail only at build (exit 3), and a
    # reversed or empty box certified is_solution from a null set (exit 0)
    path = tmp_path / "range.manifest"
    path.write_text(GOOD_MANIFEST.replace(old, new))
    assert run(["verify", "--manifest", str(path)]) == 4
    assert f"range.manifest:{line}: {frag}" in capsys.readouterr().err


@pytest.mark.parametrize("mangle, line, frag", [
    # seven coordinates and seven box lines, consistent but for the range
    (lambda s: s.replace("dimension: 4", "dimension: 7")
     .replace("coords: t x y z", "coords: t x y z u v w")
     .replace("box: -1 1\n", "box: -1 1\n" * 2, 3), 2,
     "dimension: 7 outside 3..6"),
    (lambda s: s.replace("dimension: 4", "dimension: 2"), 2,
     "dimension: 2 outside 3..6"),
    (lambda s: s.replace("density:", "kundt: zz\ndensity:"), 19,
     "kundt: 'zz' is not a coordinate"),
], ids=["dimension-7", "dimension-2", "kundt"])
def test_verify_manifest_bad_field_exit_4(tmp_path, capsys, mangle, line,
                                          frag):
    # a dimension outside 3..6 used to fail at build without naming the
    # file (exit 3), and a kundt field naming no coordinate passed (exit 0)
    path = tmp_path / "field.manifest"
    path.write_text(mangle(GOOD_MANIFEST))
    assert run(["verify", "--manifest", str(path)]) == 4
    assert f"field.manifest:{line}: {frag}" in capsys.readouterr().err


def test_verify_manifest_bad_expression_exit_4(tmp_path, capsys):
    # an expression that does not parse used to be an evaluation failure
    # (exit 3) named by entry and field only
    path = tmp_path / "expr.manifest"
    path.write_text(GOOD_MANIFEST.replace("density: (add 2 x)",
                                          "density: (add 2 np.float64)"))
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(path), "--out", str(out)]) == 4
    msg = f"{path}:19: density: unknown atom 'np.float64' in expression"
    assert f"error: {msg}" in capsys.readouterr().err
    (item,) = json.loads(out.read_text())["entries"].values()
    assert item["error"] == {"type": "ManifestError", "message": msg}


def test_verify_parses_each_expression_once(tmp_path, monkeypatch):
    # expressions are parsed when the entry is built, not also when the
    # manifest is read
    parsed = []
    parse = jets.parse_sexpr

    def counted(text, *args):
        parsed.append(text)
        return parse(text, *args)

    monkeypatch.setattr(jets, "parse_sexpr", counted)
    path = tmp_path / "toy.manifest"
    path.write_text(GOOD_MANIFEST)
    assert run(["verify", "--manifest", str(path), "--samples", "4",
                "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(parsed) == sorted(["-1", "1", "1", "1", "(add 2 x)"])


@pytest.mark.skipif(not cli._GLIBC,
                    reason="the allocator policy is set on glibc only")
def test_whole_catalog_verify_takes_few_page_faults(tmp_path):
    # the wefe process keeps freed heap memory for the next Frame, so
    # after one warm-up run a whole-catalog verify takes almost no minor
    # page faults
    code = ("import resource, sys\n"
            "from wefe import cli\n"
            "argv = ['verify', '--out', sys.argv[1]]\n"
            "assert cli.main(argv) == 0\n"
            "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(3):\n"
            "    assert cli.main(argv) == 0\n"
            "f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print((f1 - f0) / 3)\n")
    src = pathlib.Path(cli.__file__).parents[1]
    res = subprocess.run([sys.executable, "-c", code,
                          str(tmp_path / "verify.json")],
                         check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert float(res.stdout) < 100


@pytest.mark.parametrize("make", [
    lambda p: None,
    lambda p: p.mkdir(),
    lambda p: p.write_bytes(b"id: \xff\xfe\n"),
], ids=["missing", "directory", "not-utf8"])
def test_verify_unreadable_manifest_exit_4(tmp_path, capsys, make):
    path = tmp_path / "m.manifest"
    make(path)
    assert run(["verify", "--manifest", str(path)]) == 4
    assert f"{path}: cannot read manifest" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-atol", "--tol-rtol"])
def test_verify_has_no_tolerance_flags(flag):
    # the verdict tolerance is ATOL + RTOL * scale, with no override
    assert run(["verify", "--entry", "minkowski", flag, "1e-9"]) == 4
