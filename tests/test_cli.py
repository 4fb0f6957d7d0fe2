"""Command-line interface: exit codes, determinism, report shape."""

import json

import pytest

from wefe import catalog, cli, tensor
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
    # where grad h does not vanish there, reports keep the one-point
    # plan's point, so they stay byte-stable
    out = tmp_path / "c.json"
    assert run(["classify", "--entry", "ex52-liegroup",
                "--out", str(out)]) == 0
    spec = catalog.build("ex52-liegroup")
    want = sample_box(spec.box, 1, resolve_seed())[0]
    got = json.loads(out.read_text())["report"]["point"]
    assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


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
    # on every call, so no call reads a Frame another call built
    built = []

    class Counted(tensor.Frame):
        def __init__(self, spec, pts, order=1):
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
