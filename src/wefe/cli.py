"""Command-line interface: batch verification, classification, the exact
polynomial pipeline, and ODE branch runs with CSV export."""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time

import numpy as np

from . import __version__, catalog, classify, constants, groebner, ode, weighted
from .errors import InadmissibleConstants, VanishingGradient, WefeError
from .sampling import resolve_seed, sample_box

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_EVAL = 3
EXIT_BAD_INPUT = 4

# plan points tried in turn for the default classification point
PROBE_POINTS = 8


def _round_floats(obj):
    """12 significant digits everywhere so reports are byte-stable."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit(report: dict, args) -> None:
    report = _round_floats(report)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = []

        def walk(prefix, val):
            if isinstance(val, dict):
                for k in sorted(val):
                    walk(f"{prefix}{k}.", val[k])
            else:
                lines.append(f"{prefix[:-1]}: {val}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _classify_at_probe(spec):
    """Classify at the first Halton point where grad h does not vanish.

    A plan point can sit on a critical point of the density (a box
    midpoint, say), where the causal character is undefined.  Point k is
    taken from a k-point plan, because a Halton point depends on the plan
    length: the first probe is then the point of a one-point plan,
    whatever PROBE_POINTS is."""
    seed = resolve_seed()
    for k in range(1, PROBE_POINTS + 1):
        try:
            return classify.classify(spec, sample_box(spec.box, k, seed)[-1])
        except VanishingGradient:
            if k == PROBE_POINTS:
                raise


def _entry_specs(args):
    if args.manifest:
        entries = [catalog.load_manifest(args.manifest)]
    elif args.entry:
        entries = [catalog.get_entry(e) for e in args.entry]
    else:
        entries = catalog.list_entries()
    return sorted(entries, key=lambda e: e.entry_id)


def cmd_verify(args) -> int:
    if args.samples < 1:
        sys.stderr.write(f"error: --samples must be at least 1, "
                         f"got {args.samples}\n")
        return EXIT_BAD_INPUT
    entries = _entry_specs(args)
    report = {"version": __version__, "command": "verify", "entries": {}}
    status = EXIT_OK
    for entry in entries:
        t0 = time.perf_counter()
        try:
            spec = catalog.build(entry)
            wrep = weighted.verify(spec, samples=args.samples)
            item = wrep.as_dict()
            try:
                crep = _classify_at_probe(spec)
                item["classification"] = crep.as_dict()
                for flag, got in (("ricci_type", crep.type_tag),
                                  ("causal_character", crep.causal_character)):
                    want = spec.flags.get(flag)
                    if want is not None and want != got:
                        item["mismatches"].append(
                            f"{flag}: expected {want}, computed {got}")
            except WefeError as exc:
                item["classification"] = {"error": str(exc)}
            if item["mismatches"]:
                status = max(status, EXIT_MISMATCH)
        except WefeError as exc:
            item = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            status = max(status, EXIT_EVAL)
        item["seconds"] = time.perf_counter() - t0
        report["entries"][entry.entry_id] = item
    _emit(report, args)
    return status


def cmd_classify(args) -> int:
    if len(args.entry) != 1:
        sys.stderr.write("error: classify takes exactly one --entry\n")
        return EXIT_BAD_INPUT
    try:
        spec = catalog.build(args.entry[0])
    except WefeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    p = None
    if args.point:
        try:
            p = np.array([float(x) for x in args.point.split(",")])
        except ValueError:
            sys.stderr.write(f"error: bad --point {args.point!r}, expected "
                             f"comma-separated numbers\n")
            return EXIT_BAD_INPUT
        if p.shape != (spec.n,):
            sys.stderr.write(f"error: point needs {spec.n} coordinates\n")
            return EXIT_BAD_INPUT
        if not np.all(np.isfinite(p)):
            sys.stderr.write(f"error: bad --point {args.point!r}, "
                             f"coordinates must be finite\n")
            return EXIT_BAD_INPUT
    try:
        crep = (_classify_at_probe(spec) if p is None
                else classify.classify(spec, p))
    except WefeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_EVAL
    report = {"version": __version__, "command": "classify",
              "entry": spec.name, "report": crep.as_dict()}
    _emit(report, args)
    expected = spec.flags.get("ricci_type")
    if expected is not None and expected != crep.type_tag:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_groebner(args) -> int:
    t0 = time.perf_counter()
    try:
        table = groebner.generator_table()
        matches = {name: not diff for name, _, _, diff in table}
        gens = [groebner.P1_EXPECTED, groebner.P2_EXPECTED] + \
            [comp for _, comp, _, _ in table]
        basis = groebner.buchberger(gens)
        nf = groebner.normal_form(groebner.G_TARGET, basis)
        cert = groebner.alpha_equals_a_branch()
    except WefeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_EVAL
    report = {
        "version": __version__,
        "command": "groebner",
        "generator_match": matches,
        "basis_size": len(basis),
        "normal_form_of_target": str(nf),
        "target_in_ideal": not nf,
        "branch_certificate_zero": all(
            not cert[k] for k in ("combination_residual", "jh_residual",
                                  "derivative_residual")),
        "seconds": time.perf_counter() - t0,
    }
    _emit(report, args)
    ok = all(matches.values()) and not nf and report["branch_certificate_zero"]
    return EXIT_OK if ok else EXIT_MISMATCH


@functools.cache
def _branch_params(branch):
    """(all, required) parameter names of a branch's closed form, in
    signature order; t is the span's."""
    signature = inspect.signature(ode.BRANCHES[branch]).parameters
    names = tuple(k for k in signature if k != "t")
    return names, tuple(k for k in names
                        if signature[k].default is inspect.Parameter.empty)


def cmd_ode(args) -> int:
    params = {}
    for kv in args.param or []:
        k, _, v = kv.partition("=")
        if not _:
            sys.stderr.write(f"error: bad --param {kv!r}, expected key=value\n")
            return EXIT_BAD_INPUT
        try:
            params[k] = int(v) if k == "n" else float(v)
        except ValueError:
            sys.stderr.write(f"error: bad --param {kv!r}, value is not "
                             f"a number\n")
            return EXIT_BAD_INPUT
    names, required = _branch_params(args.branch)
    unknown = [k for k in params if k not in names]
    missing = [k for k in required if k not in params]
    if unknown or missing:
        what = (f"unknown --param {unknown[0]}" if unknown
                else f"missing --param {missing[0]}")
        sys.stderr.write(f"error: {what} for branch {args.branch}, which "
                         f"takes {', '.join(names)}\n")
        return EXIT_BAD_INPUT
    try:
        t0, t1 = (float(x) for x in args.span.split(":"))
    except ValueError:
        sys.stderr.write(f"error: bad --span {args.span!r}, expected t0:t1\n")
        return EXIT_BAD_INPUT
    bad = [k for k, v in params.items() if not math.isfinite(v)]
    if bad or not (math.isfinite(t0) and math.isfinite(t1)):
        what = f"--param {bad[0]}" if bad else f"--span {args.span!r}"
        sys.stderr.write(f"error: bad {what}, values must be finite\n")
        return EXIT_BAD_INPUT
    if params.get("n", 3) < 3:
        sys.stderr.write(f"error: bad --param n={params['n']}, the "
                         f"dimension must be at least 3\n")
        return EXIT_BAD_INPUT
    try:
        state = ode.closed_form(args.branch, params, t0)
        traj = ode.integrate(state, t1)
    except WefeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        # constants the closed form does not solve with are bad input
        if isinstance(exc, InadmissibleConstants):
            return EXIT_BAD_INPUT
        return EXIT_EVAL
    drift_gamma, drift_kappa = traj.max_drift()
    dev = 0.0
    for st in traj.states:
        cf = ode.closed_form(args.branch, params, st.t)
        dev = max(dev, abs(st.h - cf.h), abs(st.phi - cf.phi))
    report = {
        "version": __version__,
        "command": "ode",
        "branch": args.branch,
        "params": params,
        "span": [t0, t1],
        "steps": len(traj.states) - 1,
        "terminated_early": traj.terminated_early,
        "closed_form_deviation": dev,
        "gamma_drift": drift_gamma,
        "kappa_drift": drift_kappa,
    }
    if args.csv:
        traj.to_csv(args.csv)
        report["csv"] = args.csv
    _emit(report, args)
    tol = constants.SOLUTION_TOL
    if traj.terminated_early or not max(dev, drift_gamma, drift_kappa) < tol:
        return EXIT_MISMATCH
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and rebuilding it cost about 1 ms per in-process call."""
    ap = argparse.ArgumentParser(
        prog="wefe",
        description="verification toolkit for weighted vacuum field equations")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write report to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")

    pv = sub.add_parser("verify", help="check catalog entries against flags")
    pv.add_argument("--entry", action="append", help="catalog entry id")
    pv.add_argument("--manifest", default=None, help="external manifest path")
    pv.add_argument("--samples", type=int, default=constants.DEFAULT_SAMPLES)
    common(pv)
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("classify", help="Ricci operator type at a point")
    pc.add_argument("--entry", action="append", required=True)
    pc.add_argument("--point", default=None, help="comma-separated coordinates")
    common(pc)
    pc.set_defaults(fn=cmd_classify)

    pg = sub.add_parser("groebner", help="exact ideal-membership pipeline")
    common(pg)
    pg.set_defaults(fn=cmd_groebner)

    po = sub.add_parser("ode", help="integrate a closed-form branch")
    po.add_argument("--branch", choices=sorted(ode.BRANCHES), required=True)
    po.add_argument("--param", action="append",
                    help="key=value, repeatable (eps, tau, kappa, c1, c2, A)")
    po.add_argument("--span", default="0:1", help="t0:t1")
    po.add_argument("--csv", default=None, help="trajectory CSV path")
    common(po)
    po.set_defaults(fn=cmd_ode)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; remap to the bad-input code
        if exc.code not in (0, None):
            return EXIT_BAD_INPUT
        return 0
    try:
        return args.fn(args)
    except WefeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
