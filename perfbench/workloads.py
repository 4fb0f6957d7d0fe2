"""The workloads: their seeded inputs, their operations and the checks
made on every output.

An operation is a list of ``wefe`` command lines run in process through
``wefe.cli.main``; each writes its report to its own ``--out`` file, which is
read back and checked after the operation's clock has stopped.  A pass is the
fixed list of operations a workload repeats, so every run holds the same mix.

The checks compare against the manifests' stated properties, against
identities the method must satisfy, or against sympy; none compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import os

import numpy as np

# Tolerances fixed by the benchmark.  The residual tolerance matches the
# program's documented ATOL + RTOL * scale rule; the ODE tolerance is two
# orders above the deviations and drifts seen at the integrator's 1e-10
# local error target.
ATOL = 1e-10
RTOL = 1e-8
ODE_TOL = 1e-8
BOX_SHRINK = 0.05          # the shrink sampling.sample_box applies

NEGATIVE_CONTROL_BASE = "minkowski"

# wefe ode families: (branch, span, {param: (lo, hi)}).  The ranges keep
# the density and warping positive on the whole span, so no run can
# terminate early or fail on any seed.
ODE_FAMILIES = (
    ("direct", "0:0.6",
     {"eps": (1.0, 1.0), "kappa": (0.5, 1.5), "c1": (0.2, 1.0),
      "c2": (1.0, 2.0)}),
    ("direct", "-0.5:0.5",
     {"eps": (-1.0, -1.0), "kappa": (0.5, 1.5), "c1": (0.2, 2.0),
      "c2": (0.2, 2.0)}),
    ("warped", "0:0.8",
     {"eps": (-1.0, -1.0), "tau": (1.0, 4.0), "kappa": (0.0, 1.5),
      "c1": (0.8, 1.5), "c2": (0.0, 0.2), "A": (0.5, 2.0)}),
    ("warped", "0:1",
     {"eps": (1.0, 1.0), "tau": (1.0, 3.0), "kappa": (0.5, 1.5),
      "c1": (0.5, 1.5), "c2": (-0.3, 0.0), "A": (0.5, 2.0)}),
    ("warped", "0:1",
     {"eps": (1.0, 1.0), "tau": (0.0, 0.0), "kappa": (0.5, 1.0),
      "c1": (0.5, 1.5), "c2": (0.5, 1.5), "A": (0.5, 2.0)}),
)
ODE_RUNS_PER_FAMILY = 6    # 30 ODE runs take about as long as one groebner

POINT_POOL_PASSES = 256    # point-query passes drawn at set-up, then cycled


def read_manifests(manifest_dir):
    """id -> {"text", "box", "flags"} read with the benchmark's own minimal
    parser, so the expected properties do not come from the program."""
    entries = {}
    for name in sorted(os.listdir(manifest_dir)):
        if not name.endswith(".manifest"):
            continue
        with open(os.path.join(manifest_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        box, flags, eid = [], {}, None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            key, _, value = line.partition(":")
            value = value.strip()
            if key == "id":
                eid = value
            elif key == "box":
                lo, hi = value.split()
                box.append((float(lo), float(hi)))
            elif key == "flag":
                fname, fval = value.split(None, 1)
                flags[fname] = {"true": True, "false": False}.get(
                    fval.strip().lower(), fval.strip())
        entries[eid] = {"text": text, "box": box, "flags": flags}
    if not entries:
        raise FileNotFoundError(f"no manifests in {manifest_dir}")
    return entries


class Op:
    """One operation: ``argvs`` run back to back, then ``check`` reads the
    (exit code, report) pairs and returns (failure, errors).  ``failure``
    says why the program produced no usable answer, or is None; ``errors``
    lists answers that are wrong."""

    __slots__ = ("argvs", "check")

    def __init__(self, argvs, check):
        self.argvs = argvs
        self.check = check


# -- certify-sweep -----------------------------------------------------------

class CertifySweep:
    """``wefe verify --entry <id>`` for every catalog entry at the default
    100 samples, one negative-control manifest, and one exact bundle per
    pass, in a seeded order."""

    def __init__(self, manifests, rng, out_dir):
        self.manifests = manifests
        self.rng = rng
        base = manifests[NEGATIVE_CONTROL_BASE]
        self.control_coeff = float(rng.uniform(0.05, 0.25))
        self.control_path = os.path.join(out_dir, "negative-control.manifest")
        with open(self.control_path, "w", encoding="utf-8") as fh:
            fh.write(negative_control(base["text"], self.control_coeff))
        self.control_flags = dict(base["flags"], is_solution=False)
        self.exact = ExactBundle(rng)

    def next_pass(self):
        ids = list(self.manifests)
        ops = [Op([["verify", "--entry", eid]],
                  self._checker(eid, self.manifests[eid]["flags"]))
               for eid in ids]
        ops.append(Op([["verify", "--manifest", self.control_path]],
                      self._checker("negative-control", self.control_flags)))
        ops.append(Op(self.exact.argvs, self.exact.check))
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]

    def once_per_run(self):
        return self.exact.once_per_run()

    @staticmethod
    def _checker(label, flags):
        def check(results):
            (rc, report), = results
            if report is None:
                return f"{label}: no report (exit {rc})", []
            (item,) = report["entries"].values()
            if "error" in item:
                return f"{label}: {item['error']}", []
            errors = []
            if rc != 0:
                errors.append(f"{label}: exit {rc}")
            verdicts = item["verdicts"]
            for flag in ("is_solution", "harmonic_curvature",
                         "locally_conformally_flat"):
                if flag in flags and verdicts[flag] != flags[flag]:
                    errors.append(f"{label}: {flag} {verdicts[flag]}, "
                                  f"manifest says {flags[flag]}")
            if "tau" in flags and not verdicts["constant_tau"]:
                errors.append(f"{label}: tau is flagged constant")
            if flags.get("is_solution"):
                res = item["residuals"]
                scale = max(1.0, res["d_norm"], res["weyl_norm"],
                            res["cotton_norm"])
                tol = ATOL + RTOL * scale
                for key in ("rnf_residual", "d_tensor_agreement"):
                    if not res[key] < tol:
                        errors.append(f"{label}: {key} {res[key]} >= {tol}")
            cls = item["classification"]
            if "error" in cls:
                # the program skipped the flag checks at its probe point
                return f"{label}: classification: {cls['error']}", errors
            for flag, key in (("ricci_type", "type"),
                              ("causal_character", "causal_character")):
                if flag in flags and cls.get(key) != flags[flag]:
                    errors.append(f"{label}: {key} {cls.get(key)}, "
                                  f"manifest says {flags[flag]}")
            if item["mismatches"]:
                errors.append(f"{label}: mismatches {item['mismatches']}")
            return None, errors
        return check


def negative_control(text, coeff):
    """The base manifest with a density that is no longer affine, so the
    flat metric cannot solve the field equations, flagged accordingly."""
    out = []
    for line in text.splitlines():
        if line.startswith("id:"):
            line = "id: negative-control"
        elif line.startswith("density:"):
            line = f"density: (add 2 x (mul {coeff!r} (mul t t)))"
        elif line.replace(" ", "") == "flag:is_solutiontrue":
            line = "flag: is_solution false"
        out.append(line)
    return "\n".join(out) + "\n"


# -- point-query ------------------------------------------------------------

class PointQuery:
    """``wefe classify --entry <id> --point=<p>`` once per entry per pass,
    at seeded uniform points of each entry's shrunk box."""

    def __init__(self, manifests, rng, out_dir):
        self.manifests = manifests
        self.pool = {}
        for eid, m in manifests.items():
            lo = np.array([b[0] for b in m["box"]])
            hi = np.array([b[1] for b in m["box"]])
            u = rng.random((POINT_POOL_PASSES, len(lo)))
            self.pool[eid] = lo + (hi - lo) * (
                BOX_SHRINK + (1.0 - 2.0 * BOX_SHRINK) * u)
        self.passes = 0

    def next_pass(self):
        k = self.passes % POINT_POOL_PASSES
        self.passes += 1
        ops = []
        for eid, m in self.manifests.items():
            p = self.pool[eid][k]
            arg = ",".join(repr(float(x)) for x in p)
            ops.append(Op([["classify", "--entry", eid, f"--point={arg}"]],
                          self._checker(eid, m["flags"], p)))
        return ops

    def once_per_run(self):
        return {}

    @staticmethod
    def _checker(label, flags, p):
        def check(results):
            (rc, report), = results
            if report is None:
                return f"{label}: no report (exit {rc})", []
            rep = report["report"]
            errors = []
            if rc != 0:
                errors.append(f"{label}: exit {rc}")
            if not np.allclose(rep["point"], p, rtol=1e-11, atol=1e-12):
                errors.append(f"{label}: reported point {rep['point']}")
            for flag, key in (("ricci_type", "type"),
                              ("causal_character", "causal_character")):
                if flag in flags and rep[key] != flags[flag]:
                    errors.append(f"{label}: {key} {rep[key]} at {p}, "
                                  f"manifest says {flags[flag]}")
            ev = np.array(rep["eigenvalues"], dtype=float)   # (n, 2)
            scale = max(1.0, float(np.sum(np.hypot(ev[:, 0], ev[:, 1]))))
            if "tau" in flags:
                tau = float(flags["tau"])
                if abs(ev[:, 0].sum() - tau) > ATOL + RTOL * scale \
                        or abs(ev[:, 1].sum()) > ATOL + RTOL * scale:
                    errors.append(f"{label}: eigenvalue sum "
                                  f"{ev.sum(axis=0)} at {p}, tau {tau}")
            if flags.get("ricci_flat") and np.max(np.abs(ev)) > ATOL:
                errors.append(f"{label}: Ricci-flat entry has eigenvalues "
                              f"{ev.tolist()} at {p}")
            return None, errors
        return check


# -- the exact bundle ---------------------------------------------------------

class ExactBundle:
    """One ``wefe groebner`` plus a fixed seeded set of ``wefe ode`` runs
    over both branches, timed as one operation.  It lasts about as long as
    one ``wefe verify``, so it joins the certify-sweep pass without
    splitting the timing series into two kinds of operation."""

    def __init__(self, rng):
        self.ode_argvs = []
        for branch, span, ranges in ODE_FAMILIES:
            # Latin hypercube over each family's box keeps the bundle's total
            # integration work close to the same on every seed.
            strata = {k: rng.permutation(ODE_RUNS_PER_FAMILY) for k in ranges}
            for i in range(ODE_RUNS_PER_FAMILY):
                argv = ["ode", "--branch", branch]
                for k, (lo, hi) in ranges.items():
                    u = (strata[k][i] + rng.random()) / ODE_RUNS_PER_FAMILY
                    argv += ["--param", f"{k}={float(lo + (hi - lo) * u)!r}"]
                argv.append(f"--span={span}")
                self.ode_argvs.append(argv)
        self.argvs = [["groebner"]] + self.ode_argvs
        self.reported_sizes = set()

    def once_per_run(self):
        """Compare the reduced basis and every reported basis size with
        sympy's, and check the target membership and the branch
        combination symbolically.  Runs after the timed loop."""
        try:
            import sympy
        except ImportError:
            return {"groebner_vs_sympy": "skipped: sympy not installed"}
        from wefe import groebner as G

        H, alpha, b, a, J = gens = sympy.symbols("H alpha b a J")
        by_name = {"J": J, "a": a, "b": b, "alpha": alpha, "H": H}

        def to_sympy(p):
            expr = sympy.Integer(0)
            for mono, c in p.terms.items():
                term = sympy.Rational(c.numerator, c.denominator)
                for var, e in zip(G.VARS, mono):
                    term *= by_name[var] ** e
                expr += term
            return expr

        def monic_set(exprs):
            return {tuple(sorted(sympy.Poly(e, *gens, domain="QQ")
                                 .monic().terms())) for e in exprs}

        generators = [to_sympy(g) for g in G.generators()]
        reference = sympy.groebner(generators, *gens, order="grlex")
        computed = G.buchberger(list(G.generators()))
        errors = []
        if monic_set(to_sympy(g) for g in computed) != \
                monic_set(reference.exprs):
            errors.append("reduced basis differs from sympy's")
        if not reference.contains(to_sympy(G.G_TARGET)):
            errors.append("sympy: target not in the ideal")
        Q = b**2 * H**2 + 6 + 3 * J * H
        R = 5 * b**2 * H**2 - 12 * J * H + 30
        if sympy.expand(sympy.Rational(4, 9) * Q + sympy.Rational(1, 9) * R
                        - (6 + b**2 * H**2)) != 0:
            errors.append("sympy: branch combination is not 6 + b^2 H^2")
        if self.reported_sizes != {len(reference.exprs)}:
            errors.append(f"reported basis sizes {sorted(self.reported_sizes)}"
                          f", sympy {len(reference.exprs)}")
        return {"groebner_vs_sympy": "failed: " + "; ".join(errors)
                if errors else "passed"}

    def check(self, results):
        (rc, rep), *odes = results
        if rep is None:
            return f"groebner: no report (exit {rc})", []
        errors = []
        if rc != 0:
            errors.append(f"groebner: exit {rc}")
        if not all(rep["generator_match"].values()):
            errors.append(f"groebner: generator_match {rep['generator_match']}")
        if rep["normal_form_of_target"] != "0" or not rep["target_in_ideal"]:
            errors.append("groebner: target normal form is not zero")
        if not rep["branch_certificate_zero"]:
            errors.append("groebner: branch certificate is not zero")
        self.reported_sizes.add(rep["basis_size"])
        failure = None
        for argv, (orc, orep) in zip(self.ode_argvs, odes):
            label = " ".join(argv)
            if orep is None:
                failure = f"{label}: no report (exit {orc})"
                continue
            if orc != 0 or orep["terminated_early"] or orep["steps"] < 1:
                errors.append(f"{label}: exit {orc}, steps {orep['steps']}, "
                              f"terminated_early {orep['terminated_early']}")
            for key in ("closed_form_deviation", "gamma_drift",
                        "kappa_drift"):
                if not orep[key] < ODE_TOL:
                    errors.append(f"{label}: {key} {orep[key]} >= {ODE_TOL}")
        return failure, errors


WORKLOADS = {
    "certify-sweep": CertifySweep,
    "point-query": PointQuery,
}
