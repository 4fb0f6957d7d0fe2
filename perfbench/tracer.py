"""Per-layer tracing of wefe from outside the package.

The tracer replaces public functions and methods of the wefe modules, looked
up by attribute name, with wrappers that record a span (name, start, end,
parent) per call and counts at the same boundaries.  Spans stay in memory
until the run ends.  A target that no longer exists is reported as missing
and the metrics that need it are left out; the run goes on.

Deep or hot calls are counted without a span: nested ``eval_jets`` calls
(one per expression node) and ``ode.rhs``.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array

import numpy as np

_clock = time.perf_counter

# span name -> (module, attribute path)
SPANS = {
    "catalog.parse_manifest": ("wefe.catalog", "parse_manifest"),
    "catalog.build": ("wefe.catalog", "build"),
    "sampling.sample_box": ("wefe.sampling", "sample_box"),
    "jets.eval_jets": ("wefe.jets", "eval_jets"),
    "jets.mul": ("wefe.jets", "JetContext.mul"),
    "jets.compose": ("wefe.jets", "JetContext.compose"),
    "tensor.frame_at": ("wefe.tensor", "frame_at"),
    "tensor.Frame": ("wefe.tensor", "Frame.__init__"),
    "weighted.verify": ("wefe.weighted", "verify"),
    "weighted.gh_batch": ("wefe.weighted", "gh_batch"),
    "weighted.rnf_batch": ("wefe.weighted", "rnf_batch"),
    "weighted.d_form1_batch": ("wefe.weighted", "d_form1_batch"),
    "weighted.d_form2_batch": ("wefe.weighted", "d_form2_batch"),
    "weighted.codazzi_batch": ("wefe.weighted", "codazzi_batch"),
    "classify.classify": ("wefe.classify", "classify"),
    "classify.jordan_type": ("wefe.classify", "jordan_type"),
    "ode.integrate": ("wefe.ode", "integrate"),
    "ode.closed_form": ("wefe.ode", "closed_form"),
    "ode.max_drift": ("wefe.ode", "Trajectory.max_drift"),
    "groebner.generator_table": ("wefe.groebner", "generator_table"),
    "groebner.buchberger": ("wefe.groebner", "buchberger"),
    "groebner.normal_form": ("wefe.groebner", "normal_form"),
    "groebner.alpha_equals_a_branch": ("wefe.groebner",
                                       "alpha_equals_a_branch"),
    "cli.main": ("wefe.cli", "main"),
}
COUNTED = {
    "ode.rhs": ("wefe.ode", "rhs"),
}
RESIDUAL_KERNELS = ("weighted.gh_batch", "weighted.rnf_batch",
                    "weighted.d_form1_batch", "weighted.d_form2_batch",
                    "weighted.codazzi_batch")

# per-layer metric -> (unit, span or count names it needs).  Every value is
# given per operation except the two ratios.
METRICS = {
    "catalog.parse_s": ("s", ("catalog.parse_manifest",)),
    "catalog.build_s": ("s", ("catalog.build",)),
    "sampling.sample_box_s": ("s", ("sampling.sample_box",)),
    "jets.eval_nodes": ("count", ("jets.eval_jets",)),
    "jets.eval_s": ("s", ("jets.eval_jets",)),
    "jets.mul_calls": ("count", ("jets.mul",)),
    "jets.mul_products": ("count", ("jets.mul", "jets.mul.shape")),
    "jets.mul_bytes_computed": ("B", ("jets.mul", "jets.mul.shape")),
    "jets.mul_s": ("s", ("jets.mul",)),
    "jets.ns_per_product": ("ns", ("jets.mul", "jets.mul.shape")),
    "jets.compose_calls": ("count", ("jets.compose",)),
    "jets.compose_s": ("s", ("jets.compose",)),
    "tensor.frame_at_calls": ("count", ("tensor.frame_at",)),
    "tensor.frames_built": ("count", ("tensor.Frame",)),
    "tensor.frame_cache_hit_ratio": ("ratio",
                                     ("tensor.frame_at", "tensor.Frame")),
    "tensor.frame_s": ("s", ("tensor.Frame",)),
    "tensor.frame_self_s": ("s", ("tensor.Frame", "jets.eval_jets",
                                  "jets.mul", "jets.compose")),
    "weighted.verify_s": ("s", ("weighted.verify",)),
    "weighted.residuals_s": ("s", RESIDUAL_KERNELS),
    "classify.classify_s": ("s", ("classify.classify",)),
    "classify.jordan_type_s": ("s", ("classify.jordan_type",)),
    "cli.self_s": ("s", ("cli.main",)),
    "ode.integrate_s": ("s", ("ode.integrate",)),
    "ode.rhs_calls": ("count", ("ode.integrate", "ode.rhs")),
    "ode.steps": ("count", ("ode.integrate", "ode.integrate.states")),
    "ode.closed_form_calls": ("count", ("ode.closed_form",)),
    "ode.closed_form_s": ("s", ("ode.closed_form",)),
    "ode.drift_s": ("s", ("ode.max_drift",)),
    "groebner.derive_s": ("s", ("groebner.generator_table",)),
    "groebner.buchberger_s": ("s", ("groebner.buchberger",)),
    "groebner.normal_form_s": ("s", ("groebner.normal_form",)),
    "groebner.certificate_s": ("s", ("groebner.alpha_equals_a_branch",)),
    "proc.minor_faults": ("count", ()),
    "py.gc_s": ("s", ()),
}
RATIOS = ("jets.ns_per_product", "tensor.frame_cache_hit_ratio")


def _resolve(module_name, path):
    """(owner, attribute, original) or None when the target is gone."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _patch(owner, attr, original, wrapper):
    """Replace the target, and for a module-level function also every
    ``from module import name`` copy in the other wefe modules."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if name == "wefe" or name.startswith("wefe."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)


class Tracer:
    """Spans and counts of one traced run, in flat arrays: a span is its
    name index, parent span index (-1 at the root), start and end."""

    def __init__(self):
        self.names = list(SPANS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.open = [0] * len(self.names)
        self.counts = {"jets.eval_jets": 0, "jets.mul.products": 0,
                       "jets.mul.bytes": 0, "ode.rhs": 0,
                       "ode.integrate.states": 0}
        # details read from arguments and results; dropped when absent
        self.available = {"jets.mul.shape", "ode.integrate.states"}
        self.missing = []
        self.gc_s = 0.0
        self._gc_t0 = None

    # -- installation -------------------------------------------------------

    def install(self):
        for nid, name in enumerate(self.names):
            self._install(name, SPANS[name], self._span_wrapper(nid, name))
        for name, target in COUNTED.items():
            self._install(name, target, self._rhs_wrapper)
        gc.callbacks.append(self._on_gc)

    def _install(self, name, target, make):
        found = _resolve(*target)
        if found is None:
            self.missing.append(f"{target[0]}.{target[1]}")
            return
        owner, attr, original = found
        _patch(owner, attr, original, make(original))
        self.available.add(name)

    def _span_wrapper(self, nid, name):
        tracer = self
        names, stack, open_ = self.names, self.stack, self.open
        eval_id = names.index("jets.eval_jets")

        def make(fn):
            def opened(args, kwargs):
                idx = len(tracer.span_start)
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1] if stack else -1)
                tracer.span_end.append(0.0)
                stack.append(idx)
                open_[nid] += 1
                tracer.span_start.append(_clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.span_end[idx] = _clock()
                    stack.pop()
                    open_[nid] -= 1

            if name == "jets.eval_jets":
                def wrapper(*args, **kwargs):
                    tracer.counts["jets.eval_jets"] += 1
                    if stack and tracer.span_name[stack[-1]] == eval_id:
                        return fn(*args, **kwargs)       # a child node
                    return opened(args, kwargs)
            elif name == "jets.mul":
                def wrapper(ctx, a, b):
                    pairs = getattr(ctx, "_ti", None)
                    if pairs is None:
                        tracer.available.discard("jets.mul.shape")
                    else:
                        lead = int(np.prod(np.broadcast_shapes(
                            np.shape(a), np.shape(b))[:-1]))
                        tracer.counts["jets.mul.products"] += lead * len(pairs)
                        # gathered operands, their product, the result
                        tracer.counts["jets.mul.bytes"] += \
                            8 * lead * (3 * len(pairs) + ctx.N)
                    return opened((ctx, a, b), {})
            elif name == "ode.integrate":
                def wrapper(*args, **kwargs):
                    traj = opened(args, kwargs)
                    states = getattr(traj, "states", None)
                    if states is None:
                        tracer.available.discard("ode.integrate.states")
                    else:
                        tracer.counts["ode.integrate.states"] += len(states) - 1
                    return traj
            else:
                def wrapper(*args, **kwargs):
                    return opened(args, kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _rhs_wrapper(self, fn):
        integrate_id = self.names.index("ode.integrate")
        counts, open_ = self.counts, self.open

        def wrapper(*args, **kwargs):
            if open_[integrate_id]:            # the Dormand-Prince loop only
                counts["ode.rhs"] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = _clock()
        elif self._gc_t0 is not None:
            self.gc_s += _clock() - self._gc_t0
            self._gc_t0 = None

    # -- results ------------------------------------------------------------

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=self.span_name,
                 parent=self.span_parent, start=self.span_start,
                 end=self.span_end)

    def metrics(self, ops, minor_faults):
        """Per-layer metrics per operation; a metric whose target is
        missing is left out."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - child_s

        def ids(*names):
            return np.isin(name, [self.names.index(n) for n in names])

        def total(*names):
            return float(dur[ids(*names)].sum())

        def calls(n):
            return int(np.count_nonzero(ids(n)))

        c = self.counts
        mul_s = total("jets.mul")
        lookups, built = calls("tensor.frame_at"), calls("tensor.Frame")
        raw = {
            "catalog.parse_s": total("catalog.parse_manifest"),
            "catalog.build_s": total("catalog.build"),
            "sampling.sample_box_s": total("sampling.sample_box"),
            "jets.eval_nodes": c["jets.eval_jets"],
            "jets.eval_s": total("jets.eval_jets"),
            "jets.mul_calls": calls("jets.mul"),
            "jets.mul_products": c["jets.mul.products"],
            "jets.mul_bytes_computed": c["jets.mul.bytes"],
            "jets.mul_s": mul_s,
            "jets.ns_per_product": (1e9 * mul_s / c["jets.mul.products"]
                                    if c["jets.mul.products"] else 0.0),
            "jets.compose_calls": calls("jets.compose"),
            "jets.compose_s": total("jets.compose"),
            "tensor.frame_at_calls": lookups,
            "tensor.frames_built": built,
            "tensor.frame_cache_hit_ratio": (1.0 - built / lookups
                                             if lookups else 0.0),
            "tensor.frame_s": total("tensor.Frame"),
            "tensor.frame_self_s": float(self_s[ids("tensor.Frame")].sum()),
            "weighted.verify_s": total("weighted.verify"),
            "weighted.residuals_s": total(*RESIDUAL_KERNELS),
            "classify.classify_s": total("classify.classify"),
            "classify.jordan_type_s": total("classify.jordan_type"),
            "cli.self_s": float(self_s[ids("cli.main")].sum()),
            "ode.integrate_s": total("ode.integrate"),
            "ode.rhs_calls": c["ode.rhs"],
            "ode.steps": c["ode.integrate.states"],
            "ode.closed_form_calls": calls("ode.closed_form"),
            "ode.closed_form_s": total("ode.closed_form"),
            "ode.drift_s": total("ode.max_drift"),
            "groebner.derive_s": total("groebner.generator_table"),
            "groebner.buchberger_s": total("groebner.buchberger"),
            "groebner.normal_form_s": total("groebner.normal_form"),
            "groebner.certificate_s": total("groebner.alpha_equals_a_branch"),
            "proc.minor_faults": minor_faults,
            "py.gc_s": self.gc_s,
        }
        out = {}
        for metric, (unit, needs) in METRICS.items():
            if not all(n in self.available for n in needs):
                continue
            value = raw[metric] if metric in RATIOS else raw[metric] / ops
            out[metric] = {"value": value, "unit": unit}
        return out
