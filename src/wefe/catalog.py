"""Built-in catalog of explicit metric-with-density families.

Each entry lives in a plain-text manifest (one file per entry) listing
the chart dimension, signature, coordinate names, component expressions
in prefix s-expression form, a parameter table with defaults and
admissible ranges, expected-property flags, and a citation line.
User-supplied manifests load through exactly the same parser."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from importlib import resources

from . import jets as J
from . import tensor as T
from .errors import DomainError, ManifestError, ParameterOutOfRange

_BOOL = {"true": True, "false": False}


def _bool(text):
    if text.lower() not in _BOOL:
        raise ValueError(f"expected true or false, got {text!r}")
    return _BOOL[text.lower()]


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _one_of(*choices):
    def parse(text):
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, "
                             f"got {text!r}")
        return text
    return parse


# Every flag a manifest may carry, with the parser of its value.
# ``wefe verify`` checks is_solution, harmonic_curvature,
# locally_conformally_flat, tau and ricci_flat (weighted.verify) and
# ricci_type and causal_character (cli.cmd_verify).  The acceptance
# tests' ODE cross-check reads fiber_curvature; eps, warped_product and
# multiply_warped describe the family and are checked for type only.
FLAGS = {
    "is_solution": _bool,
    "harmonic_curvature": _bool,
    "locally_conformally_flat": _bool,
    "ricci_flat": _bool,
    "tau": _finite,
    "ricci_type": _one_of("I.a", "I.b", "II", "III"),
    "causal_character": _one_of("spacelike", "timelike", "lightlike"),
    "eps": _finite,
    "fiber_curvature": _finite,
    "warped_product": _one_of("direct", "warped"),
    "multiply_warped": _bool,
}


@dataclass
class CatalogEntry:
    entry_id: str
    dimension: int
    signature: str
    coords: tuple
    citation: str
    box: tuple                    # ((lo, hi), ...) per coordinate
    params: dict                  # name -> (default, lo, hi)
    flags: dict
    metric: dict                  # (i, j) i<=j -> s-expression string
    density: str
    kundt: str = None             # coordinate name of the null field, if any
    source: str = "<manifest>"    # the manifest file, as errors name it
    lines: dict = field(default_factory=dict)  # field -> manifest line

    def build(self, **overrides):
        return build(self, **overrides)


def parse_manifest(text, source="<manifest>"):
    entry = {"params": {}, "flags": {}, "metric": {}, "lines": {},
             "box": [], "citation": "", "kundt": None}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ManifestError(f"{source}:{lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        try:
            _parse_line(entry, key, value, lineno)
        except Exception as e:
            raise ManifestError(f"{source}:{lineno}: {e}") from e
    for need in ("id", "dimension", "signature", "coords", "density"):
        if need not in entry:
            raise ManifestError(f"{source}: missing field {need!r}")
    n = entry["dimension"]
    if len(entry["box"]) != n:
        raise ManifestError(f"{source}: need {n} box lines")
    coords = entry["coords"]
    if len(coords) != n:
        raise ManifestError(f"{source}: need {n} coordinate names")
    if len(set(coords)) != n:
        dup = next(c for i, c in enumerate(coords) if c in coords[:i])
        raise ManifestError(f"{source}:{entry['lines']['coords']}: coords: "
                            f"{dup!r} repeats")
    if entry["kundt"] is not None and entry["kundt"] not in coords:
        raise ManifestError(f"{source}:{entry['lines']['kundt']}: kundt: "
                            f"{entry['kundt']!r} is not a coordinate")
    for name in entry["params"]:
        if name in coords:
            field = f"param {name}"
            raise ManifestError(f"{source}:{entry['lines'][field]}: {field}: "
                                f"the name of a coordinate")
    for i, j in entry["metric"]:
        if i < 0 or j >= n:
            field = f"metric {i} {j}"
            raise ManifestError(f"{source}:{entry['lines'][field]}: {field}: "
                                f"index outside 0..{n - 1}")
    return CatalogEntry(
        entry_id=entry["id"], dimension=n, signature=entry["signature"],
        coords=tuple(entry["coords"]), citation=entry["citation"],
        box=tuple(entry["box"]), params=entry["params"],
        flags=entry["flags"], metric=entry["metric"],
        density=entry["density"], kundt=entry["kundt"], source=source,
        lines=entry["lines"])


_SINGLE_KEYS = ("id", "dimension", "signature", "coords", "citation",
                "kundt", "density")


def _parse_line(entry, key, value, lineno):
    """Store one line.  Every field but ``box`` may be given once:
    ``entry["lines"]`` maps each field to its line, so a repeat names
    both lines.  The dimension lies in 3..6, a box needs finite bounds
    lo < hi, and a param's default must lie in its range."""
    if key == "box":
        try:
            lo, hi = (_finite(x) for x in value.split())
        except ValueError as e:
            raise ManifestError(f"box: {e}") from e
        if not lo < hi:
            raise ManifestError(f"box: lower bound {lo} is not below upper "
                                f"bound {hi}")
        entry["box"].append((lo, hi))
        return
    if key.startswith("metric"):
        _, i, j = key.split()
        i, j = sorted((int(i), int(j)))
        field = f"metric {i} {j}"
    elif key in ("param", "flag"):
        field = f"{key} {value.split()[0]}"
    elif key in _SINGLE_KEYS:
        field = key
    else:
        raise ManifestError(f"unknown key {key!r}")
    if field in entry["lines"]:
        raise ManifestError(f"{field}: already given on line "
                            f"{entry['lines'][field]}")
    entry["lines"][field] = lineno
    if key == "param":
        name, default, lo, hi = value.split()
        default, lo, hi = float(default), float(lo), float(hi)
        if not lo <= default <= hi:
            raise ManifestError(f"{field}: default {default} outside "
                                f"[{lo}, {hi}]")
        entry["params"][name] = (default, lo, hi)
    elif key == "flag":
        name, val = value.split(None, 1)
        if name not in FLAGS:
            raise ManifestError(f"unknown flag {name!r}")
        try:
            entry["flags"][name] = FLAGS[name](val.strip())
        except ValueError as e:
            raise ManifestError(f"flag {name}: {e}") from e
    elif key.startswith("metric"):
        entry["metric"][(i, j)] = value
    elif key == "dimension":
        n = entry["dimension"] = int(value)
        if not 3 <= n <= 6:
            raise ManifestError(f"dimension: {n} outside 3..6")
    elif key == "coords":
        entry["coords"] = value.split()
    elif key == "signature" and value not in ("lorentzian", "riemannian"):
        raise ManifestError(f"unknown signature {value!r}")
    else:
        entry[key] = value


def load_manifest(path):
    """Load a user manifest file through the catalog parser.  A file that
    cannot be read as UTF-8 text is a ManifestError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise ManifestError(f"{path}: cannot read manifest: {reason}") from e
    return parse_manifest(text, source=str(path))


@functools.cache
def _manifest_dir():
    return resources.files("wefe").joinpath("manifests")


@functools.cache
def _listing(directory):
    """Manifest file name -> resource, sorted by name, listed once."""
    return {item.name: item
            for item in sorted(directory.iterdir(), key=lambda p: p.name)
            if item.name.endswith(".manifest")}


# The built-in entries, filled lazily per manifest resource: the entry as
# parsed, and its spec at default parameters.  Neither is handed out:
# callers get copies, so nothing they do reaches the next call.  A
# manifest that fails to parse or build is not stored and fails again.
_entries = {}
_specs = {}


def _parsed(item):
    entry = _entries.get(item)
    if entry is None:
        entry = _entries[item] = parse_manifest(
            item.read_text(encoding="utf-8"), source=item.name)
    return entry


def _copy(entry):
    return replace(entry, params=dict(entry.params), flags=dict(entry.flags),
                   metric=dict(entry.metric), lines=dict(entry.lines))


def _builtin(entry_id):
    """(resource, stored entry) of the built-in ``<id>.manifest``.  The
    id is matched against the directory listing, never joined into a
    path."""
    item = _listing(_manifest_dir()).get(f"{entry_id}.manifest")
    if item is None:
        raise ManifestError(f"no catalog entry {entry_id!r}")
    entry = _parsed(item)
    if entry.entry_id != entry_id:
        raise ManifestError(f"{item.name}: id {entry.entry_id!r} does not "
                            f"match the file name")
    return item, entry


def list_entries():
    """All built-in entries, sorted by id."""
    return [_copy(_parsed(item))
            for item in _listing(_manifest_dir()).values()]


def entry_ids():
    return [_parsed(item).entry_id
            for item in _listing(_manifest_dir()).values()]


def get_entry(entry_id):
    """One built-in entry, parsed from its own ``<id>.manifest`` file
    only, once per process."""
    return _copy(_builtin(entry_id)[1])


def build(entry, **overrides):
    """Instantiate an entry as a MetricMeasureSpec.  Parameter overrides
    must lie inside the entry's admissible ranges.

    A built-in entry, given by id or equal to the stored one, is built
    at default parameters once per process; every call returns a fresh
    spec that shares its Expr DAG but owns its ``flags``.  Other entries
    and override builds are built on every call."""
    if isinstance(entry, str):
        item, entry = _builtin(entry)
    else:
        item = _listing(_manifest_dir()).get(f"{entry.entry_id}.manifest")
        if item is not None and _entries.get(item) != entry:
            item = None
    if overrides or item is None:
        return _build(entry, overrides)
    spec = _specs.get(item)
    if spec is None:
        spec = _specs[item] = _build(entry, {})
    flags = dict(spec.flags, params=dict(spec.flags["params"]))
    return replace(spec, flags=flags)


def _build(entry, overrides):
    values = {}
    for name, (default, lo, hi) in entry.params.items():
        v = float(overrides.pop(name, default))
        if not lo <= v <= hi:
            raise ParameterOutOfRange(
                f"{entry.entry_id}: parameter {name}={v} outside "
                f"[{lo}, {hi}]", constraint=f"{lo} <= {name} <= {hi}")
        values[name] = v
    if overrides:
        raise ParameterOutOfRange(
            f"{entry.entry_id}: unknown parameters {sorted(overrides)}")
    coords = list(entry.coords)
    intern = {}  # one table, so equal subtrees across fields are one node

    def parse(field, sexpr):
        # named by the field's manifest line, as a bad line is at parse
        try:
            return J.parse_sexpr(sexpr, coords, values, intern)
        except (DomainError, ValueError, ZeroDivisionError) as e:
            line = entry.lines.get(field)
            where = entry.source if line is None else f"{entry.source}:{line}"
            raise ManifestError(f"{where}: {field}: {e}") from e

    g_upper = {(i, j): parse(f"metric {i} {j}", sexpr)
               for (i, j), sexpr in entry.metric.items()}
    h = parse("density", entry.density)
    flags = dict(entry.flags)
    if entry.kundt is not None:
        flags["kundt_vector"] = entry.kundt
    flags["params"] = values
    return T.make_spec(entry.entry_id, entry.dimension, g_upper, h,
                       entry.box, entry.signature, coords, flags,
                       entry.citation)


def kundt_vector_exprs(spec):
    """Contravariant Exprs of the flagged null coordinate field."""
    name = spec.flags.get("kundt_vector")
    if name is None:
        return None
    idx = spec.coords.index(name)
    return [J.const(1) if k == idx else J.const(0) for k in range(spec.n)]
