"""Built-in catalog of explicit metric-with-density families.

Each entry lives in a plain-text manifest (one file per entry) listing
the chart dimension, signature, coordinate names, component expressions
in prefix s-expression form, a parameter table with defaults and
admissible ranges, expected-property flags, and a citation line.
User-supplied manifests load through exactly the same parser."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from . import jets as J
from . import tensor as T
from .errors import DomainError, ManifestError, ParameterOutOfRange

_BOOL = {"true": True, "false": False}


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

    def build(self, **overrides):
        return build(self, **overrides)


def parse_manifest(text, source="<manifest>"):
    entry = {"params": {}, "flags": {}, "metric": {}, "metric_lines": {},
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
    if len(entry["coords"]) != n:
        raise ManifestError(f"{source}: need {n} coordinate names")
    for (i, j), lineno in entry["metric_lines"].items():
        if i < 0 or j >= n:
            raise ManifestError(f"{source}:{lineno}: metric {i} {j}: "
                                f"index outside 0..{n - 1}")
    return CatalogEntry(
        entry_id=entry["id"], dimension=n, signature=entry["signature"],
        coords=tuple(entry["coords"]), citation=entry["citation"],
        box=tuple(entry["box"]), params=entry["params"],
        flags=entry["flags"], metric=entry["metric"],
        density=entry["density"], kundt=entry["kundt"])


def _parse_line(entry, key, value, lineno):
    if key == "id":
        entry["id"] = value
    elif key == "dimension":
        entry["dimension"] = int(value)
    elif key == "signature":
        if value not in ("lorentzian", "riemannian"):
            raise ManifestError(f"unknown signature {value!r}")
        entry["signature"] = value
    elif key == "coords":
        entry["coords"] = value.split()
    elif key == "citation":
        entry["citation"] = value
    elif key == "kundt":
        entry["kundt"] = value
    elif key == "param":
        name, default, lo, hi = value.split()
        entry["params"][name] = (float(default), float(lo), float(hi))
    elif key == "box":
        lo, hi = value.split()
        entry["box"].append((float(lo), float(hi)))
    elif key == "flag":
        name, val = value.split(None, 1)
        entry["flags"][name] = _BOOL.get(val.strip().lower(), val.strip())
    elif key == "density":
        entry["density"] = value
    elif key.startswith("metric"):
        _, i, j = key.split()
        i, j = int(i), int(j)
        if i > j:
            i, j = j, i
        if (i, j) in entry["metric_lines"]:
            raise ManifestError(f"metric {i} {j}: already given on line "
                                f"{entry['metric_lines'][(i, j)]}")
        entry["metric"][(i, j)] = value
        entry["metric_lines"][(i, j)] = lineno
    else:
        raise ManifestError(f"unknown key {key!r}")


def load_manifest(path):
    """Load a user manifest file through the catalog parser."""
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(fh.read(), source=str(path))


def _manifest_dir():
    return resources.files("wefe").joinpath("manifests")


def list_entries():
    """All built-in entries, sorted by id."""
    entries = []
    for item in sorted(_manifest_dir().iterdir(), key=lambda p: p.name):
        if item.name.endswith(".manifest"):
            entries.append(parse_manifest(item.read_text(encoding="utf-8"),
                                          source=item.name))
    return entries


def entry_ids():
    return [e.entry_id for e in list_entries()]


def get_entry(entry_id):
    """One built-in entry, parsed from its own ``<id>.manifest`` file
    only.  The id is matched against the directory listing, never joined
    into a path."""
    name = f"{entry_id}.manifest"
    for item in _manifest_dir().iterdir():
        if item.name == name:
            entry = parse_manifest(item.read_text(encoding="utf-8"),
                                   source=item.name)
            if entry.entry_id != entry_id:
                raise ManifestError(
                    f"{item.name}: id {entry.entry_id!r} does not match "
                    f"the file name")
            return entry
    raise ManifestError(f"no catalog entry {entry_id!r}")


def build(entry, **overrides):
    """Instantiate an entry as a MetricMeasureSpec.  Parameter overrides
    must lie inside the entry's admissible ranges."""
    if isinstance(entry, str):
        entry = get_entry(entry)
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

    def parse(field, sexpr):
        try:
            return J.parse_sexpr(sexpr, coords, values)
        except (DomainError, ValueError, ZeroDivisionError) as e:
            raise ManifestError(f"{entry.entry_id}: {field}: {e}") from e

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
