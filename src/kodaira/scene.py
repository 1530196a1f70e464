"""Scene files: the JSON format through which surfaces and lifts enter.

A scene declares the number ring, the surface data (tau_B, tau_E, c,
delta), and a set of named lifts (alpha, beta, sigma10, v).  Every number
travels as an exact payload (monomials with rational coefficients,
rationals as "p/q" strings), so a scene round-trips through
``scene_document`` unchanged.  Thirteen scenes ship with the package and
are addressed as ``bundled:<name>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .exactfield import NumberRing, SymbolDecl, Tau, from_payload, to_payload
from .lifts import SpecialLift
from .surface import KodairaData

SURFACE_FIELDS = ("tau_b", "tau_e", "c", "delta")
LIFT_FIELDS = ("alpha", "beta", "sigma10", "v")


class SceneError(Exception):
    """The scene file does not match the expected schema."""


@dataclass
class Scene:
    ring: NumberRing
    data: KodairaData
    lifts: dict
    options: dict


def surface_fields(data):
    """{field: value} of the surface tuple, in file order."""
    return dict(zip(SURFACE_FIELDS, (data.tau_b.value, data.tau_e.value, data.c, data.delta)))


def lift_fields(l):
    """{field: value} of a lift, in file order."""
    return {f: getattr(l, f) for f in LIFT_FIELDS}


def require(cond, msg):
    """Raise SceneError(msg) unless cond holds."""
    if not cond:
        raise SceneError(msg)


def _parse_value(ring, payload, where, field):
    """The value of the payload at where.field; messages name that field."""
    if not isinstance(payload, list):
        raise SceneError(f"{where}.{field}: expected a payload list")
    try:
        return from_payload(ring, payload)
    except Exception as exc:
        raise SceneError(f"{where}.{field}: {exc}") from None


def _check_keys(obj, where, allowed, required=frozenset()):
    """Raise SceneError naming the missing keys of obj, if any, else the
    keys it has beyond allowed."""
    missing = required - obj.keys()
    if missing:
        raise SceneError(f"{where}: missing {sorted(missing)}")
    bad = obj.keys() - allowed
    if bad:
        raise SceneError(f"{where}: unknown keys {sorted(bad)}")


_TOP_KEYS = frozenset({"ring", "surface", "lifts", "options"})
_SYMBOL_KEYS = frozenset({"name", "d", "approx"})
_SURFACE_KEYS = frozenset(SURFACE_FIELDS)
_LIFT_KEYS = frozenset(LIFT_FIELDS)
_OPTION_KEYS = frozenset({"format", "precision"})


def parse_scene(doc, name="scene"):
    """Build a Scene from a decoded JSON document.

    The checks run in a fixed order and the first failure is reported; its
    message, and any sorted list of keys in it, is built only then.
    """
    if not isinstance(doc, dict):
        raise SceneError(f"{name}: top level must be an object")
    _check_keys(doc, name, _TOP_KEYS)
    if "surface" not in doc:
        raise SceneError(f"{name}: missing 'surface'")

    decls = []
    require(isinstance(doc.get("ring", []), list), "ring: expected a list of symbols")
    for k, entry in enumerate(doc.get("ring", [])):
        if not (isinstance(entry, dict) and "name" in entry):
            raise SceneError(f"ring[{k}]: expected an object with a 'name'")
        bad = entry.keys() - _SYMBOL_KEYS
        if bad:
            raise SceneError(f"ring[{k}]: unknown keys {sorted(bad)}")
        try:
            decls.append(SymbolDecl(entry["name"], d=entry.get("d"),
                                    approx=entry.get("approx")))
        except ValueError as exc:
            raise SceneError(f"ring[{k}]: {exc}") from None
    try:
        ring = NumberRing(decls)
    except ValueError as exc:
        raise SceneError(f"ring: {exc}") from None

    surf = doc["surface"]
    require(isinstance(surf, dict), "surface: expected an object")
    _check_keys(surf, "surface", _SURFACE_KEYS, required=_SURFACE_KEYS)
    fields = {}
    try:
        for f in SURFACE_FIELDS:
            value = _parse_value(ring, surf[f], "surface", f)
            fields[f] = Tau(value) if f.startswith("tau_") else value
        data = KodairaData(**fields)
    except ValueError as exc:
        raise SceneError(f"surface: {exc}") from None

    lifts = {}
    entries = doc.get("lifts", {})
    require(isinstance(entries, dict), "lifts: expected an object")
    for lname, entry in entries.items():
        where = f"lifts.{lname}"
        if not isinstance(entry, dict):
            raise SceneError(f"{where}: expected an object")
        _check_keys(entry, where, _LIFT_KEYS, required=_LIFT_KEYS)
        lifts[lname] = SpecialLift(**{f: _parse_value(ring, entry[f], where, f)
                                      for f in LIFT_FIELDS})

    options = doc.get("options", {})
    require(isinstance(options, dict), "options: expected an object")
    _check_keys(options, "options", _OPTION_KEYS)
    if "format" in options:
        require(options["format"] in ("json", "table"),
                "options.format: expected 'json' or 'table'")
    if "precision" in options:
        p = options["precision"]
        require(isinstance(p, int) and not isinstance(p, bool) and p > 0,
                "options.precision: expected a positive integer")

    return Scene(ring, data, lifts, options)


def load_scene(path):
    """The Scene at a file path, or at bundled:<name> for a shipped scene."""
    if path.startswith("bundled:"):
        return parse_scene(bundled_scene(path[len("bundled:"):]), path)
    # besides bad JSON, the decoder raises ValueError on bytes that are not
    # UTF-8 and on integers past the digit limit, RecursionError on deep nesting
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise SceneError(f"{path} is not valid JSON: {exc}") from None
    return parse_scene(doc, path)


@cache
def _bundled_paths():
    """{name: path} of the shipped scenes, listed once per process."""
    return {p.name[:-5]: p for p in (resources.files(__package__) / "scenes").iterdir()
            if p.name.endswith(".json")}


def bundled_scene(name):
    """Decoded JSON document of a scene shipped with the package; name must
    be one of bundled_scene_names, never a path."""
    path = _bundled_paths().get(name)
    if path is None:
        have = ", ".join(bundled_scene_names())
        raise SceneError(f"no bundled scene {name!r}; available: {have}")
    return json.loads(path.read_bytes().decode("utf-8"))


def bundled_scene_names():
    return sorted(_bundled_paths())


def _symbol_doc(s):
    out = {"name": s.name}
    if s.d is not None:
        out["d"] = s.d
    if s.approx is not None:
        out["approx"] = s.approx
    return out


def scene_document(scene):
    """Canonical JSON document for a scene; load/parse round-trips it."""
    doc = {
        "ring": [_symbol_doc(s) for s in scene.ring.symbols],
        "surface": {f: to_payload(v) for f, v in surface_fields(scene.data).items()},
        "lifts": {
            name: {f: to_payload(v) for f, v in lift_fields(l).items()}
            for name, l in scene.lifts.items()
        },
    }
    if scene.options:
        doc["options"] = dict(sorted(scene.options.items()))
    return doc
