"""Command line interface.

Scenes are JSON files that declare the number ring, the surface data
(tau_B, tau_E, c, delta), and a set of named lifts.  Every number travels
as an exact payload (monomials with rational coefficients), so commands
print byte-identical output across runs: fixed key order, no timestamps,
rationals as "p/q" strings.

Exit codes: 0 on success, 1 on a domain error (a lift that does not
descend, data outside the representable range, ...), 2 on a malformed
scene file or bad usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from importlib import resources

from .exactfield import (
    DomainError,
    NumberRing,
    SymbolDecl,
    Tau,
    from_payload,
    in_lattice,
    to_payload,
)
from .surface import (
    KodairaData,
    is_isomorphic,
    moduli_point,
    normalize_c,
    normalize_delta,
    torsion_coefficient,
)
from . import pi1
from .lifts import (
    FibreTranslation,
    GaugeWithHom,
    MapClass,
    NotInKerPsi,
    SpecialLift,
    as_deck,
    canonical_unit,
    classify_kernel,
    compose,
    count_base_translations_infinite,
    descent_check,
    factor_semidirect,
    nk_invariants,
    order_n_lift,
    power,
    unit_group_order,
)
from .forms import (
    BLOCK_ORDER,
    acts_trivially_on_cohomology,
    dolbeault_action,
    is_symplectic,
    lefschetz,
    rho,
    trace_det,
    verify_invariant_generators,
)
from .fixedlocus import fixed_locus


class SceneError(Exception):
    """The scene file does not match the expected schema."""


LIFT_FIELDS = ("alpha", "beta", "sigma10", "v")


@dataclass
class Scene:
    ring: NumberRing
    data: KodairaData
    lifts: dict
    options: dict


# ---------------------------------------------------------------------------
# scene files


def _check(cond, msg):
    if not cond:
        raise SceneError(msg)


def _parse_value(ring, payload, where):
    _check(isinstance(payload, list), f"{where}: expected a payload list")
    try:
        return from_payload(ring, payload)
    except Exception as exc:
        raise SceneError(f"{where}: {exc}") from None


def parse_scene(doc, name="scene"):
    """Build a Scene from a decoded JSON document."""
    _check(isinstance(doc, dict), f"{name}: top level must be an object")
    extra = set(doc) - {"ring", "surface", "lifts", "options"}
    _check(not extra, f"{name}: unknown keys {sorted(extra)}")
    _check("surface" in doc, f"{name}: missing 'surface'")

    decls = []
    _check(isinstance(doc.get("ring", []), list), "ring: expected a list of symbols")
    for k, entry in enumerate(doc.get("ring", [])):
        _check(isinstance(entry, dict) and "name" in entry,
               f"ring[{k}]: expected an object with a 'name'")
        bad = set(entry) - {"name", "d", "approx"}
        _check(not bad, f"ring[{k}]: unknown keys {sorted(bad)}")
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
    _check(isinstance(surf, dict), "surface: expected an object")
    missing = {"tau_b", "tau_e", "c", "delta"} - set(surf)
    _check(not missing, f"surface: missing {sorted(missing)}")
    bad = set(surf) - {"tau_b", "tau_e", "c", "delta"}
    _check(not bad, f"surface: unknown keys {sorted(bad)}")
    try:
        data = KodairaData(
            Tau(_parse_value(ring, surf["tau_b"], "surface.tau_b")),
            Tau(_parse_value(ring, surf["tau_e"], "surface.tau_e")),
            _parse_value(ring, surf["c"], "surface.c"),
            _parse_value(ring, surf["delta"], "surface.delta"),
        )
    except ValueError as exc:
        raise SceneError(f"surface: {exc}") from None

    lifts = {}
    entries = doc.get("lifts", {})
    _check(isinstance(entries, dict), "lifts: expected an object")
    for lname, entry in entries.items():
        _check(isinstance(entry, dict), f"lifts.{lname}: expected an object")
        missing = set(LIFT_FIELDS) - set(entry)
        _check(not missing, f"lifts.{lname}: missing {sorted(missing)}")
        bad = set(entry) - set(LIFT_FIELDS)
        _check(not bad, f"lifts.{lname}: unknown keys {sorted(bad)}")
        fields = [_parse_value(ring, entry[f], f"lifts.{lname}.{f}")
                  for f in LIFT_FIELDS]
        lifts[lname] = SpecialLift(*fields)

    options = doc.get("options", {})
    _check(isinstance(options, dict), "options: expected an object")
    bad = set(options) - {"format", "precision"}
    _check(not bad, f"options: unknown keys {sorted(bad)}")
    if "format" in options:
        _check(options["format"] in ("json", "table"),
               "options.format: expected 'json' or 'table'")
    if "precision" in options:
        _check(isinstance(options["precision"], int) and options["precision"] > 0,
               "options.precision: expected a positive integer")

    return Scene(ring, data, lifts, options)


def load_scene(path):
    if path.startswith("bundled:"):
        return parse_scene(bundled_scene(path[len("bundled:"):]), path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SceneError(f"{path} is not valid JSON: {exc}") from None
    return parse_scene(doc, path)


def bundled_scene(name):
    """Decoded JSON document of a scene shipped with the package."""
    root = resources.files(__package__) / "scenes"
    entry = root / f"{name}.json"
    if not entry.is_file():
        have = ", ".join(bundled_scene_names())
        raise SceneError(f"no bundled scene {name!r}; available: {have}")
    return json.loads(entry.read_text(encoding="utf-8"))


def bundled_scene_names():
    root = resources.files(__package__) / "scenes"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


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
        "surface": {
            "tau_b": to_payload(scene.data.tau_b.value),
            "tau_e": to_payload(scene.data.tau_e.value),
            "c": to_payload(scene.data.c),
            "delta": to_payload(scene.data.delta),
        },
        "lifts": {
            name: {f: to_payload(getattr(l, f)) for f in LIFT_FIELDS}
            for name, l in scene.lifts.items()
        },
    }
    if scene.options:
        doc["options"] = dict(sorted(scene.options.items()))
    return doc


# ---------------------------------------------------------------------------
# output


def _fmt_maker(fmt):
    if fmt == "json":
        return to_payload
    return repr


def _fmt_complex(z, fmt):
    if fmt == "json":
        return {"re": z.real, "im": z.imag}
    sign = "+" if z.imag >= 0 else ""
    return f"{z.real!r}{sign}{z.imag!r}i"


def _table_lines(doc, indent=""):
    lines = []
    if isinstance(doc, dict):
        for key, val in doc.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{indent}{key}:")
                lines.extend(_table_lines(val, indent + "  "))
            else:
                shown = "(none)" if isinstance(val, (dict, list)) else val
                lines.append(f"{indent}{key}: {shown}")
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_table_lines(val, indent + "  "))
            else:
                lines.append(f"{indent}- {val}")
    else:
        lines.append(f"{indent}{doc}")
    return lines


def _emit(doc, fmt):
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(_table_lines(doc)))


def _surface_doc(data, fmt):
    f = _fmt_maker(fmt)
    return {"tau_b": f(data.tau_b.value), "tau_e": f(data.tau_e.value),
            "c": f(data.c), "delta": f(data.delta)}


def _lift_doc(l, fmt):
    f = _fmt_maker(fmt)
    return {name: f(getattr(l, name)) for name in LIFT_FIELDS}


def _pick_lift(scene, args, flag="--lift"):
    name = getattr(args, flag.strip("-").replace("-", "_"))
    if name is None:
        if len(scene.lifts) == 1:
            return next(iter(scene.lifts.values()))
        raise SceneError(f"scene has {len(scene.lifts)} lifts; pick one with {flag}")
    if name not in scene.lifts:
        have = ", ".join(sorted(scene.lifts)) or "(none)"
        raise SceneError(f"no lift named {name!r}; scene has: {have}")
    return scene.lifts[name]


# ---------------------------------------------------------------------------
# commands


def cmd_normalize(scene, args, fmt):
    d0, shift = normalize_delta(scene.data)
    d1, scale = normalize_c(d0)
    f = _fmt_maker(fmt)
    _emit({
        "input": _surface_doc(scene.data, fmt),
        "delta_zero": {"surface": _surface_doc(d0, fmt), "base_shift": f(shift)},
        "c_integer": {"surface": _surface_doc(d1, fmt), "fibre_scale": f(scale)},
        "torsion_m": torsion_coefficient(scene.data).m,
    }, fmt)


def cmd_iso(scene, args, fmt):
    other = load_scene(args.other)
    _emit({"isomorphic": is_isomorphic(scene.data, other.data)}, fmt)


def cmd_moduli(scene, args, fmt):
    if args.precision is not None:
        precision, where = args.precision, "--precision"
    else:
        precision, where = scene.options.get("precision", 15), "options.precision"
    # a float shows at most 15 significant digits faithfully
    _check(1 <= precision <= 15, f"{where}: expected 1 to 15 significant digits, got {precision}")
    j, qe = moduli_point(scene.data, precision)
    _emit({"j_base": _fmt_complex(j, fmt), "q_fibre": _fmt_complex(qe, fmt),
           "precision": precision}, fmt)


def _parse_exponents(text, where):
    parts = text.split(",")
    _check(len(parts) == 4, f"{where}: expected 4 comma-separated integers")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise SceneError(f"{where}: expected 4 comma-separated integers") from None


def cmd_pi1(scene, args, fmt):
    d = scene.data
    if args.op == "abelianization":
        free, torsion = pi1.abelianization_invariants(d)
        _emit({"free_rank": free, "torsion": torsion}, fmt)
        return
    g1 = pi1.from_exponents(*_parse_exponents(args.element, "element"), d)
    if args.op == "inverse":
        out = pi1.inverse(g1, d)
    else:
        _check(args.other_element is not None, "star: needs a second element")
        g2 = pi1.from_exponents(*_parse_exponents(args.other_element, "second element"), d)
        out = pi1.star(g1, g2, d)
    _emit({"exponents": list(out.exponents()), "central": pi1.is_central(out)}, fmt)


def cmd_check_lift(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args)
    cls = descent_check(l, d)
    if l.alpha != d.ring.one():
        base = "rotation"
    elif in_lattice(l.beta, d.tau_b):
        base = "identity"
    else:
        base = "translation"
    doc = {"class": cls.value, "base_map": base}
    if cls == MapClass.AUTOMORPHISM:
        doc["is_deck"] = as_deck(l, d) is not None
    _emit(doc, fmt)


def cmd_compose(scene, args, fmt):
    d = scene.data
    names = args.lift or []
    _check(len(names) == 2, "compose: pass --lift twice (outer first)")
    for name in names:
        _check(name in scene.lifts, f"no lift named {name!r}")
    out = compose(scene.lifts[names[0]], scene.lifts[names[1]], d)
    _emit({"lift": _lift_doc(out, fmt), "class": descent_check(out, d).value}, fmt)


def cmd_power(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args)
    _check(args.exponent >= 0, "power: exponent must be >= 0")
    out = power(l, args.exponent, d)
    _emit({"lift": _lift_doc(out, fmt), "class": descent_check(out, d).value}, fmt)


def cmd_order_n(scene, args, fmt):
    d = scene.data
    n = unit_group_order(d.tau_b)
    omega = canonical_unit(d.tau_b)
    l = order_n_lift(d, omega)
    f = _fmt_maker(fmt)
    _emit({"n": n, "unit": f(omega), "lift": _lift_doc(l, fmt),
           "class": descent_check(l, d).value}, fmt)


def cmd_semidirect(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args)
    n_part, e = factor_semidirect(l, d)
    _emit({"exponent": e, "translation_part": _lift_doc(n_part, fmt)}, fmt)


def cmd_kernel_class(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args)
    out = classify_kernel(l, d)
    if isinstance(out, NotInKerPsi):
        doc = {"kind": "not_in_kernel"}
    elif isinstance(out, FibreTranslation):
        doc = {"kind": "fibre_translation", "element": _fmt_maker(fmt)(out.e)}
    elif isinstance(out, GaugeWithHom):
        doc = {"kind": "gauge_with_hom"}
    else:
        raise DomainError(f"unknown kernel class {out!r}")
    _emit(doc, fmt)


def cmd_nk(scene, args, fmt):
    d = scene.data
    inv = nk_invariants(d)
    _emit({"free_rank": inv.free_rank, "torsion": list(inv.torsion),
           "infinitely_many_base_translations": count_base_translations_infinite(d)},
          fmt)


def cmd_cohomology(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args)
    f = _fmt_maker(fmt)
    action = dolbeault_action(l, d)
    traces = trace_det(action)
    doc = {"rho": f(rho(l, d))}
    blocks = {}
    for p, q in BLOCK_ORDER:
        mat = action.blocks[(p, q)]
        rows = [[f(v) for v in row] for row in mat]
        if fmt == "table":
            rows = ["[" + ", ".join(row) + "]" for row in rows]
        blocks[f"H{p}{q}"] = rows
    doc["action"] = blocks
    doc["trace"] = {f"H{p}{q}": f(traces[(p, q)][0]) for p, q in BLOCK_ORDER}
    doc["det"] = {f"H{p}{q}": f(traces[(p, q)][1]) for p, q in BLOCK_ORDER}
    doc["total_trace"] = f(traces["total"][0])
    doc["lefschetz"] = f(lefschetz(action))
    doc["symplectic"] = is_symplectic(l)
    doc["acts_trivially"] = acts_trivially_on_cohomology(l, d)
    _emit(doc, fmt)


def cmd_fixed_locus(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args)
    loc = fixed_locus(l, d)
    f = _fmt_maker(fmt)
    _emit({"kind": loc.kind, "fibres": [f(z) for z in loc.fibres]}, fmt)


def cmd_verify_forms(scene, args, fmt):
    results = verify_invariant_generators(scene.data)
    failed = [r.name for r in results if not r.ok]
    if fmt == "table":
        for r in results:
            print(f"{'pass' if r.ok else 'FAIL'}  {r.name}")
        print(f"{len(results) - len(failed)} of {len(results)} identities hold")
    else:
        _emit({
            "checks": len(results),
            "failed": failed,
            "results": [{"name": r.name, "ok": r.ok} for r in results],
        }, fmt)
    if failed:
        raise DomainError(f"{len(failed)} invariance identities failed")


def cmd_scene(scene, args, fmt):
    _emit(scene_document(scene), "json")


def cmd_selftest(args):
    from .selftest import run_all
    results = run_all(verbose=print)
    return 0 if all(ok for _, _, ok in results) else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="kodaira",
        description="Exact computations on primary Kodaira surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, lift=False, scene=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if scene:
            p.add_argument("--scene", required=True,
                           help="scene file, or bundled:<name> for a shipped scene")
            p.add_argument("--format", choices=("json", "table"), default=None)
        if lift:
            p.add_argument("--lift", default=None, help="name of the lift to use")
        return p

    add("normalize", cmd_normalize, "shift delta to 0, then scale c to its torsion coefficient")
    p = add("iso", cmd_iso, "decide whether two scenes give isomorphic surfaces")
    p.add_argument("--other", required=True, help="second scene file")
    p = add("moduli", cmd_moduli, "numeric moduli point (j of the base, nome of the fibre)")
    p.add_argument("--precision", type=int, default=None, help="significant digits")
    p = add("pi1", cmd_pi1, "fundamental group arithmetic on generator exponents")
    p.add_argument("op", choices=("star", "inverse", "abelianization"))
    p.add_argument("element", nargs="?", default=None,
                   help="exponents m1,m2,m3,m4; put -- before the op when "
                        "an exponent is negative")
    p.add_argument("other_element", nargs="?", default=None)
    add("check-lift", cmd_check_lift, "classify a lift: descends? automorphism? deck?", lift=True)
    p = add("compose", cmd_compose, "compose two lifts of the scene")
    p.add_argument("--lift", action="append", help="pass twice: outer, then inner")
    p = add("power", cmd_power, "iterate a lift", lift=True)
    p.add_argument("--exponent", "-n", type=int, required=True)
    add("order-n", cmd_order_n, "finite-order lift over the canonical base unit")
    add("semidirect", cmd_semidirect, "split a lift as translation part times base-unit power", lift=True)
    add("kernel-class", cmd_kernel_class, "position of a lift relative to the gauge kernel", lift=True)
    add("nk", cmd_nk, "invariants of the gauge quotient N/K")
    add("cohomology", cmd_cohomology, "Dolbeault action matrices, traces, Lefschetz number", lift=True)
    add("fixed-locus", cmd_fixed_locus, "fixed point set of an automorphism lift", lift=True)
    add("verify-forms", cmd_verify_forms, "check the invariant-form identities on this scene")
    add("scene", cmd_scene, "echo the scene in canonical JSON")
    p = sub.add_parser("scenes", help="list bundled scenes")
    p.set_defaults(handler="scenes")
    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.set_defaults(handler="selftest")
    return parser


def main(argv=None):
    """Run one kodaira command and return its exit code.

    argv defaults to sys.argv[1:].  Results go to stdout and errors to stderr
    as "error: ..."; a usage error raises SystemExit(2) from argparse.  main
    can be called any number of times in one process: the parser is built on
    the first call and each call parses into a fresh namespace.
    """
    args = _parser().parse_args(argv)
    try:
        if args.handler == "selftest":
            return cmd_selftest(args)
        if args.handler == "scenes":
            for name in bundled_scene_names():
                print(name)
            return 0
        if args.command == "pi1" and args.op != "abelianization" and args.element is None:
            raise SceneError(f"pi1 {args.op}: needs an element m1,m2,m3,m4")
        scene = load_scene(args.scene)
        fmt = args.format or scene.options.get("format") or "table"
        args.handler(scene, args, fmt)
        return 0
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
