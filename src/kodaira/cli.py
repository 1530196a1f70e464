"""Command line interface: argv -> handler -> renderer.

Every command but ``scenes`` and ``selftest`` reads a scene (see
``kodaira.scene`` for the file format).  A handler builds a document of
exact values and ``_emit`` alone turns it into text, as JSON or as an
indented table, so output is byte-identical across runs: fixed key order,
no timestamps, rationals as "p/q" strings.

Exit codes: 0 on success, 1 on a domain error (a lift that does not
descend, data outside the representable range, ...), 2 on a malformed
scene file or bad usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exactfield import DomainError, in_lattice, to_payload
from .surface import (
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
    as_deck,
    canonical_lift,
    classify_kernel,
    compose,
    descent_check,
    factor_semidirect,
    nk_invariants,
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
from .scene import (
    SceneError,
    bundled_scene_names,
    lift_fields,
    load_scene,
    require,
    scene_document,
    surface_fields,
)
# perfbench calls cli.parse_scene, the golden transcript test cli.bundled_scene
from .scene import bundled_scene, parse_scene  # noqa: F401


# ---------------------------------------------------------------------------
# output


def _text(v):
    """A value as table text: a complex as a+bi, a tuple (one block row)
    inline as [a, b], anything else as its str."""
    if isinstance(v, complex):
        return f"{v.real!r}{'+' if v.imag >= 0 else ''}{v.imag!r}i"
    if isinstance(v, tuple):
        return "[" + ", ".join(map(_text, v)) + "]"
    return str(v)


def _json(v):
    """json.dumps hook: a complex as {"re", "im"}, a ring value as its payload."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return to_payload(v)


def _table_lines(doc, indent=""):
    lines = []
    if isinstance(doc, dict):
        for key, val in doc.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{indent}{key}:")
                lines.extend(_table_lines(val, indent + "  "))
            else:
                shown = "(none)" if isinstance(val, (dict, list)) else _text(val)
                lines.append(f"{indent}{key}: {shown}")
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_table_lines(val, indent + "  "))
            else:
                lines.append(f"{indent}- {_text(val)}")
    else:
        lines.append(f"{indent}{_text(doc)}")
    return lines


def _emit(doc, fmt):
    """Print a document: the only place a value becomes text."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, default=_json))
    else:
        print("\n".join(_table_lines(doc)))


def _pick_lift(scene, name):
    """The lift called name; with no name, the scene's only lift."""
    if name is None:
        if len(scene.lifts) == 1:
            return next(iter(scene.lifts.values()))
        raise SceneError(f"scene has {len(scene.lifts)} lifts; pick one with --lift")
    if name not in scene.lifts:
        have = ", ".join(sorted(scene.lifts)) or "(none)"
        raise SceneError(f"no lift named {name!r}; scene has: {have}")
    return scene.lifts[name]


# ---------------------------------------------------------------------------
# commands


def cmd_normalize(scene, args, fmt):
    d0, shift = normalize_delta(scene.data)
    d1, scale = normalize_c(d0)
    _emit({
        "input": surface_fields(scene.data),
        "delta_zero": {"surface": surface_fields(d0), "base_shift": shift},
        "c_integer": {"surface": surface_fields(d1), "fibre_scale": scale},
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
    require(1 <= precision <= 15,
            f"{where}: expected 1 to 15 significant digits, got {precision}")
    j, qe = moduli_point(scene.data, precision)
    _emit({"j_base": j, "q_fibre": qe, "precision": precision}, fmt)


def _parse_exponents(text, where):
    parts = text.split(",")
    require(len(parts) == 4, f"{where}: expected 4 comma-separated integers")
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
    require(args.element is not None, f"pi1 {args.op}: needs an element m1,m2,m3,m4")
    g1 = pi1.from_exponents(*_parse_exponents(args.element, "element"), d)
    if args.op == "inverse":
        out = pi1.inverse(g1, d)
    else:
        require(args.other_element is not None, "star: needs a second element")
        g2 = pi1.from_exponents(*_parse_exponents(args.other_element, "second element"), d)
        out = pi1.star(g1, g2, d)
    _emit({"exponents": list(out.exponents()), "central": pi1.is_central(out)}, fmt)


def cmd_check_lift(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args.lift)
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
    require(len(names) == 2, "compose: pass --lift twice (outer first)")
    outer, inner = (_pick_lift(scene, name) for name in names)
    out = compose(outer, inner, d)
    _emit({"lift": lift_fields(out), "class": descent_check(out, d).value}, fmt)


def cmd_power(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args.lift)
    require(args.exponent >= 0, "power: exponent must be >= 0")
    out = power(l, args.exponent, d)
    _emit({"lift": lift_fields(out), "class": descent_check(out, d).value}, fmt)


def cmd_order_n(scene, args, fmt):
    d = scene.data
    l = canonical_lift(d)
    _emit({"n": unit_group_order(d.tau_b), "unit": l.alpha, "lift": lift_fields(l),
           "class": descent_check(l, d).value}, fmt)


def cmd_semidirect(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args.lift)
    n_part, e = factor_semidirect(l, d)
    _emit({"exponent": e, "translation_part": lift_fields(n_part)}, fmt)


def cmd_kernel_class(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args.lift)
    out = classify_kernel(l, d)
    if isinstance(out, NotInKerPsi):
        doc = {"kind": "not_in_kernel"}
    elif isinstance(out, FibreTranslation):
        doc = {"kind": "fibre_translation", "element": out.e}
    elif isinstance(out, GaugeWithHom):
        doc = {"kind": "gauge_with_hom"}
    else:
        raise DomainError(f"unknown kernel class {out!r}")
    _emit(doc, fmt)


def cmd_nk(scene, args, fmt):
    inv = nk_invariants(scene.data)
    _emit({"free_rank": inv.free_rank, "torsion": list(inv.torsion),
           "infinitely_many_base_translations": inv.infinite}, fmt)


def cmd_cohomology(scene, args, fmt):
    d = scene.data
    l = _pick_lift(scene, args.lift)
    action = dolbeault_action(l, d)
    traces = trace_det(action)
    _emit({
        "rho": rho(l, d),
        "action": {f"H{p}{q}": list(action.blocks[(p, q)]) for p, q in BLOCK_ORDER},
        "trace": {f"H{p}{q}": traces[(p, q)][0] for p, q in BLOCK_ORDER},
        "det": {f"H{p}{q}": traces[(p, q)][1] for p, q in BLOCK_ORDER},
        "total_trace": traces["total"][0],
        "lefschetz": lefschetz(action),
        "symplectic": is_symplectic(l),
        "acts_trivially": acts_trivially_on_cohomology(l, d),
    }, fmt)


def cmd_fixed_locus(scene, args, fmt):
    loc = fixed_locus(_pick_lift(scene, args.lift), scene.data)
    _emit({"kind": loc.kind, "fibres": list(loc.fibres)}, fmt)


def cmd_verify_forms(scene, args, fmt):
    results = verify_invariant_generators(scene.data)
    failed = [r.name for r in results if not r.ok]
    if fmt == "table":
        lines = [f"{'pass' if r.ok else 'FAIL'}  {r.name}" for r in results]
        lines.append(f"{len(results) - len(failed)} of {len(results)} identities hold")
        _emit("\n".join(lines), fmt)
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


def cmd_scenes(scene, args, fmt):
    _emit("\n".join(bundled_scene_names()), fmt)


def cmd_selftest(scene, args, fmt):
    from .selftest import run_all  # imported here so the other commands start faster
    failed = [name for _, name, ok in run_all(verbose=print) if not ok]
    if failed:
        raise DomainError(f"{len(failed)} acceptance checks failed: {', '.join(failed)}")


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
        p.set_defaults(handler=handler, scene=None, format=None)
        if scene:
            p.add_argument("--scene", required=True,
                           help="scene file, or bundled:<name> for a shipped scene")
            p.add_argument("--format", choices=("json", "table"))
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
    add("scenes", cmd_scenes, "list bundled scenes", scene=False)
    add("selftest", cmd_selftest, "run the acceptance checks", scene=False)
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
        scene = None if args.scene is None else load_scene(args.scene)
        fmt = args.format or (scene and scene.options.get("format")) or "table"
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
