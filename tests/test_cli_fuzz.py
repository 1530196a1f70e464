"""Fuzz of the scene parser and the command line: whatever the scene file and
the arguments, kodaira ends with exit 0, 1 or 2 and never with a traceback.

Most scenes are bundled ones with a field replaced or a lift added, so the
commands get past the parser; the rest are random documents."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from kodaira import cli
from kodaira.exactfield import DomainError
from kodaira.scene import LIFT_FIELDS, SceneError, bundled_scene, bundled_scene_names, parse_scene

SYMBOLS = ("i", "r2", "r3", "t", "x")
SURFACE_FIELDS = ("tau_b", "tau_e", "c", "delta")
LIFT_COMMANDS = ("check-lift", "power", "semidirect", "kernel-class", "cohomology",
                 "fixed-locus")
COMMANDS = LIFT_COMMANDS + ("normalize", "iso", "moduli", "pi1", "compose", "order-n",
                            "nk", "verify-forms", "scene")

junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
                 st.floats(allow_nan=True, allow_infinity=True))
ratio = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 6)),
    st.integers(-9, 9),
    st.sampled_from(["1/0", "-2/-3", "x", ""]),
)


def payloads(names):
    """Payloads over the symbol names; each term is [monomial, coefficient]."""
    monomial = st.lists(st.tuples(st.sampled_from(names), st.integers(-2, 3)).map(list),
                        max_size=2)
    return st.lists(st.tuples(monomial, ratio).map(list), max_size=3)


symbol = st.fixed_dictionaries(
    {"name": st.sampled_from(SYMBOLS)},
    optional={"d": st.one_of(st.integers(-2, 12), junk),
              "approx": st.one_of(st.floats(0.1, 5), junk)},
)
any_payload = st.one_of(payloads(SYMBOLS), junk)
random_scene = st.fixed_dictionaries(
    {"surface": st.one_of(
        st.fixed_dictionaries({k: any_payload for k in SURFACE_FIELDS}), junk)},
    optional={
        "ring": st.one_of(st.lists(symbol, max_size=3), junk),
        "lifts": st.one_of(st.dictionaries(
            st.sampled_from(("f", "g")),
            st.fixed_dictionaries({}, optional={f: any_payload for f in LIFT_FIELDS}),
            max_size=2), junk),
        "options": st.one_of(st.fixed_dictionaries({}, optional={
            "format": st.sampled_from(["json", "table", "x"]),
            "precision": st.one_of(st.integers(-1, 20), junk)}), junk),
    },
)


@st.composite
def bundled_variant(draw):
    """A bundled scene with one surface field replaced, lift fields replaced
    (v alone keeps a lift descending), or a random lift added."""
    doc = bundled_scene(draw(st.sampled_from(bundled_scene_names())))
    names = [s["name"] for s in doc.get("ring", [])] or ["i"]
    value = payloads(names)
    how = draw(st.sampled_from(("surface", "lift field", "lift field", "new lift", "none")))
    lifts = doc.setdefault("lifts", {})
    if how == "surface":
        doc["surface"][draw(st.sampled_from(SURFACE_FIELDS))] = draw(value)
    elif how == "lift field" and lifts:
        entry = lifts[draw(st.sampled_from(sorted(lifts)))]
        for f in draw(st.lists(st.sampled_from(LIFT_FIELDS), min_size=1, max_size=2)):
            entry[f] = draw(value)
    elif how == "new lift":
        lifts["f"] = {f: draw(value) for f in LIFT_FIELDS}
    return doc


@st.composite
def invocations(draw):
    """(scene document, command, arguments after --scene)."""
    doc = draw(st.one_of(bundled_variant(), bundled_variant(), bundled_variant(), random_scene))
    command = draw(st.sampled_from(COMMANDS))
    lifts = doc.get("lifts") if isinstance(doc.get("lifts"), dict) else {}
    lift_name = st.sampled_from(sorted(lifts) + ["nope"])
    args = []
    if command in LIFT_COMMANDS and draw(st.booleans()):
        args += ["--lift", draw(lift_name)]
    if command == "compose":
        for _ in range(draw(st.integers(0, 3))):
            args += ["--lift", draw(lift_name)]
    if command == "power":
        args += ["--exponent", str(draw(st.integers(-2, 40)))]
    if command == "moduli" and draw(st.booleans()):
        args += ["--precision", str(draw(st.integers(-2, 20)))]
    if command == "iso":
        args += ["--other", draw(st.sampled_from(
            ["SELF"] + [f"bundled:{n}" for n in bundled_scene_names()]))]
    if draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(["json", "table"]))]
    if command == "pi1":
        element = st.lists(st.integers(-3, 3), min_size=3, max_size=5).map(
            lambda e: ",".join(map(str, e)))
        args += ["--", draw(st.sampled_from(["star", "inverse", "abelianization", "x"]))]
        args += draw(st.lists(element, max_size=2))
    return doc, command, args


def _run(doc, command, args):
    """Run kodaira on doc written to a file; returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, "--scene", path] + [path if a == "SELF" else a for a in args]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_never_crashes(case):
    code, err = _run(*case)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(st.one_of(bundled_variant(), random_scene))
def test_parse_scene_raises_only_scene_and_domain_errors(doc):
    try:
        parse_scene(doc)
    except (SceneError, DomainError):
        pass
