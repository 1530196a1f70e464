"""The per-surface lattice constants (surface.lattice_frame) and the
one-decompose skew values that replace pairs of d_form calls."""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import kodaira
from kodaira import lifts, pi1, selftest
from kodaira.exactfield import DomainError, NumberRing, SymbolDecl, Tau, d_form
from kodaira.lifts import (
    MapClass,
    canonical_unit,
    compose,
    conjugate_deck,
    descent_check,
    factor_semidirect,
    invert,
    order_n_lift,
    power,
    skew,
)
from kodaira.surface import KodairaData, lattice_frame

from conftest import rand_auto_lift, rand_pi1

R = NumberRing()
I = R.i()
HALF = Fraction(1, 2)


def _uncached_factor(l, d):
    """factor_semidirect from scratch: search the exponent, then undo the
    rotation built anew."""
    omega = canonical_unit(d.tau_b)
    e, p = 0, d.ring.one()
    while p != l.alpha:
        p, e = p * omega, e + 1
    return compose(l, invert(power(order_n_lift(d, omega), e, d), d), d), e


def _rotation(d, e):
    return power(order_n_lift(d, canonical_unit(d.tau_b)), e, d)


def test_surfaces_differing_only_in_c_or_delta_keep_their_own_constants():
    base = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
    other_c = KodairaData(Tau(I), Tau(I), 1 + I, R.value(0))
    other_delta = KodairaData(Tau(I), Tau(I), R.one(), R.value(HALF))
    lattice_frame.cache_clear()
    frames = [lattice_frame(d) for d in (base, other_c, other_delta)]
    assert len({id(f) for f in frames}) == 3
    assert [f.epsilon for f in frames] == [-I * HALF, (1 - I) * HALF, (1 - I) * HALF]
    assert [f.c_coords for f in frames] == [(0, 1), (1, 1), (0, 1)]
    assert [f.half_c for f in frames] == [R.value(HALF), (1 + I) * HALF, R.value(HALF)]
    for d, f in zip((base, other_c, other_delta), frames):
        assert f.unit_powers == (R.one(), I, -R.one(), -I)
        for e in range(4):
            factor_semidirect(_rotation(d, e), d)
            assert f.inverse_rotations[e] == invert(_rotation(d, e), d)
    # the three surfaces' inverse rotations differ pairwise
    for e in (1, 3):
        assert len({frames[k].inverse_rotations[e] for k in range(3)}) == 3


def test_warm_answers_interleaved_across_surfaces_equal_cold_ones(
        square_data, hex_data, trans_data):
    rng = random.Random(2024)
    surfaces = [square_data, hex_data, trans_data]
    jobs = [(d, rand_auto_lift(d, rng), rand_pi1(d, rng), rand_pi1(d, rng))
            for d in surfaces for _ in range(3)]

    def answers(d, l, g1, g2):
        return (factor_semidirect(l, d), invert(l, d), compose(l, l, d),
                descent_check(l, d), conjugate_deck(l, d, g1),
                pi1.star(g1, g2, d), pi1.inverse(g1, d), lifts.z_coefficient(l, d))

    cold = []
    for job in jobs:
        lattice_frame.cache_clear()
        cold.append(answers(*job))
    for job, want in list(zip(jobs, cold)) * 2:
        assert answers(*job) == want


@pytest.mark.parametrize("surface", ["square_data", "hex_data", "trans_data"])
def test_factor_semidirect_matches_the_uncached_reference(surface, request):
    d = request.getfixturevalue(surface)
    rng = random.Random(f"factor/{surface}")
    for _ in range(8):
        l = rand_auto_lift(d, rng)
        assert descent_check(l, d) == MapClass.AUTOMORPHISM
        assert factor_semidirect(l, d) == _uncached_factor(l, d)


def test_unit_powers_run_through_the_unit_group(square_data, hex_data):
    rect = KodairaData(Tau(2 * I), Tau(I), R.value(2), R.value(0))
    for d, n in ((rect, 2), (square_data, 4), (hex_data, 6)):
        powers = lattice_frame(d).unit_powers
        omega = canonical_unit(d.tau_b)
        assert len(powers) == n and len(set(powers)) == n
        assert powers[1] == omega and powers[-1] * omega == d.ring.one()


RH = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
RT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.14159)])
TAUS = [
    Tau(I),
    Tau(R.value(Fraction(1, 3)) + 2 * I),
    Tau((RH.one() + RH.symbol("r3")) * HALF),
    Tau(RT.value(Fraction(1, 3)) + RT.symbol("t") * Fraction(1, 20)),
    Tau(RH.i() + RH.i() * RH.symbol("r3") - 3),  # i*r3 is real: two non-constant monomials
]
fracs = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(st.sampled_from(TAUS), fracs, fracs)
def test_skew_equals_two_d_forms(tau, a, b):
    x = tau.value * a + tau.ring.value(b)
    assert skew(x, tau) == (d_form(tau, x, tau.ring.one()), d_form(tau, x, tau.value))


def test_sampler_failure_is_a_domain_error(monkeypatch, square_data):
    monkeypatch.setattr(selftest, "descent_check", lambda l, d: MapClass.NOT_DESCENDING)
    with pytest.raises(DomainError, match="not an automorphism"):
        selftest._rand_auto_lift(square_data, random.Random(1))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check of the package may use one
    root = pathlib.Path(kodaira.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(root.rglob("*.py"))) >= 10
    assert not found, f"assert statements in src/kodaira: {found}"


def _imports_cli(node):
    if isinstance(node, ast.Import):
        return any(a.name == "kodaira.cli" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        return module in (".cli", "kodaira.cli") or (
            module in (".", "kodaira") and any(a.name == "cli" for a in node.names))
    return False


def test_only_the_entry_point_imports_the_cli():
    # the CLI sits on top of the package; the library and the acceptance
    # checks load scenes through kodaira.scene
    root = pathlib.Path(kodaira.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py")) if path.name != "__main__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports_cli(node)
    ]
    assert [_imports_cli(ast.parse(src).body[0]) for src in (
        "from .cli import main", "from . import cli", "import kodaira.cli",
        "from kodaira.cli import main", "from .scene import load_scene")] == [1, 1, 1, 1, 0]
    assert not found, f"modules importing the CLI: {found}"


def _referenced_names(tree):
    """Every name, attribute, imported name and string constant in the tree;
    strings count because perfbench and monkeypatch reach names by string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_function_and_class_is_referenced():
    repo = pathlib.Path(__file__).resolve().parents[1]
    used = {name for top in ("src", "tests", "perfbench")
            for path in (repo / top).rglob("*.py")
            for name in _referenced_names(ast.parse(path.read_text(encoding="utf-8")))}
    unused = sorted(
        f"{path.name}:{node.name}"
        for path in (repo / "src" / "kodaira").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )
    assert not unused, f"defined in src/kodaira but never referenced: {unused}"
