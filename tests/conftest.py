"""Shared rings, surface data, and lift samplers for the test suite."""

import random
import sys
from fractions import Fraction

import pytest

from kodaira.exactfield import NumberRing, SymbolDecl, Tau
from kodaira.lifts import (
    MapClass,
    SpecialLift,
    canonical_unit,
    compose,
    deck_lift,
    descent_check,
    identity_lift,
    order_n_lift,
    power,
    unit_group_order,
)
from kodaira.exactfield import in_lattice
from kodaira.selftest import rand_lattice, rand_pi1, rand_value, translation_lift  # noqa: F401
from kodaira.surface import KodairaData


@pytest.fixture(scope="session")
def gauss():
    return NumberRing()


@pytest.fixture(scope="session")
def hexring():
    return NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])


@pytest.fixture(scope="session")
def transring():
    return NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.141592653589793)])


@pytest.fixture(scope="session")
def square_data(gauss):
    i = gauss.i()
    return KodairaData(Tau(i), Tau(i), gauss.value(2), gauss.value(0))


@pytest.fixture(scope="session")
def unit_c_data(gauss):
    i = gauss.i()
    return KodairaData(Tau(i), Tau(i), gauss.one(), gauss.value(Fraction(1, 3)))


@pytest.fixture(scope="session")
def hex_data(hexring):
    r3 = hexring.symbol("r3")
    half = Fraction(1, 2)
    return KodairaData(Tau((hexring.one() + r3) * half), Tau(r3), r3, hexring.value(0))


@pytest.fixture(scope="session")
def trans_data(transring):
    t = transring.symbol("t")
    return KodairaData(Tau(transring.i()), Tau(t), transring.value(2), transring.value(0))


def gauge_lift(d, rng):
    ring = d.ring
    cands = [ring.zero()]
    for x in range(-2, 3):
        for y in range(-2, 3):
            s = d.tau_e.value * x + ring.value(y)
            if in_lattice(s * d.tau_b.value, d.tau_e):
                cands.append(s)
    return SpecialLift(ring.one(), ring.zero(), cands[rng.randrange(len(cands))],
                       rand_value(ring, rng))


def rand_auto_lift(d, rng, rotations=True):
    n = unit_group_order(d.tau_b)
    base = order_n_lift(d, canonical_unit(d.tau_b))
    out = identity_lift(d)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randint(0, 3 if rotations else 2)
        if kind == 0:
            piece = translation_lift(d, rng)
        elif kind == 1:
            piece = gauge_lift(d, rng)
        elif kind == 2:
            piece = deck_lift(rand_pi1(d, rng, span=3), d)
        else:
            piece = power(base, rng.randint(1, n - 1), d)
        out = compose(out, piece, d)
    assert descent_check(out, d) == MapClass.AUTOMORPHISM
    return out


@pytest.fixture
def rng():
    return random.Random(97531)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    acceptance = sys.modules.get("test_acceptance")
    if acceptance is not None and acceptance.VERDICTS:
        terminalreporter.section("acceptance")
        for line in acceptance.VERDICTS:
            terminalreporter.write_line(line)
