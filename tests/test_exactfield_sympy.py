"""Ring arithmetic and Smith normal form checked against sympy.

Quadratic symbols map to sqrt(d)*I and a transcendental t to I*T with T a
positive sympy symbol, so every ring operation has an independent symbolic
counterpart.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kodaira.exactfield import (
    NotInvertible,
    NumberRing,
    NumberValue,
    SymbolDecl,
    divide,
    smith_normal_form,
)

sp = pytest.importorskip("sympy")

T_REAL = sp.Symbol("T", positive=True)
RQ = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r2", d=2), SymbolDecl("r3", d=3)])
RT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t")])

# every reduced monomial of Q(i, sqrt-2, sqrt-3); i^a t^b with |b| <= 2 over Q(i, t)
QUAD_MONOS = [tuple((k, 1) for k in range(3) if mask >> k & 1) for mask in range(8)]
LAURENT_MONOS = [tuple(p for p in ((0, a), (1, b)) if p[1])
                 for a, b in itertools.product((0, 1), range(-2, 3))]


def to_sympy(x):
    gens = [sp.I * (T_REAL if s.d is None else sp.sqrt(s.d)) for s in x.ring.symbols]
    out = sp.Integer(0)
    for mono, q in x.items():
        term = sp.Rational(q.numerator, q.denominator)
        for k, e in mono:
            term *= gens[k] ** e
        out += term
    return out


def same(a, b):
    return sp.expand(a - b) == 0


def rand_value(ring, monos, rng, terms):
    picked = rng.sample(monos, rng.randint(1, terms))
    return NumberValue(ring, {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
                              for m in picked})


@pytest.mark.parametrize("ring, monos", [(RQ, QUAD_MONOS), (RT, LAURENT_MONOS)],
                         ids=["quadratic", "laurent"])
def test_add_mul_conjugate_match_sympy(ring, monos):
    rng = random.Random(4242)
    for _ in range(40):
        x, y = rand_value(ring, monos, rng, 5), rand_value(ring, monos, rng, 5)
        sx, sy = to_sympy(x), to_sympy(y)
        assert same(to_sympy(x + y), sx + sy)
        assert same(to_sympy(x - y), sx - sy)
        assert same(to_sympy(x * y), sx * sy)
        assert same(to_sympy(x * Fraction(-3, 7)), sx * sp.Rational(-3, 7))
        assert same(to_sympy(x.conjugate()), sp.conjugate(sx))


def test_divide_matches_sympy_in_quadratic_field():
    rng = random.Random(777)
    for _ in range(25):
        x, y = rand_value(RQ, QUAD_MONOS, rng, 4), rand_value(RQ, QUAD_MONOS, rng, 4)
        q = divide(x, y)
        assert same(sp.radsimp(to_sympy(x) / to_sympy(y)), to_sympy(q))
        assert same(to_sympy(q) * to_sympy(y), to_sympy(x))


def test_divide_matches_sympy_by_laurent_monomials():
    rng = random.Random(778)
    for _ in range(40):
        x = rand_value(RT, LAURENT_MONOS, rng, 5)
        y = rand_value(RT, LAURENT_MONOS, rng, 1)
        assert same(to_sympy(divide(x, y)), to_sympy(x) / to_sympy(y))
    with pytest.raises(NotInvertible):
        divide(RT.one(), RT.symbol("t") + RT.one())


small_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          min_size=1, max_size=4))


@given(small_matrices)
@settings(max_examples=80)
def test_smith_normal_form_matches_sympy(mat):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    want = sympy_snf(sp.Matrix(mat), domain=sp.ZZ)
    got = smith_normal_form(mat)[1]
    n = min(len(mat), len(mat[0]))
    assert [got[k][k] for k in range(n)] == [abs(want[k, k]) for k in range(n)]
