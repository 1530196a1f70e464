"""Group law of the fundamental group and its affine realization."""

from fractions import Fraction

from hypothesis import given, strategies as st

from kodaira import pi1
from kodaira.exactfield import NumberRing, SymbolDecl, Tau, lattice_coords
from kodaira.surface import KodairaData

R = NumberRing()
I = R.i()
RH = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
R3 = RH.symbol("r3")

DATAS = [
    KodairaData(Tau(I), Tau(I), R.one(), R.value(0)),
    KodairaData(Tau(I), Tau(I), R.value(2), R.value(Fraction(1, 3))),
    KodairaData(Tau(2 * I), Tau(I), R.value(3), R.value(Fraction(1, 2))),
    KodairaData(Tau(R3), Tau(R3), RH.value(2) + R3, R3 * Fraction(1, 7)),
]

exps = st.integers(-9, 9)
triple = st.tuples(*(exps for _ in range(4)))
data_ix = st.integers(0, len(DATAS) - 1)


@given(data_ix, triple, triple, triple)
def test_star_is_associative(k, e1, e2, e3):
    d = DATAS[k]
    g1, g2, g3 = (pi1.from_exponents(*e, d) for e in (e1, e2, e3))
    assert pi1.star(pi1.star(g1, g2, d), g3, d) == pi1.star(g1, pi1.star(g2, g3, d), d)


@given(data_ix, triple)
def test_identity_and_inverse(k, e):
    d = DATAS[k]
    g = pi1.from_exponents(*e, d)
    ident = pi1.from_exponents(0, 0, 0, 0, d)
    assert pi1.star(g, ident, d) == g
    assert pi1.star(ident, g, d) == g
    gi = pi1.inverse(g, d)
    assert pi1.star(g, gi, d) == ident
    assert pi1.star(gi, g, d) == ident


@given(data_ix, triple)
def test_exponent_round_trip(k, e):
    d = DATAS[k]
    g = pi1.from_exponents(*e, d)
    assert g.exponents() == e


@given(data_ix, triple, triple)
def test_affine_realization_is_a_homomorphism(k, e1, e2):
    d = DATAS[k]
    g1, g2 = pi1.from_exponents(*e1, d), pi1.from_exponents(*e2, d)
    composed = pi1.to_affine(g1, d).compose(pi1.to_affine(g2, d))
    assert composed == pi1.to_affine(pi1.star(g1, g2, d), d)


def test_commutator_is_the_central_fibre_period():
    for d in DATAS:
        ga = pi1.from_exponents(1, 0, 0, 0, d)
        gb = pi1.from_exponents(0, 1, 0, 0, d)
        comm = pi1.star(
            pi1.star(ga, gb, d),
            pi1.star(pi1.inverse(ga, d), pi1.inverse(gb, d), d), d)
        m3, m4 = lattice_coords(d.c, d.tau_e)
        assert comm.exponents() == (0, 0, m3, m4)
        assert pi1.values(comm, d)[1] == d.c
        assert pi1.is_central(comm)


@given(data_ix, triple)
def test_central_elements_commute(k, e):
    d = DATAS[k]
    g = pi1.from_exponents(*e, d)
    z = pi1.from_exponents(0, 0, 3, -2, d)
    assert pi1.is_central(z)
    assert pi1.star(g, z, d) == pi1.star(z, g, d)
    assert pi1.is_central(g) == (e[0] == 0 and e[1] == 0)


def test_generator_images_on_the_cover():
    # gamma1 shears the fibre coordinate by c z; the other three translate
    d = DATAS[1]
    aff = pi1.to_affine(pi1.from_exponents(1, 0, 0, 0, d), d)
    assert aff.b == d.tau_b.value
    assert aff.q1 == d.c
    aff = pi1.to_affine(pi1.from_exponents(0, 1, 0, 0, d), d)
    assert (aff.b, aff.q1, aff.q0) == (d.ring.one(), d.ring.zero(), d.ring.zero())
    aff = pi1.to_affine(pi1.from_exponents(0, 0, 1, 0, d), d)
    assert (aff.b, aff.q1, aff.q0) == (d.ring.zero(), d.ring.zero(), d.tau_e.value)
    aff = pi1.to_affine(pi1.from_exponents(0, 0, 0, 1, d), d)
    assert (aff.b, aff.q1, aff.q0) == (d.ring.zero(), d.ring.zero(), d.ring.one())


def test_abelianization_matches_torsion_coefficient():
    for d, m in zip(DATAS, (1, 2, 3, 1)):
        free, torsion = pi1.abelianization_invariants(d)
        assert free == 3
        assert list(torsion) == ([m] if m > 1 else [])
