"""Normal forms, marking changes, and the numeric moduli point.

The base re-marking test rebuilds the claimed conjugating map
V(z, zeta) = (mu z, zeta - phi(mu z)) from scratch and checks that V
carries every deck transformation of the input presentation to a deck
transformation of the output presentation, exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kodaira import pi1, surface
from kodaira.exactfield import (
    DomainError,
    NumberRing,
    SymbolDecl,
    Tau,
    divide,
    in_lattice,
    lattice_coords,
)
from kodaira.forms import constant, substitute, variable, wedge
from kodaira.surface import (
    KodairaData,
    NotRepresentable,
    Sl2Matrix,
    TorsionDecomposition,
    change_base_marking,
    is_isomorphic,
    mobius,
    moduli_point,
    normalize_c,
    normalize_delta,
    sl2_reduce,
    torsion_coefficient,
)

R = NumberRing()
I = R.i()
RH = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
R3 = RH.symbol("r3")
RT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.14159)])
T = RT.symbol("t")


def test_torsion_coefficient_frozen():
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    assert torsion_coefficient(d) == TorsionDecomposition(2, 0, 1)
    d = KodairaData(Tau(I), Tau(I), (R.one() + 2 * I) * 3, R.value(0))
    assert torsion_coefficient(d) == TorsionDecomposition(3, 2, 1)
    d = KodairaData(Tau(I), Tau(I), -2 * I, R.value(0))
    t = torsion_coefficient(d)
    assert t.m == 2 and d.c == (d.tau_e.value * t.p + R.value(t.q)) * t.m


def test_normalize_delta():
    d = KodairaData(Tau(I), Tau(I), 2 * I, R.value(Fraction(2, 5)) + I * Fraction(1, 3))
    out, shift = normalize_delta(d)
    assert out.delta == R.zero()
    assert (out.tau_b, out.tau_e, out.c) == (d.tau_b, d.tau_e, d.c)
    assert shift == divide(d.delta, d.c)


def test_normalize_c():
    d = KodairaData(Tau(I), Tau(I), 2 * I, R.value(0))
    out, scale = normalize_c(d)
    assert out.c == R.value(2)
    assert scale == -I
    assert torsion_coefficient(out) == TorsionDecomposition(2, 0, 1)
    assert is_isomorphic(d, out)


def test_normalize_c_rejects_transcendental_units():
    d = KodairaData(Tau(RT.i()), Tau(T), T * 2, RT.value(0))
    with pytest.raises(NotRepresentable):
        normalize_c(d)


@given(st.fractions(min_value=-6, max_value=6, max_denominator=6),
       st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
       st.sampled_from(["i", "r3"]))
@settings(max_examples=80)
def test_sl2_reduce_lands_in_the_fundamental_domain(q0, q1, sym):
    s = RH.symbol(sym)
    tau = Tau(s * q1 + RH.value(q0))
    red, M = sl2_reduce(tau)
    assert mobius(M, tau) == red
    a, b = red.value.coeff(()), red.imag_coeff()
    dsq = 1 if sym == "i" else 3
    norm = a * a + b * b * dsq
    assert Fraction(-1, 2) <= a < Fraction(1, 2)
    assert norm >= 1
    if norm == 1:
        assert a <= 0


def test_sl2_reduce_passes_transcendental_through():
    tau = Tau(T + RT.value(7))
    red, M = sl2_reduce(tau)
    assert red == tau and M == Sl2Matrix(1, 0, 0, 1)


# --- the conjugating map for change_base_marking -------------------------


def _map_compose(outer, inner):
    return [substitute(p, inner) for p in outer]


def _v_images(d, d_out, M):
    ring = d.ring
    Mi = M.inverse()
    ps, qs = Mi.p, Mi.q
    t_in, t_out = d.tau_b.value, d_out.tau_b.value
    mu = t_out * ps + ring.value(qs)
    pc_over_mu = divide(d.c * ps, mu)
    half = Fraction(1, 2)
    a2 = -pc_over_mu * half
    a1 = d.c * t_in * Fraction(ps * (ps + 1), 2) - d.delta * ps + pc_over_mu * half
    z, zb = variable(ring, 0), variable(ring, 1)
    zeta, zetab = variable(ring, 2), variable(ring, 3)

    def phi(w):
        return wedge(w, w) * a2 + w * a1

    def conj_phi(w):
        return wedge(w, w) * a2.conjugate() + w * a1.conjugate()

    mu_inv = divide(ring.one(), mu)
    forward = [
        z * mu,
        zb * mu.conjugate(),
        zeta - phi(z * mu),
        zetab - conj_phi(zb * mu.conjugate()),
    ]
    backward = [
        z * mu_inv,
        zb * mu_inv.conjugate(),
        zeta + phi(z),
        zetab + conj_phi(zb),
    ]
    ident = [z, zb, zeta, zetab]
    assert _map_compose(forward, backward) == ident
    assert _map_compose(backward, forward) == ident
    return forward, backward


def _deck_images(g, d):
    ring = d.ring
    aff = pi1.to_affine(g, d)
    z, zb = variable(ring, 0), variable(ring, 1)
    zeta, zetab = variable(ring, 2), variable(ring, 3)
    return [
        z + constant(ring, aff.b),
        zb + constant(ring, aff.b.conjugate()),
        zeta + z * aff.q1 + constant(ring, aff.q0),
        zetab + zb * aff.q1.conjugate() + constant(ring, aff.q0.conjugate()),
    ]


def _recognize_deck(images, d):
    """Find g with _deck_images(g, d) == images, or fail the test."""
    shift_z = images[0].coeff_at((0, 0, 0, 0), ())
    m1, m2 = lattice_coords(shift_z, d.tau_b)
    partial = pi1.from_exponents(m1, m2, 0, 0, d)
    rest = images[2].coeff_at((0, 0, 0, 0), ()) - pi1.to_affine(partial, d).q0
    m3, m4 = lattice_coords(rest, d.tau_e)
    g = pi1.from_exponents(m1, m2, m3, m4, d)
    assert _deck_images(g, d) == images
    return g


MARKINGS = [
    Sl2Matrix(1, 1, 0, 1),
    Sl2Matrix(1, -2, 0, 1),
    Sl2Matrix(0, -1, 1, 0),
    Sl2Matrix(2, 1, 1, 1),
    Sl2Matrix(1, 0, 1, 1),
]

REMARK_DATA = [
    KodairaData(Tau(I), Tau(I), R.value(2), R.value(Fraction(1, 5))),
    KodairaData(Tau(2 * I + R.one()), Tau(I), R.value(3), I * Fraction(1, 2)),
    KodairaData(Tau((RH.one() + R3) * Fraction(1, 2)), Tau(R3), R3, R3 * Fraction(1, 7)),
]


@pytest.mark.parametrize("k", range(len(REMARK_DATA)))
@pytest.mark.parametrize("m", range(len(MARKINGS)))
def test_change_base_marking_is_conjugation_by_v(k, m):
    d, M = REMARK_DATA[k], MARKINGS[m]
    out = change_base_marking(d, M)
    assert out.tau_b == mobius(M, d.tau_b)
    assert (out.tau_e, out.c) == (d.tau_e, d.c)
    forward, backward = _v_images(d, out, M)
    gens = [pi1.from_exponents(*e, d) for e in
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    found = []
    for g in gens:
        conj = _map_compose(forward, _map_compose(_deck_images(g, d), backward))
        found.append(_recognize_deck(conj, out))
    # V conjugates the full group, not just generators: spot-check a product
    prod = pi1.star(gens[0], pi1.star(gens[1], gens[3], d), d)
    conj = _map_compose(forward, _map_compose(_deck_images(prod, d), backward))
    expected = pi1.star(found[0], pi1.star(found[1], found[3], out), out)
    assert _recognize_deck(conj, out) == expected


def test_change_base_marking_round_trip(gauss=None):
    d = REMARK_DATA[0]
    M = MARKINGS[3]
    back = change_base_marking(change_base_marking(d, M), M.inverse())
    assert back.tau_b == d.tau_b
    assert is_isomorphic(back, d)


def test_change_base_marking_rejects_foreign_denominators():
    d = KodairaData(Tau(T), Tau(T), RT.value(2), RT.value(0))
    with pytest.raises(NotRepresentable):
        change_base_marking(d, Sl2Matrix(0, -1, 1, 0))
    shifted = change_base_marking(d, Sl2Matrix(1, 3, 0, 1))  # no division needed
    assert shifted.tau_b.value == T + RT.value(3)


def test_is_isomorphic_basics():
    d1 = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    d2 = KodairaData(Tau(I), Tau(R.one() + I), R.value(2), R.value(0))
    d3 = KodairaData(Tau(I), Tau(R.value(Fraction(1, 2)) + I), R.value(2), R.value(0))
    d4 = KodairaData(Tau(I), Tau(I), R.value(3), R.value(0))
    assert is_isomorphic(d1, d1)
    assert is_isomorphic(d1, d2) and is_isomorphic(d2, d1)
    assert not is_isomorphic(d1, d3)
    assert not is_isomorphic(d1, d4)  # different torsion coefficient


def test_is_isomorphic_across_an_integer_shift_of_a_transcendental_tau_b():
    d = KodairaData(Tau(T), Tau(T), RT.value(3), RT.value(0))
    shifted = change_base_marking(d, Sl2Matrix(1, 1, 0, 1))
    assert shifted.tau_b == Tau(T + RT.one())
    assert is_isomorphic(d, shifted) and is_isomorphic(shifted, d)
    back = change_base_marking(d, Sl2Matrix(1, -2, 0, 1))
    assert is_isomorphic(d, back)
    # a half shift changes j(tau_B): no isomorphism
    half = KodairaData(Tau(T + RT.value(Fraction(1, 2))), Tau(T), RT.value(3), RT.value(0))
    assert not is_isomorphic(d, half)


def test_is_isomorphic_never_matches_symbols_of_different_rings():
    # r2 and t sit at the same index of their rings; the values must not be compared
    r2_ring = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r2", d=2)])
    quad = KodairaData(Tau(r2_ring.symbol("r2")), Tau(r2_ring.i()), r2_ring.one(), r2_ring.zero())
    trans = KodairaData(Tau(T), Tau(RT.i()), RT.one(), RT.zero())
    assert not is_isomorphic(quad, trans) and not is_isomorphic(trans, quad)


def test_moduli_point_reduces_a_transcendental_tau_b():
    mpmath = pytest.importorskip("mpmath")
    ring = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.141592653589793)])
    tau_b = Tau(ring.value(Fraction(1, 3)) + ring.symbol("t") * Fraction(1, 20))
    d = KodairaData(tau_b, Tau(ring.i()), ring.one(), ring.value(0))
    j, _ = moduli_point(d)
    want = complex(1728 * mpmath.kleinj(mpmath.mpf(1) / 3 + 1j * mpmath.pi / 20))
    assert abs(want - complex(-756.30, 368.41)) < 0.01
    assert abs(j - want) <= 1e-12 * abs(want)


def test_moduli_point_j_against_mpmath_kleinj():
    # tau_B = x + y s for s = i, sqrt(-2), sqrt(-3), sqrt(-7) (reduced exactly)
    # and for transcendental s (reduced numerically); x and y run over
    # points inside the fundamental domain and far outside it
    mpmath = pytest.importorskip("mpmath")
    symbols = [SymbolDecl("r2", d=2), SymbolDecl("r3", d=3), SymbolDecl("r7", d=7),
               SymbolDecl("t", approx=3.141592653589793),
               SymbolDecl("s", approx=0.7390851332151607)]
    cases = [(R, R.i(), mpmath.mpf(1))]
    for decl in symbols:
        ring = NumberRing([SymbolDecl("i", d=1), decl])
        with mpmath.workdps(30):
            im = mpmath.sqrt(decl.d) if decl.is_quadratic else mpmath.mpf(decl.approx)
        cases.append((ring, ring.symbol(decl.name), im))
    xs = [Fraction(-7, 3), Fraction(-1, 2), Fraction(0), Fraction(1, 5), Fraction(1, 2),
          Fraction(3, 2), Fraction(5)]
    ys = [Fraction(1, 9), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
          Fraction(5, 2)]
    for ring, s, im in cases:
        for x in xs:
            for y in ys:
                d = KodairaData(Tau(ring.value(x) + s * y), Tau(ring.i()), ring.one(), ring.zero())
                j, _ = moduli_point(d)
                with mpmath.workdps(30):
                    tau = mpmath.mpf(x.numerator) / x.denominator \
                        + 1j * im * mpmath.mpf(y.numerator) / y.denominator
                    want = complex(1728 * mpmath.kleinj(tau))
                assert abs(j - want) <= 1e-10 * max(1728, abs(want)), (ring, x, y)


def test_moduli_point_frozen_values():
    d = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
    j, q = moduli_point(d)
    assert abs(j - 1728) <= 1e-9 * 1728
    assert abs(q - 0.0018674427317079893) <= 1e-12
    d = KodairaData(Tau(2 * I), Tau(I), R.one(), R.value(0))
    j, _ = moduli_point(d)
    assert abs(j - 287496) <= 1e-6 * 287496  # 66^3 at tau = 2i
    d = KodairaData(Tau((RH.one() + R3) * Fraction(1, 2)), Tau(R3), R3, RH.value(0))
    j, _ = moduli_point(d)
    assert abs(j) <= 1e-9


def test_moduli_point_precision_is_stable():
    d = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
    assert moduli_point(d, 6) == moduli_point(d, 6)
    j6, _ = moduli_point(d, 6)
    assert j6 == 1728.0


def test_normalize_c_reports_a_broken_invariant(monkeypatch):
    d = KodairaData(Tau(I), Tau(I), 2 * I, R.value(0))
    real = surface.torsion_coefficient
    monkeypatch.setattr(surface, "torsion_coefficient",
                        lambda x: real(x) if x == d else TorsionDecomposition(3, 0, 1))
    with pytest.raises(DomainError, match="c = 2 as the torsion coefficient"):
        normalize_c(d)


def test_sl2_reduce_reports_a_broken_invariant(monkeypatch):
    monkeypatch.setattr(surface, "mobius", lambda M, tau: tau)
    with pytest.raises(DomainError, match="SL"):
        sl2_reduce(Tau(I + R.one()))
