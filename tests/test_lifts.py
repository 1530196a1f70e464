"""Lifts of torus maps: descent, composition, finite order, factorization."""

import random
from fractions import Fraction

import pytest

from kodaira import lifts, pi1
from kodaira.exactfield import (
    DomainError,
    NotInvertible,
    NumberRing,
    SymbolDecl,
    Tau,
    d_form,
    in_lattice,
    lattice_coords,
)
from kodaira.forms import map_images, substitute, variable
from kodaira.lifts import (
    AbelianInvariants,
    FibreTranslation,
    GaugeWithHom,
    MapClass,
    NotInKerPsi,
    SpecialLift,
    as_deck,
    canonical_unit,
    classify_kernel,
    compose,
    conjugate_deck,
    count_base_translations_infinite,
    cover_map,
    deck_lift,
    descent_check,
    equal_mod_pi1,
    factor_semidirect,
    identity_lift,
    invert,
    nk_invariants,
    order_n_lift,
    power,
    sigma_map,
    unit_group_order,
    z_coefficient,
)
from kodaira.pi1 import CoverMap, to_affine
from kodaira.scene import bundled_scene, bundled_scene_names, parse_scene
from kodaira.selftest import _closed_power
from kodaira.surface import KodairaData, lattice_frame

from conftest import rand_auto_lift, rand_pi1, rand_value, translation_lift

R = NumberRing()
I = R.i()
RH = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
R3 = RH.symbol("r3")
RT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.14159)])
T = RT.symbol("t")

HALF = Fraction(1, 2)

D2 = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
D1 = KodairaData(Tau(I), Tau(I), R.one(), R.value(Fraction(1, 3)))
DHEX = KodairaData(Tau((RH.one() + R3) * HALF), Tau(R3), R3, RH.value(0))
D2I = KodairaData(Tau(2 * I), Tau(I), R.one(), R.value(0))
DT = KodairaData(Tau(RT.i()), Tau(T), RT.value(2), RT.value(0))


# --- descent -------------------------------------------------------------


def test_half_period_translation_descends():
    l = SpecialLift(R.one(), I * HALF, R.zero(), R.zero())
    assert descent_check(l, D2) == MapClass.AUTOMORPHISM
    assert not in_lattice(l.beta, D2.tau_b)


def test_gauge_over_identity_descends():
    d = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
    l = SpecialLift(R.one(), R.zero(), R.value(2), R.zero())
    assert descent_check(l, d) == MapClass.AUTOMORPHISM
    assert isinstance(classify_kernel(l, d), GaugeWithHom)


def test_transcendental_translation_descends():
    l = SpecialLift(RT.one(), T * HALF, RT.zero(), RT.zero())
    assert descent_check(l, DT) == MapClass.AUTOMORPHISM
    assert not in_lattice(l.beta, DT.tau_b)
    assert count_base_translations_infinite(DT)
    assert not count_base_translations_infinite(D1)


def test_lattice_violation_blocks_descent():
    l = SpecialLift(R.one(), R.value(Fraction(1, 7)), R.zero(), R.zero())
    assert descent_check(l, D2) == MapClass.NOT_DESCENDING
    # sigma10 outside the fibre lattice fails the first condition
    l = SpecialLift(R.one(), R.zero(), R.value(HALF), R.zero())
    assert descent_check(l, D2) == MapClass.NOT_DESCENDING


def _oracle_phi(l, d):
    """The map of C^2 a lift stands for, from d_form alone."""
    one, half = d.ring.one(), Fraction(1, 2)
    da, dt = d_form(d.tau_b, l.alpha, one), d_form(d.tau_b, l.alpha, d.tau_b.value)
    epsilon = d.delta - d.c * d.tau_b.value * half
    u = l.sigma10 + (d.c * l.beta + epsilon - d.c * (dt * half)) * da
    norm = (l.alpha * l.alpha.conjugate()).rational()
    return CoverMap(l.alpha, l.beta, norm, d.c * l.alpha * (da * half), u, l.v)


def _oracle_class(l, d):
    """descent_check from maps of C^2 alone: Phi descends when, for g =
    gamma_1 and gamma_2, Phi deck(g) = deck(g') Phi for some g' in pi1.
    x' is read off the base parts, and y' off the constant terms."""
    phi = _oracle_phi(l, d)
    for g in pi1.generators(d)[:2]:
        lhs = phi.compose(to_affine(g, d))
        if not in_lattice(lhs.b - phi.b, d.tau_b):
            return MapClass.NOT_DESCENDING
        a, b = lattice_coords(lhs.b - phi.b, d.tau_b)
        rhs = to_affine(pi1.from_exponents(a, b, 0, 0, d), d).compose(phi)
        if (lhs.a, lhs.b, lhs.e, lhs.q2, lhs.q1) != (rhs.a, rhs.b, rhs.e, rhs.q2, rhs.q1) \
                or not in_lattice(lhs.q0 - rhs.q0, d.tau_e):
            return MapClass.NOT_DESCENDING
    return MapClass.AUTOMORPHISM if phi.e == 1 else MapClass.ENDOMORPHISM


def test_descent_check_matches_the_cover_map_oracle(rng):
    # automorphism lifts with beta or sigma10 nudged off the descent locus,
    # and endomorphism lifts (|alpha|^2 = 2, or 3 on the hexagonal base)
    seen = set()
    for d, endo in ((D2, 1 + I), (DHEX, R3), (DT, RT.one() + RT.i())):
        ring = d.ring
        nudges = [ring.zero(), ring.value(HALF), d.tau_b.value * Fraction(1, 3),
                  d.tau_e.value, d.tau_e.value * HALF, ring.value(Fraction(1, 4))]
        for _ in range(20):
            l = rand_auto_lift(d, rng)
            l = SpecialLift(l.alpha, l.beta + rng.choice(nudges),
                            l.sigma10 + rng.choice(nudges), l.v)
            e = SpecialLift(endo, l.beta, l.sigma10, l.v)
            for lift in (l, e):
                want = _oracle_class(lift, d)
                assert descent_check(lift, d) == want
                seen.add(want)
    assert seen == set(MapClass)


def test_norm_two_alpha_is_an_endomorphism():
    l = SpecialLift(R.one() + I, R.zero(), R.zero(), R.zero())
    cls = descent_check(l, KodairaData(Tau(I), Tau(I), R.one(), R.value(0)))
    assert cls == MapClass.ENDOMORPHISM


# --- composition as maps of the cover ------------------------------------


def _images(l, d):
    return map_images(cover_map(l, d), d.ring)


def test_compose_matches_map_composition(rng):
    for d in (D2, DHEX, DT):
        for _ in range(12):
            l1, l2 = rand_auto_lift(d, rng), rand_auto_lift(d, rng)
            both = compose(l1, l2, d)
            composed = [substitute(p, _images(l2, d)) for p in _images(l1, d)]
            assert _images(both, d) == composed


def test_invert_is_two_sided(rng):
    for d in (D2, DHEX, DT):
        ident = identity_lift(d)
        for _ in range(12):
            l = rand_auto_lift(d, rng)
            li = invert(l, d)
            assert compose(l, li, d) == ident
            assert compose(li, l, d) == ident


# --- the one cover-map type -----------------------------------------------


def test_cover_map_of_compose_and_invert(rng):
    # dataclass equality compares all six fields, e and q2 included
    for d in (D2, DHEX, DT):
        for _ in range(20):
            l1, l2 = rand_auto_lift(d, rng), rand_auto_lift(d, rng)
            f1, f2 = cover_map(l1, d), cover_map(l2, d)
            assert cover_map(compose(l1, l2, d), d) == f1.compose(f2)
            assert cover_map(invert(l1, d), d) == f1.inverse()
            assert cover_map(invert(l2, d), d) == f2.inverse()


def test_cover_map_of_compose_with_an_endomorphism(rng):
    # |alpha|^2 = 2 makes e = 2, so the e terms of compose are exercised
    d = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
    for _ in range(10):
        endo = SpecialLift(R.one() + I, rand_value(R, rng), rand_value(R, rng), rand_value(R, rng))
        auto = rand_auto_lift(d, rng)
        for l1, l2 in ((endo, auto), (auto, endo), (endo, endo)):
            assert cover_map(compose(l1, l2, d), d) == cover_map(l1, d).compose(cover_map(l2, d))
        assert cover_map(endo, d).e == 2


def _rand_cover_map(ring, rng, a=None, e=None):
    return CoverMap(rand_value(ring, rng) if a is None else a, rand_value(ring, rng),
                    Fraction(rng.randint(1, 5), rng.randint(1, 3)) if e is None else e,
                    rand_value(ring, rng), rand_value(ring, rng), rand_value(ring, rng))


def test_cover_map_compose_and_inverse_against_substitution(rng):
    # any six coefficients, not only those of lifts; inverse on |a| = 1, e = 1
    units = {R: (I, -R.one()), RH: ((RH.one() + R3) * HALF, RH.i()), RT: (RT.i(),)}
    for ring, us in units.items():
        xs = [variable(ring, k) for k in range(4)]
        for _ in range(8):
            f, g = _rand_cover_map(ring, rng), _rand_cover_map(ring, rng)
            brute = [substitute(p, map_images(g, ring)) for p in map_images(f, ring)]
            assert map_images(f.compose(g), ring) == brute
            u = _rand_cover_map(ring, rng, a=us[rng.randrange(len(us))], e=Fraction(1))
            ui = map_images(u.inverse(), ring)
            assert [substitute(p, ui) for p in map_images(u, ring)] == xs
            assert [substitute(p, map_images(u, ring)) for p in ui] == xs


def test_cover_map_inverse_needs_unit_a_and_e_one(rng):
    with pytest.raises(NotInvertible):
        _rand_cover_map(R, rng, a=R.one() + I, e=Fraction(1)).inverse()
    with pytest.raises(NotInvertible):
        _rand_cover_map(R, rng, a=I, e=Fraction(2)).inverse()
    with pytest.raises(NotInvertible):
        invert(SpecialLift(R.one() + I, R.zero(), R.zero(), R.zero()), D1)


def test_power_is_iterated_composition(rng):
    l = rand_auto_lift(D2, rng)
    assert power(l, 0, D2) == identity_lift(D2)
    acc = identity_lift(D2)
    # every bit pattern of square-and-multiply up to five bits
    for m in range(1, 21):
        acc = compose(l, acc, D2)
        assert power(l, m, D2) == acc


def test_power_matches_closed_form_at_large_exponent(rng):
    for d in (D2, DHEX):
        l = rand_auto_lift(d, rng)
        p = power(l, 100, d)
        assert (p.alpha, p.beta, z_coefficient(p, d), p.v) == _closed_power(l, 100, d)


def test_power_rejects_negative_exponents():
    with pytest.raises(ValueError):
        power(identity_lift(D2), -1, D2)


# --- decks inside the lift group ------------------------------------------


def test_deck_lift_round_trips(rng):
    for d in (D1, DHEX):
        for _ in range(10):
            g = rand_pi1(d, rng, span=4)
            l = deck_lift(g, d)
            assert descent_check(l, d) == MapClass.AUTOMORPHISM
            assert as_deck(l, d) == g
    assert as_deck(SpecialLift(R.one(), I * HALF, R.zero(), R.zero()), D2) is None


def test_conjugate_deck_matches_brute_force(rng):
    # against substituting into the map images, and against Phi deck(g) Phi^-1
    # as cover maps; gamma_3, gamma_4 and the other central elements have
    # sigma = 0 before the |alpha|^2 y term, and a = 0 skips the alpha-bar term
    for d in (D2, DHEX, DT):
        for _ in range(6):
            l = rand_auto_lift(d, rng)
            inv_imgs = _images(invert(l, d), d)
            phi = _oracle_phi(l, d)
            elements = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                        (0, 0, rng.randint(-3, 3), rng.randint(-3, 3)),
                        (0, rng.choice((-2, -1, 1, 2)), rng.randint(-3, 3), rng.randint(-3, 3)),
                        tuple(rng.randint(-2, 2) for _ in range(4))]
            for e in elements:
                g = pi1.from_exponents(*e, d)
                out = conjugate_deck(l, d, g)
                brute = [substitute(p, [substitute(q, inv_imgs)
                                        for q in _images(deck_lift(g, d), d)])
                         for p in _images(l, d)]
                assert _images(deck_lift(out, d), d) == brute
                want = phi.compose(to_affine(g, d)).compose(phi.inverse())
                assert to_affine(out, d) == want, e


def test_conjugate_deck_of_central_elements(rng, monkeypatch):
    # (0, y) goes to (0, |alpha|^2 y): against Phi deck(g) Phi^-1 as cover
    # maps for automorphisms, and against Phi deck(g) = deck(out) Phi for
    # endomorphisms (|alpha|^2 = 2, or 3 on the hexagonal base)
    for d, endo in ((D2, 1 + I), (DHEX, R3), (DT, RT.one() + RT.i())):
        for _ in range(5):
            l = rand_auto_lift(d, rng)
            e = SpecialLift(endo, l.beta, l.sigma10, l.v)
            central = [(0, 0, 1, 0), (0, 0, 0, 1)] + \
                [(0, 0, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
            for m in central:
                g = pi1.from_exponents(*m, d)
                phi = cover_map(l, d)
                want = phi.compose(to_affine(g, d)).compose(phi.inverse())
                assert to_affine(conjugate_deck(l, d, g), d) == want, m
                phi = cover_map(e, d)
                got = to_affine(conjugate_deck(e, d, g), d).compose(phi)
                assert got == phi.compose(to_affine(g, d)), m
    # the one ring multiply left is |alpha|^2 itself
    from kodaira.exactfield import NumberValue
    l = lifts.canonical_lift(DHEX)
    calls = []
    real_mul = NumberValue.__mul__
    monkeypatch.setattr(NumberValue, "__mul__", lambda x, y: calls.append(1) or real_mul(x, y))
    g = pi1.from_exponents(0, 0, 3, -2, DHEX)
    assert conjugate_deck(l, DHEX, g).exponents() == (0, 0, 3, -2)
    assert len(calls) == 1


def test_conjugate_deck_of_a_central_element_off_the_lattice():
    # |alpha|^2 = 1/2: (0, tau_E) would go to (0, tau_E / 2), outside the
    # fibre lattice, as the general sigma formula also finds
    l = SpecialLift((1 + I) * HALF, R.zero(), R.zero(), R.zero())
    g = pi1.from_exponents(0, 0, 1, 0, D2)
    with pytest.raises(lifts.LatticeViolation, match=r"sigma\(\(0, 0, 1, 0\)\) = 1/2\*i is not"):
        conjugate_deck(l, D2, g)
    with pytest.raises(lifts.LatticeViolation, match=r"sigma\(\(0, 0, 1, 0\)\) = 1/2\*i is not"):
        sigma_map(l, D2, g)
    assert conjugate_deck(l, D2, pi1.from_exponents(0, 0, 2, -4, D2)).exponents() == (0, 0, 1, -2)


def test_sigma_cocycle(rng):
    for d in (D1, DT):
        for _ in range(10):
            l = rand_auto_lift(d, rng)
            g1, g2 = rand_pi1(d, rng, 4), rand_pi1(d, rng, 4)
            corr = d_form(d.tau_b, l.alpha * pi1.values(g1, d)[0], d.tau_b.value) * \
                d_form(d.tau_b, l.alpha * pi1.values(g2, d)[0], d.ring.one()) * d.c
            assert sigma_map(l, d, pi1.star(g1, g2, d)) == \
                sigma_map(l, d, g1) + sigma_map(l, d, g2) + corr


def test_equal_mod_pi1(rng):
    for _ in range(6):
        l = rand_auto_lift(D2, rng)
        g = rand_pi1(D2, rng, 3)
        assert equal_mod_pi1(l, compose(deck_lift(g, D2), l, D2), D2)
    shifted = SpecialLift(R.one(), R.zero(), R.zero(), R.value(Fraction(1, 3)))
    assert not equal_mod_pi1(identity_lift(D2), shifted, D2)
    whole = SpecialLift(R.one(), R.zero(), R.zero(), R.one() + I)
    assert equal_mod_pi1(identity_lift(D2), whole, D2)


# --- finite order ---------------------------------------------------------


def test_unit_groups():
    assert unit_group_order(Tau(I)) == 4 and canonical_unit(Tau(I)) == I
    assert unit_group_order(DHEX.tau_b) == 6
    assert canonical_unit(DHEX.tau_b) == (RH.one() + R3) * HALF
    assert unit_group_order(Tau(2 * I)) == 2 and canonical_unit(Tau(2 * I)) == -R.one()


def test_order_four_lift_frozen():
    # beta = (omega - 1) epsilon / c with epsilon = delta - c tau_B / 2
    l = order_n_lift(D1, canonical_unit(D1.tau_b))
    assert l.alpha == I
    assert l.beta == R.value(Fraction(1, 6)) + I * Fraction(5, 6)
    assert l.sigma10 == R.zero()
    assert equal_mod_pi1(power(l, 4, D1), identity_lift(D1), D1)


def test_involution_lift_frozen():
    l = order_n_lift(D2I, canonical_unit(D2I.tau_b))
    assert (l.alpha, l.beta) == (-R.one(), 2 * I)
    assert (l.sigma10, l.v) == (R.zero(), R.zero())
    assert z_coefficient(l, D2I) == R.zero()


@pytest.mark.parametrize("d,n", [(D1, 4), (DHEX, 6), (D2I, 2)])
def test_order_n_is_exact(d, n):
    l = order_n_lift(d, canonical_unit(d.tau_b))
    ident = identity_lift(d)
    assert equal_mod_pi1(power(l, n, d), ident, d)
    for k in range(1, n):
        assert not equal_mod_pi1(power(l, k, d), ident, d)


@pytest.mark.parametrize("name", bundled_scene_names())
def test_order_n_lift_of_every_unit_power(name):
    # sigma(gamma_1) = sigma(gamma_2) = 0 and Phi^n = id on the nose
    d = parse_scene(bundled_scene(name)).data
    gamma1, gamma2 = pi1.generators(d)[:2]
    for omega in lattice_frame(d).unit_powers:
        l = order_n_lift(d, omega)
        assert l.sigma10 == d.ring.zero()
        for g in (gamma1, gamma2):
            assert conjugate_deck(l, d, g).exponents()[2:] == (0, 0)
        n = next(k for k in range(1, 7) if power(l, k, d).alpha == d.ring.one())
        assert power(l, n, d) == identity_lift(d)


def test_order_n_rejects_non_units():
    with pytest.raises(DomainError):
        order_n_lift(D1, 2 * I)


# --- semidirect splitting and the kernel ----------------------------------


def test_factor_semidirect_round_trip(rng):
    for d in (D1, DHEX, D2I):
        base = order_n_lift(d, canonical_unit(d.tau_b))
        n = unit_group_order(d.tau_b)
        for _ in range(15):
            l = rand_auto_lift(d, rng)
            n_part, e = factor_semidirect(l, d)
            assert n_part.alpha == d.ring.one()
            assert 0 <= e < n
            assert compose(n_part, power(base, e, d), d) == l


def test_factor_semidirect_rejects_foreign_alpha():
    l = SpecialLift(-RT.one(), RT.zero(), RT.zero(), RT.zero())
    d = KodairaData(Tau(T), Tau(T), RT.value(2), RT.value(0))
    assert unit_group_order(d.tau_b) == 2
    bad = SpecialLift(RT.i(), RT.zero(), RT.zero(), RT.zero())
    with pytest.raises(DomainError):
        factor_semidirect(bad, d)
    n_part, e = factor_semidirect(compose(l, l, d), d)
    assert e == 0 and n_part.alpha == RT.one()


def test_classify_kernel_cases():
    d = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
    assert isinstance(classify_kernel(SpecialLift(R.one(), I * HALF, R.zero(), R.zero()), D2),
                      NotInKerPsi)
    out = classify_kernel(SpecialLift(R.one(), R.zero(), R.zero(), R.value(HALF)), d)
    assert out == FibreTranslation(R.value(HALF))
    assert isinstance(classify_kernel(SpecialLift(R.one(), R.zero(), R.value(2), R.zero()), d),
                      GaugeWithHom)


def test_classify_kernel_reports_a_broken_invariant(monkeypatch):
    # a deck that fails to cancel the base translation
    monkeypatch.setattr(lifts, "deck_lift", lambda g, d: identity_lift(d))
    d = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
    with pytest.raises(DomainError, match="beta"):
        classify_kernel(SpecialLift(R.one(), I, R.zero(), R.zero()), d)


def test_nk_invariants_frozen():
    assert nk_invariants(KodairaData(Tau(I), Tau(I), R.one(), R.value(0))) == \
        AbelianInvariants(0, ())
    assert nk_invariants(KodairaData(Tau(RT.i()), Tau(T), RT.value(3), RT.value(0))) == \
        AbelianInvariants(2, (3, 3))
    assert nk_invariants(KodairaData(Tau(T), Tau(T), RT.value(3), RT.value(0))) == \
        AbelianInvariants(1, (3, 3))
