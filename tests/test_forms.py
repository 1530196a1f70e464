"""Exterior calculus, invariant generators, and the cohomology action."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest

from kodaira import forms
from kodaira.exactfield import DomainError, NumberRing, NumberValue, SymbolDecl, Tau, divide
from kodaira.forms import (
    BASIS_LABELS,
    BLOCK_ORDER,
    EXACT_LABELS,
    BasisExpressionFailure,
    DolbeaultAction,
    NonConstantRho,
    acts_trivially_on_cohomology,
    conjugate_form,
    constant,
    dbar,
    differential,
    dolbeault_action,
    exterior_d,
    form_zero,
    holomorphic_generators,
    im_value,
    is_symplectic,
    lefschetz,
    map_images,
    pullback,
    rho,
    substitute,
    trace_det,
    variable,
    verify_invariant_generators,
    wedge,
)
from kodaira.lifts import (
    MapClass,
    SpecialLift,
    canonical_lift,
    canonical_unit,
    compose,
    cover_map,
    deck_lift,
    descent_check,
    identity_lift,
    order_n_lift,
    z_coefficient,
)
from kodaira.pi1 import CoverMap
from kodaira.scene import bundled_scene, bundled_scene_names, parse_scene
from kodaira.surface import KodairaData

from conftest import rand_auto_lift, rand_pi1, rand_value

R = NumberRing()
I = R.i()
RH = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
R3 = RH.symbol("r3")
RT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.141592653589793)])
T = RT.symbol("t")
HALF = Fraction(1, 2)

D2 = KodairaData(Tau(I), Tau(I), R.value(2), R.value(Fraction(1, 5)))
D1 = KodairaData(Tau(I), Tau(I), R.one(), R.value(Fraction(1, 3)))
DHEX = KodairaData(Tau((RH.one() + R3) * HALF), Tau(R3), R3, RH.value(0))
DT = KodairaData(Tau(RT.i()), Tau(T), RT.value(2), RT.value(0))


# --- calculus laws --------------------------------------------------------


def _rand_form(ring, rng, degree_vars=2):
    out = form_zero(ring)
    for _ in range(rng.randint(1, 3)):
        piece = constant(ring, ring.value(Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
        for _ in range(rng.randint(0, degree_vars)):
            piece = wedge(piece, variable(ring, rng.randint(0, 3)))
        if rng.random() < 0.7:
            piece = wedge(piece, differential(ring, rng.randint(0, 3)))
        out = out + piece
    return out


def test_d_squared_is_zero():
    rng = random.Random(11)
    for _ in range(25):
        a = _rand_form(R, rng)
        assert not exterior_d(exterior_d(a))
        assert not dbar(dbar(a))


def test_conjugation_is_an_involution_commuting_with_d():
    rng = random.Random(12)
    for _ in range(25):
        a = _rand_form(RH, rng)
        assert conjugate_form(conjugate_form(a)) == a
        assert conjugate_form(exterior_d(a)) == exterior_d(conjugate_form(a))


def test_leibniz_rule_homogeneous():
    rng = random.Random(14)
    z = variable(R, 0)
    dz = differential(R, 0)
    dzb = differential(R, 1)
    f = wedge(z, dz)          # degree 1
    g = wedge(z, wedge(z, dzb))  # degree 1
    assert exterior_d(wedge(f, g)) == \
        wedge(exterior_d(f), g) - wedge(f, exterior_d(g))
    h = wedge(dz, dzb)        # degree 2
    assert exterior_d(wedge(h, g)) == \
        wedge(exterior_d(h), g) + wedge(h, exterior_d(g))


def test_antisymmetry_and_squares():
    dz, dzb = differential(R, 0), differential(R, 1)
    assert wedge(dz, dzb) == -wedge(dzb, dz)
    assert not wedge(dz, dz)


def test_substitute_identity_and_composition():
    rng = random.Random(15)
    idents = [variable(R, k) for k in range(4)]
    for _ in range(10):
        a = _rand_form(R, rng)
        assert substitute(a, idents) == a


def _substitute_term_by_term(a, images):
    """The pullback built afresh for every term: the coefficient as a
    constant, wedged with one image per variable power and one image
    differential per letter of the word."""
    ring = a.ring
    out = form_zero(ring)
    for (exps, word), v in a.terms.items():
        term = constant(ring, v)
        for k, e in enumerate(exps):
            for _ in range(e):
                term = wedge(term, images[k])
        for k in word:
            term = wedge(term, exterior_d(images[k]))
        out = out + term
    return out


def test_memo_substitution_matches_term_by_term():
    rng = random.Random(16)
    for ring in (R, RH, RT):
        idents = [variable(ring, k) for k in range(4)]
        for _ in range(4):
            f = CoverMap(rand_value(ring, rng), rand_value(ring, rng),
                         Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                         rand_value(ring, rng), rand_value(ring, rng), rand_value(ring, rng))
            images = map_images(f, ring)
            memo, ident_memo = {}, {}
            for j in range(10):
                # every other form a product, so words of two and more letters
                a = _rand_form(ring, rng)
                if j % 2:
                    a = wedge(a, _rand_form(ring, rng, degree_vars=1))
                assert substitute(a, images, memo=memo) == _substitute_term_by_term(a, images)
                assert substitute(a, idents, memo=ident_memo) == a
                assert substitute(a, idents) == a
            one = constant(ring, 1)
            assert substitute(one, images, memo=memo) == one


# --- invariant generators -------------------------------------------------


@pytest.mark.parametrize("d", [D2, DHEX, DT], ids=["square", "hex", "transcendental"])
def test_invariant_generator_identities(d):
    results = verify_invariant_generators(d)
    assert len(results) == 96
    failed = [r.name for r in results if not r.ok]
    assert failed == []


def test_verify_op_counts(monkeypatch):
    # a count, not a time: the term-by-term engine made 270 wedge calls and
    # 920 ring multiplies in this call; allow at most about half of each
    d = parse_scene(bundled_scene("order4")).data
    counts = {"wedge": 0, "mul": 0}
    wedge_, mul_ = forms.wedge, NumberValue.__mul__

    def counting_wedge(a, b):
        counts["wedge"] += 1
        return wedge_(a, b)

    def counting_mul(x, y):
        counts["mul"] += 1
        return mul_(x, y)

    monkeypatch.setattr(forms, "wedge", counting_wedge)
    monkeypatch.setattr(NumberValue, "__mul__", counting_mul)
    assert all(r.ok for r in verify_invariant_generators(d))
    assert counts["wedge"] <= 135 and counts["mul"] <= 453, counts


@pytest.mark.parametrize("d", [D2, DHEX, DT], ids=["square", "hex", "transcendental"])
def test_verify_reports_broken_generators(monkeypatch, d):
    # e3 gains y dx and phi2 gets 2k in place of k: phi2' = 2 phi2 - dzeta
    ring = d.ring
    y, dx, dy = variable(ring, 1), differential(ring, 0), differential(ring, 1)
    real, hol = forms.real_generators, forms.holomorphic_generators

    def bad_real(d):
        out = real(d)
        out["e3"] = out["e3"] + wedge(y, dx)
        return out

    def bad_hol(d):
        out = hol(d)
        out["phi2"] = out["phi2"] * 2 - differential(d.ring, 2)
        return out

    monkeypatch.setattr(forms, "real_generators", bad_real)
    monkeypatch.setattr(forms, "holomorphic_generators", bad_hol)
    results = verify_invariant_generators(d)
    assert len(results) == 96
    # got - want of each failing check, in closed form: gamma1 moves z by tau_B
    # and y by Im tau_B, k (conj tau_B - tau_B) = -c, and (i/2)(c / Im tau_B)
    # is the coefficient of dbar phi2 on dz^dzbar
    imt = im_value(d.tau_b.value, ring)
    c_over_imt = divide(d.c, imt)
    dz, dzb = differential(ring, 0), differential(ring, 1)
    want = {
        "gamma1* phi2 = phi2": (dz * -d.c, forms.COMPLEX_NAMES),
        "dbar phi2 = (i/2)(c/Im tau_B) phi1^phibar1":
            (wedge(dz, dzb) * (ring.i() * HALF * c_over_imt), forms.COMPLEX_NAMES),
        "gamma1* e3 = e3": (dx * imt, forms.REAL_NAMES),
        "d e3 = (Re c/Im tau_B) e1^e2": (-wedge(dx, dy), forms.REAL_NAMES),
        "phi2 = e3 + i e4 under z = x + iy":
            (wedge(y, dx + dy * ring.i()) * -c_over_imt - wedge(y, dx), forms.REAL_NAMES),
    }
    failed = {r.name: r.residual for r in results if not r.ok}
    assert list(failed) == list(want)
    for name, (form, names) in want.items():
        assert failed[name] == forms.format_form(form, names), name
    assert all(r.residual == "" for r in results if r.ok)


def test_dbar_phi2_value():
    # dbar phi2 = (i/2)(c / Im tau_B) phi1 wedge conj(phi1)
    gens = holomorphic_generators(D2)
    k = divide(D2.c, im_value(D2.tau_b.value, R)) * HALF
    expected = wedge(gens["phi1"], gens["phibar1"]) * (I * k)
    assert dbar(gens["phi2"]) == expected
    assert exterior_d(gens["phi2"]) == expected
    assert not exterior_d(gens["phi1"])


# --- pullback and rho -----------------------------------------------------


def test_rho_frozen_values():
    l = SpecialLift(R.one(), I * HALF, R.zero(), R.zero())
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    assert rho(l, d) == -R.one()
    assert rho(identity_lift(d), d) == R.zero()
    assert rho(SpecialLift(R.one(), R.zero(), I, R.zero()), d) == I


def test_rho_vanishes_on_decks(rng):
    for d in (D2, DHEX):
        for _ in range(8):
            l = deck_lift(rand_pi1(d, rng, 3), d)
            assert rho(l, d) == d.ring.zero()


def test_pullback_of_phi2_is_rho_shear(rng):
    for d in (D2, DHEX, DT):
        gens = holomorphic_generators(d)
        for _ in range(8):
            l = rand_auto_lift(d, rng)
            r = rho(l, d)
            assert pullback(gens["phi2"], cover_map(l, d)) == gens["phi1"] * r + gens["phi2"]
            assert pullback(gens["phi1"], cover_map(l, d)) == gens["phi1"] * l.alpha


def test_rho_formula_for_base_translations(rng):
    from conftest import translation_lift
    for d in (D2, DT):
        for _ in range(8):
            l = translation_lift(d, rng)
            expected = z_coefficient(l, d) - d.c * divide(
                im_value(l.beta, d.ring), im_value(d.tau_b.value, d.ring))
            assert rho(l, d) == expected


def test_rho_rejects_endomorphism_scaling():
    l = SpecialLift(R.one() + I, R.zero(), R.zero(), R.zero())
    with pytest.raises(DomainError):
        rho(l, KodairaData(Tau(I), Tau(I), R.one(), R.value(0)))


# --- the Dolbeault action -------------------------------------------------


def _expected(ring, al, rh):
    one, zero = ring.one(), ring.zero()
    alb, rhb = al.conjugate(), rh.conjugate()
    return {
        (0, 0): ((one,),),
        (1, 0): ((al,),),
        (0, 1): ((alb, zero), (rhb, one)),
        (2, 0): ((al,),),
        (1, 1): ((al, zero), (zero, alb)),
        (0, 2): ((alb,),),
        (2, 1): ((one, zero), (al * rhb, al)),
        (1, 2): ((alb,),),
        (2, 2): ((one,),),
    }


def test_action_table_for_the_order_four_lift():
    l = order_n_lift(D1, canonical_unit(D1.tau_b))
    act = dolbeault_action(l, D1)
    assert act.blocks == _expected(R, l.alpha, rho(l, D1))


def test_mixed_degree_entry_conjugates_rho():
    # a lift with nonreal rho separates the conventions: both shear entries
    # must carry conj(rho), the (2,1) one multiplied by alpha
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    l = SpecialLift(R.one(), R.zero(), I, R.zero())
    assert rho(l, d) == I
    act = dolbeault_action(l, d)
    assert act.blocks[(0, 1)][1] == (-I, R.one())
    assert act.blocks[(2, 1)][1] == (-I, R.one())


def test_action_matches_table_for_random_lifts(rng):
    for d in (D2, DHEX, DT):
        for _ in range(6):
            l = rand_auto_lift(d, rng)
            act = dolbeault_action(l, d)
            assert act.blocks == _expected(d.ring, l.alpha, rho(l, d))


def test_action_is_functorial(rng):
    d = DHEX
    l1, l2 = rand_auto_lift(d, rng), rand_auto_lift(d, rng)
    a1 = dolbeault_action(l1, d).blocks
    a2 = dolbeault_action(l2, d).blocks
    both = dolbeault_action(compose(l1, l2, d), d).blocks
    for pq, m1 in a1.items():
        m2 = a2[pq]
        n = len(m1)
        prod = tuple(
            tuple(sum((m1[r][k] * m2[k][s] for k in range(n)), d.ring.zero())
                  for s in range(n))
            for r in range(n))
        assert both[pq] == prod


def test_traces_dets_and_lefschetz(rng):
    for d in (D1, DHEX):
        for _ in range(5):
            l = rand_auto_lift(d, rng)
            act = dolbeault_action(l, d)
            td = trace_det(act)
            al = l.alpha
            assert td[(1, 0)] == (al, al)
            assert td[(0, 1)][0] == al.conjugate() + d.ring.one()
            assert td["total"][0] == (d.ring.one() + al + al.conjugate()) * 4
            assert td["total"][1] == d.ring.one()
            assert lefschetz(act) == d.ring.zero()


def test_symplectic_and_trivial_flags():
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    good = SpecialLift(R.one(), I * HALF, R.one(), R.zero())
    assert is_symplectic(good)
    assert acts_trivially_on_cohomology(good, d)
    assert dolbeault_action(good, d).blocks == _expected(R, R.one(), R.zero())
    shear = SpecialLift(R.one(), I * HALF, R.zero(), R.zero())
    assert is_symplectic(shear)
    assert not acts_trivially_on_cohomology(shear, d)
    rot = order_n_lift(D1, canonical_unit(D1.tau_b))
    assert not is_symplectic(rot)


def test_trivial_action_biconditional_examples():
    from kodaira.exactfield import in_lattice
    from kodaira.surface import torsion_coefficient
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    m = torsion_coefficient(d).m
    cases = [
        SpecialLift(R.one(), I * HALF, R.one(), R.zero()),
        SpecialLift(R.one(), R.value(HALF), R.zero(), R.value(Fraction(1, 5))),
        SpecialLift(R.one(), (R.one() + I) * HALF, R.one(), R.zero()),
        SpecialLift(R.one(), I * HALF, R.zero(), R.zero()),
        SpecialLift(R.one(), R.zero(), R.one() + I, R.zero()),
    ]
    ident = _expected(R, R.one(), R.zero())
    for l in cases:
        lhs = dolbeault_action(l, d).blocks == ident
        rhs = (z_coefficient(l, d) == d.c * divide(im_value(l.beta, R),
                                                   im_value(d.tau_b.value, R))
               and in_lattice(l.beta * m, d.tau_b))
        assert lhs == rhs
    assert sum(dolbeault_action(l, d).blocks == ident for l in cases) == 3


# --- the closed form against direct substitution -------------------------


def _product(label, one_forms, ring):
    """The wedge product of the 1-forms the label names ("1" is the
    constant 0-form)."""
    if label == "1":
        return constant(ring, 1)
    return reduce(wedge, (one_forms[name] for name in label.split("^")))


def _direct_action(l, d):
    """Check the action against every basis form pulled back by its own
    substitution: the pullback less the row's combination of basis forms
    must be a constant combination of the exact forms of its bidegree."""
    ring = d.ring
    gens = holomorphic_generators(d)
    images = map_images(cover_map(l, d), ring)
    act = dolbeault_action(l, d)
    for pq in BLOCK_ORDER:
        basis = [_product(label, gens, ring) for label in BASIS_LABELS[pq]]
        for form, row in zip(basis, act.blocks[pq]):
            rest = substitute(form, images)
            for b, a in zip(basis, row):
                rest = rest - b * a
            for label in EXACT_LABELS.get(pq, ()):
                # each exact form has a constant term that no other has
                exact = _product(label, gens, ring)
                key = next(k for k in sorted(exact.terms) if k[0] == forms.ZERO_EXPS)
                rest = rest - exact * divide(rest.coeff_at(*key), exact.terms[key])
            assert not rest, (pq, row)


def test_naturality_matches_direct_substitution(rng):
    for d in (D2, DHEX, DT):
        gens = holomorphic_generators(d)
        for _ in range(4):
            l = rand_auto_lift(d, rng)
            images = map_images(cover_map(l, d), d.ring)
            pulled = {name: substitute(form, images) for name, form in gens.items()}
            for labels in list(BASIS_LABELS.values()) + list(EXACT_LABELS.values()):
                for label in labels:
                    direct = substitute(_product(label, gens, d.ring), images)
                    assert _product(label, pulled, d.ring) == direct, label
            _direct_action(l, d)


@pytest.mark.parametrize("name", bundled_scene_names())
def test_scene_lifts_match_direct_substitution(name):
    # every automorphism lift a bundled scene names, and the canonical
    # order-n lift of its surface
    scene = parse_scene(bundled_scene(name))
    d = scene.data
    autos = [l for l in scene.lifts.values() if descent_check(l, d) == MapClass.AUTOMORPHISM]
    for l in autos + [canonical_lift(d)]:
        _direct_action(l, d)


def test_rotated_sheared_lifts_match_direct_substitution(rng):
    # alpha != 1 and rho != 0, so every off-diagonal entry of the letter
    # matrices and both exact words come into play
    for d in (D2, DHEX, DT):
        found = 0
        while found < 10:
            l = rand_auto_lift(d, rng)
            if l.alpha == d.ring.one() or not rho(l, d):
                continue
            _direct_action(l, d)
            found += 1


def test_trace_det_and_lefschetz_of_a_full_matrix():
    # every automorphism block is lower triangular, so only a hand-built
    # action shows the m01 * m10 term of each 2x2 determinant
    v = R.value
    blocks = {
        (0, 0): ((v(2),),),
        (1, 0): ((v(3),),),
        (0, 1): ((v(1), v(2)), (v(3), v(4))),
        (2, 0): ((v(5),),),
        (1, 1): ((1 + I, v(2)), (I, v(3))),
        (0, 2): ((v(7),),),
        (2, 1): ((v(2), v(-1)), (v(1), v(1))),
        (1, 2): ((v(-2),),),
        (2, 2): ((v(11),),),
    }
    act = DolbeaultAction(blocks)
    td = trace_det(act)
    assert td[(0, 1)] == (v(5), v(-2))
    assert td[(1, 1)] == (4 + I, 3 + I)
    assert td[(2, 1)] == (v(3), v(3))
    for pq in ((0, 0), (1, 0), (2, 0), (0, 2), (1, 2), (2, 2)):
        assert td[pq] == (blocks[pq][0][0], blocks[pq][0][0])
    assert td["total"] == (38 + I, 83160 + 27720 * I)
    # + H00 - H10 - H01 + H20 + H11 + H02 - H21 - H12 + H22
    assert lefschetz(act) == 20 + I


def test_exterior_powers_of_a_full_letter_matrix():
    m = {(0, 0): 1 + I, (0, 1): R.value(2), (1, 0): I, (1, 1): R.value(3)}
    got = forms._exterior_powers(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    assert got == {(): {(): R.one()},
                   (0,): {(0,): m[0, 0], (1,): m[0, 1]},
                   (1,): {(0,): m[1, 0], (1,): m[1, 1]},
                   (0, 1): {(0, 1): 3 + I}}
    # a zero entry is dropped, not kept as a zero coefficient
    zero = forms._exterior_powers(I, R.zero(), R.one(), R.one())
    assert zero[(0,)] == {(0,): I} and zero[(0, 1)] == {(0, 1): I}


def test_answers_need_no_pullback(monkeypatch, rng):
    cases = []
    for d in (D2, DHEX, DT):
        for _ in range(4):
            l = rand_auto_lift(d, rng)
            cases.append((l, d, rho(l, d), dolbeault_action(l, d).blocks))

    def refuse(*args, **kwargs):
        raise AssertionError("pullback by substitution")

    monkeypatch.setattr(forms, "substitute", refuse)
    monkeypatch.setattr(forms, "wedge", refuse)
    for l, d, r, blocks in cases:
        assert rho(l, d) == r
        assert dolbeault_action(l, d).blocks == blocks


def test_nonconstant_rho_when_q2_is_off(monkeypatch):
    l = SpecialLift(R.one(), I * HALF, R.zero(), R.zero())
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    assert rho(l, d) == -R.one()
    real = forms.cover_map
    monkeypatch.setattr(forms, "cover_map",
                        lambda l, d: replace(real(l, d), q2=real(l, d).q2 + I))
    with pytest.raises(NonConstantRho, match="z dz: rho is not constant"):
        rho(l, d)
    with pytest.raises(NonConstantRho):
        dolbeault_action(l, d)


def test_words_outside_the_span_are_a_basis_expression_failure(monkeypatch):
    # without the exact word phi1^phibar1, f* (phi1^phibar2) = alpha conj(rho)
    # phi1^phibar1 + alpha phi1^phibar2 leaves the span of H^{1,1}
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    l = SpecialLift(R.one(), I * HALF, R.zero(), R.zero())
    monkeypatch.setattr(forms, "EXACT_LABELS", {})
    with pytest.raises(BasisExpressionFailure, match=r"f\* phi1\^phibar2 has terms in phi1\^phibar1"):
        dolbeault_action(l, d)


def test_surface_tables_are_kept_apart():
    # equal up to c: phi2, hence rho and the shear entries, depend on c
    l = SpecialLift(R.one(), I * HALF, R.zero(), R.zero())
    surfaces = [KodairaData(Tau(I), Tau(I), R.value(c), R.value(0)) for c in (2, 4)]
    cold = []
    for d in surfaces:
        assert descent_check(l, d) == MapClass.AUTOMORPHISM
        cold.append((rho(l, d), dolbeault_action(l, d).blocks))
    assert cold[0][0] == -R.one() and cold[1][0] == -2 * R.one()
    for d, want in list(zip(surfaces, cold)) * 2:
        assert (rho(l, d), dolbeault_action(l, d).blocks) == want


def test_a_scene_parsed_twice_gives_equal_answers():
    doc = bundled_scene("order6")
    first, second = parse_scene(doc), parse_scene(doc)
    assert first.data == second.data and first.data.ring is not second.data.ring
    for name in first.lifts:
        answers = [(rho(s.lifts[name], s.data), dolbeault_action(s.lifts[name], s.data).blocks)
                   for s in (first, second)]
        assert answers[0] == answers[1]
