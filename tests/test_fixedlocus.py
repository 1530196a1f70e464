"""Fixed loci of surface automorphisms."""

from fractions import Fraction

import pytest

from kodaira import fixedlocus
from kodaira.exactfield import DomainError, NumberRing, SymbolDecl, Tau, divide, in_lattice
from kodaira.fixedlocus import (
    ALL,
    EMPTY,
    FIBRES,
    FixedLocus,
    NotABaseFixedPoint,
    base_fixed_points,
    fibre_is_fixed,
    fixed_locus,
)
from kodaira.lifts import (
    SpecialLift,
    canonical_unit,
    compose,
    deck_lift,
    identity_lift,
    order_n_lift,
)
from kodaira.pi1 import Pi1Element
from kodaira.surface import KodairaData

from conftest import gauge_lift, rand_auto_lift, rand_pi1

R = NumberRing()
I = R.i()
RH = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
R3 = RH.symbol("r3")
RT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.141592653589793)])
T = RT.symbol("t")
HALF = Fraction(1, 2)

D = KodairaData(Tau(I), Tau(I), R.one(), R.value(0))
DHEX = KodairaData(Tau((RH.one() + R3) * HALF), Tau(R3), R3, RH.value(0))
DT = KodairaData(Tau(RT.i()), Tau(T), RT.value(2), RT.value(0))

INVOLUTION = SpecialLift(-R.one(), R.zero(), R.one(), R.zero())


def _pts(*vals):
    return {R.value(v) for v in vals}


def test_involution_fixes_three_fibres():
    loc = fixed_locus(INVOLUTION, D)
    assert loc.kind == FIBRES
    assert set(loc.fibres) == _pts(0, I * HALF, (R.one() + I) * HALF)


def test_shifted_involution_is_free():
    l = SpecialLift(-R.one(), R.zero(), R.one(), R.value(Fraction(1, 3)))
    assert fixed_locus(l, D) == FixedLocus(EMPTY)


def test_involution_with_larger_gauge_part():
    # residuals at the four half-lattice points are 0, (1+i)/2, -1/2,
    # (1+i)/2: only the fibre over the origin survives
    l = SpecialLift(-R.one(), R.zero(), R.one() + I, R.zero())
    assert fixed_locus(l, D) == FixedLocus(FIBRES, (R.zero(),))


def test_gauge_lift_fixes_index_many_fibres():
    # sigma z + v lands in the fibre lattice on [sigma^{-1} L_E : L_B] cosets
    one = fixed_locus(SpecialLift(R.one(), R.zero(), R.one(), R.zero()), D)
    assert one == FixedLocus(FIBRES, (R.zero(),))
    two = fixed_locus(SpecialLift(R.one(), R.zero(), R.one() + I, R.zero()), D)
    assert set(two.fibres) == _pts(0, (R.one() + I) * HALF)


def test_gauge_fibre_count_is_the_lattice_index(rng):
    # [Lambda_E : sigma Lambda_B] = |sigma|^2 Im tau_B / Im tau_E, the ratio of
    # the covolumes, taken here from conjugates alone
    dw = KodairaData(Tau(I), Tau(I * 2), R.one(), R.value(0))
    seen = set()
    for d in (D, DHEX, dw):
        tb, te = d.tau_b, d.tau_e
        im_ratio = divide(tb.value - tb.conjugate(), te.value - te.conjugate())
        for _ in range(12):
            l = gauge_lift(d, rng)
            if not l.sigma10:
                continue
            index = l.sigma10 * l.sigma10.conjugate() * im_ratio
            assert index.is_rational() and index.rational().denominator == 1
            loc = fixed_locus(l, d)
            assert loc.kind == FIBRES
            assert len(loc.fibres) == index.rational()
            for z in loc.fibres:
                assert in_lattice(l.sigma10 * z + l.v, te)
            seen.add(len(loc.fibres))
    assert len(seen) > 2, seen


def test_fibre_translations():
    for v, kind in [(Fraction(1, 2), EMPTY), (Fraction(1, 3), EMPTY),
                    (Fraction(1, 5), EMPTY)]:
        l = SpecialLift(R.one(), R.zero(), R.zero(), R.value(v))
        assert fixed_locus(l, D).kind == kind
    lattice_shift = SpecialLift(R.one(), R.zero(), R.zero(), R.one() + I)
    assert fixed_locus(lattice_shift, D) == FixedLocus(ALL)
    assert fixed_locus(identity_lift(D), D) == FixedLocus(ALL)


def test_base_translation_is_free():
    l = SpecialLift(R.one(), I * HALF, R.zero(), R.zero())
    d = KodairaData(Tau(I), Tau(I), R.value(2), R.value(0))
    assert fixed_locus(l, d) == FixedLocus(EMPTY)
    assert base_fixed_points(l, d) == []


@pytest.mark.parametrize("d, unit_order, count", [
    (D, 4, 2),       # 1 - i has norm 2
    (DHEX, 6, 1),    # 1 - w6 has norm 1
])
def test_base_fixed_point_counts(d, unit_order, count):
    u = canonical_unit(d.tau_b)
    l = order_n_lift(d, u)
    pts = base_fixed_points(l, d)
    assert len(pts) == count
    w = d.ring.one() - l.alpha
    assert (w * w.conjugate()).rational() == count
    for z in pts:
        assert fibre_is_fixed(l, d, z) in (True, False)


def test_involution_has_four_base_fixed_points():
    pts = base_fixed_points(INVOLUTION, D)
    assert set(pts) == _pts(0, HALF, I * HALF, (R.one() + I) * HALF)


def test_fibre_is_fixed_rejects_moving_points():
    with pytest.raises(NotABaseFixedPoint):
        fibre_is_fixed(INVOLUTION, D, Fraction(1, 3))


def test_transcendental_involution_fixes_all_four_fibres():
    l = SpecialLift(-RT.one(), RT.zero(), RT.value(2), RT.zero())
    loc = fixed_locus(l, DT)
    assert loc.kind == FIBRES
    half = RT.value(HALF)
    assert set(loc.fibres) == {RT.zero(), half, RT.i() * half,
                               (RT.one() + RT.i()) * half}


def test_transcendental_fibre_translation():
    free = SpecialLift(RT.one(), RT.zero(), RT.zero(), T * HALF)
    assert fixed_locus(free, DT) == FixedLocus(EMPTY)
    deck = SpecialLift(RT.one(), RT.zero(), RT.zero(), T)
    assert fixed_locus(deck, DT) == FixedLocus(ALL)


def test_locus_only_depends_on_the_surface_map(rng):
    for d in (D, DHEX):
        for _ in range(6):
            l = rand_auto_lift(d, rng)
            ref = fixed_locus(l, d)
            g = deck_lift(rand_pi1(d, rng, 2), d)
            for other in (compose(g, l, d), compose(l, g, d)):
                got = fixed_locus(other, d)
                assert got.kind == ref.kind
                assert set(got.fibres) == set(ref.fibres)


def test_locus_rejects_non_automorphism():
    scaling = SpecialLift(R.one() + I, R.zero(), R.zero(), R.zero())
    with pytest.raises(DomainError):
        fixed_locus(scaling, D)
    bad = SpecialLift(R.one(), R.value(Fraction(1, 7)), R.zero(), R.zero())
    with pytest.raises(DomainError):
        fixed_locus(bad, D)


def test_fixed_locus_validation():
    with pytest.raises(ValueError):
        FixedLocus("bogus")
    with pytest.raises(ValueError):
        FixedLocus(FIBRES)
    with pytest.raises(ValueError):
        FixedLocus(ALL, (R.zero(),))
    with pytest.raises(ValueError):
        FixedLocus(FIBRES, (R.zero(), R.zero()))


def test_coset_values_report_a_non_unimodular_transform(monkeypatch):
    monkeypatch.setattr(fixedlocus, "smith_normal_form",
                        lambda p: ([[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 1]]))
    with pytest.raises(DomainError, match="determinant 2"):
        base_fixed_points(order_n_lift(D, canonical_unit(D.tau_b)), D)
