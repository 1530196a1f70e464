"""The fundamental group (Lambda_{tau_B} x Lambda_{tau_E}, star).

An element is a pair (x, y) of lattice points, stored as its four exponents
(values gives x and y).  The group law twists the fibre part by the skew form:

    (x, y) * (x', y') = (x + x', y + y' + D(x, tau_B) D(x', 1) c)

which is exactly how the four affine deck generators compose on the universal
cover.  Since D takes integer values on the lattice and c is a lattice point,
the group law is integer arithmetic on exponents.

CoverMap is the one type for the maps of C^2 that deck transformations and
lifts of surface maps both are; to_affine gives the deck of an element as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactfield import NotInvertible, NumberValue, cokernel_invariants
from .surface import lattice_frame


@dataclass(frozen=True)
class Pi1Element:
    """gamma_1^m1 gamma_2^m2 gamma_3^m3 gamma_4^m4: (x, y) with x = m1*tau_B
    + m2 in Lambda_{tau_B} and y = m3*tau_E + m4 in Lambda_{tau_E}."""

    m1: int
    m2: int
    m3: int
    m4: int

    def exponents(self):
        """The quadruple (m1, m2, m3, m4)."""
        return self.m1, self.m2, self.m3, self.m4


@dataclass(frozen=True)
class CoverMap:
    """(z, zeta) -> (a z + b, e zeta + q2 z^2 + q1 z + q0).

    Deck transformations and lifts of surface maps are all of this shape,
    and their group law is composition of such maps.  e is rational across
    the family (1 for decks, |alpha|^2 for lifts), so it is a Fraction."""

    a: NumberValue
    b: NumberValue
    e: Fraction
    q2: NumberValue
    q1: NumberValue
    q0: NumberValue

    def compose(self, other):
        """self after other."""
        a, e, q2, q1 = self.a, self.e, self.q2, self.q1
        a2, b2 = other.a, other.b
        return CoverMap(
            a * a2,
            a * b2 + self.b,
            e * other.e,
            other.q2 * e + q2 * a2 * a2,
            other.q1 * e + (q2 * 2 * b2 + q1) * a2,
            other.q0 * e + (q2 * b2 + q1) * b2 + self.q0,
        )

    def inverse(self):
        """The inverse map; only maps with |a| = 1 and e = 1 invert in the
        family."""
        a = self.a
        if self.e != 1 or a * a.conjugate() != 1:
            raise NotInvertible(f"|a|^2 = {a * a.conjugate()} and e = {self.e}: "
                                "only |a| = 1 and e = 1 invert within the family")
        ab = a.conjugate()
        nb = -(ab * self.b)  # z = ab Z + nb
        q2, q1 = self.q2, self.q1
        return CoverMap(ab, nb, self.e, -(q2 * ab * ab), -((q2 * 2 * nb + q1) * ab),
                        -((q2 * nb + q1) * nb + self.q0))


def from_exponents(m1, m2, m3, m4, d):
    """The element gamma_1^m1 gamma_2^m2 gamma_3^m3 gamma_4^m4.

    d is not stored: an element is its exponents on every surface, and the
    surface enters only where c or tau is read (star, inverse, values,
    to_affine).  The argument keeps the call the same as theirs."""
    return Pi1Element(m1, m2, m3, m4)


_GENERATORS = (Pi1Element(1, 0, 0, 0), Pi1Element(0, 1, 0, 0),
               Pi1Element(0, 0, 1, 0), Pi1Element(0, 0, 0, 1))


def generators(d):
    """(tau_B, 0), (1, 0), (0, tau_E), (0, 1): the classes of gamma_1..gamma_4."""
    return _GENERATORS


def values(g, d):
    """The ring values (x, y) = (m1 tau_B + m2, m3 tau_E + m4) of g on d."""
    return d.tau_b.value * g.m1 + g.m2, d.tau_e.value * g.m3 + g.m4


def star(g1, g2, d):
    """The group law.  D(x, tau_B) = -m2 and D(x', 1) = m1' on exponents, so
    the fibre correction is -m2 * m1' copies of c."""
    ca, cb = lattice_frame(d).c_coords
    n = -g1.m2 * g2.m1
    return Pi1Element(g1.m1 + g2.m1, g1.m2 + g2.m2,
                      g1.m3 + g2.m3 + n * ca, g1.m4 + g2.m4 + n * cb)


def inverse(g, d):
    """(-x, -y + D(x, tau_B) D(x, 1) c)."""
    ca, cb = lattice_frame(d).c_coords
    n = -g.m2 * g.m1
    return Pi1Element(-g.m1, -g.m2, -g.m3 + n * ca, -g.m4 + n * cb)


def is_central(g):
    """The center is exactly the fibre factor x = 0."""
    return g.m1 == 0 and g.m2 == 0


def to_affine(g, d):
    """The deck transformation realizing g on the universal cover:

    (z, zeta) -> (z + x, zeta + D(x,1) c z
                          + y + D(x,1)(delta - tau_B c / 2 - D(x,tau_B) c / 2 + c x / 2))
    """
    a, b = g.m1, g.m2  # D(x, 1) = a, D(x, tau_B) = -b
    x, y = values(g, d)
    f = lattice_frame(d)  # epsilon = delta - tau_B c / 2
    extra = f.epsilon + f.half_c * b + f.half_c * x
    return CoverMap(d.ring.one(), x, Fraction(1), d.ring.zero(), d.c * a, y + extra * a)


def abelianization_invariants(d):
    """Invariants of H_1 = Z^4 / (commutator relations).

    The only relation is the commutator (0, c), so the quotient is
    Z^3 + Z/m with m the torsion coefficient; torsion is omitted when m = 1.
    """
    ca, cb = lattice_frame(d).c_coords
    free, torsion = cokernel_invariants([[0], [0], [ca], [cb]], 4)
    return free, torsion
