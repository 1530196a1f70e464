"""The fundamental group (Lambda_{tau_B} x Lambda_{tau_E}, star).

Elements are pairs of lattice points.  The group law twists the fibre part by
the skew form:

    (x, y) * (x', y') = (x + x', y + y' + D(x, tau_B) D(x', 1) c)

which is exactly how the four affine deck generators compose on the universal
cover.  Since D takes integer values on the lattice and c is a lattice point,
everything here is integer arithmetic on coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactfield import LatticeElement, NumberValue, cokernel_invariants
from .surface import lattice_frame


@dataclass(frozen=True)
class Pi1Element:
    """(x, y) with x in Lambda_{tau_B} and y in Lambda_{tau_E}."""

    x: LatticeElement
    y: LatticeElement

    def exponents(self):
        """The quadruple (m1, m2, m3, m4) with x = m1*tau_B + m2 and
        y = m3*tau_E + m4."""
        return self.x.a, self.x.b, self.y.a, self.y.b


@dataclass(frozen=True)
class AffineDeck:
    """(z, zeta) -> (z + shift_z, zeta + lin_z * z + shift_zeta)."""

    shift_z: NumberValue
    lin_z: NumberValue
    shift_zeta: NumberValue

    def compose(self, other):
        """self after other, as affine maps of C^2."""
        return AffineDeck(
            self.shift_z + other.shift_z,
            self.lin_z + other.lin_z,
            other.shift_zeta + self.lin_z * other.shift_z + self.shift_zeta,
        )


def from_exponents(m1, m2, m3, m4, d):
    """The element gamma_1^m1 gamma_2^m2 gamma_3^m3 gamma_4^m4."""
    return Pi1Element(LatticeElement(m1, m2, d.tau_b), LatticeElement(m3, m4, d.tau_e))


def generators(d):
    """(tau_B, 0), (1, 0), (0, tau_E), (0, 1): the classes of gamma_1..gamma_4."""
    return (
        from_exponents(1, 0, 0, 0, d),
        from_exponents(0, 1, 0, 0, d),
        from_exponents(0, 0, 1, 0, d),
        from_exponents(0, 0, 0, 1, d),
    )


def star(g1, g2, d):
    """The group law.  D(x, tau_B) = -b and D(x', 1) = a' on coordinates, so
    the fibre correction is -b1 * a2 copies of c."""
    ca, cb = lattice_frame(d).c_coords
    n = -g1.x.b * g2.x.a
    return Pi1Element(
        LatticeElement(g1.x.a + g2.x.a, g1.x.b + g2.x.b, d.tau_b),
        LatticeElement(g1.y.a + g2.y.a + n * ca, g1.y.b + g2.y.b + n * cb, d.tau_e),
    )


def inverse(g, d):
    """(-x, -y + D(x, tau_B) D(x, 1) c)."""
    ca, cb = lattice_frame(d).c_coords
    n = -g.x.b * g.x.a
    return Pi1Element(
        LatticeElement(-g.x.a, -g.x.b, d.tau_b),
        LatticeElement(-g.y.a + n * ca, -g.y.b + n * cb, d.tau_e),
    )


def is_central(g):
    """The center is exactly the fibre factor x = 0."""
    return g.x.a == 0 and g.x.b == 0


def to_affine(g, d):
    """The deck transformation realizing g on the universal cover:

    (z, zeta) -> (z + x, zeta + D(x,1) c z
                          + y + D(x,1)(delta - tau_B c / 2 - D(x,tau_B) c / 2 + c x / 2))
    """
    a, b = g.x.a, g.x.b  # D(x, 1) = a, D(x, tau_B) = -b
    x = g.x.value()
    f = lattice_frame(d)  # epsilon = delta - tau_B c / 2
    extra = f.epsilon + f.half_c * b + f.half_c * x
    return AffineDeck(x, d.c * a, g.y.value() + extra * a)


def abelianization_invariants(d):
    """Invariants of H_1 = Z^4 / (commutator relations).

    The only relation is the commutator (0, c), so the quotient is
    Z^3 + Z/m with m the torsion coefficient; torsion is omitted when m = 1.
    """
    ca, cb = lattice_frame(d).c_coords
    free, torsion = cokernel_invariants([[0], [0], [ca], [cb]], 4)
    return free, torsion
