"""Fixed loci of surface automorphisms.

The fixed set of an automorphism is empty, a finite union of fibres of the
elliptic fibration, or the whole surface (identity only).  Everything here
is decided exactly: base fixed points come from coset enumeration of
Lambda_{tau_B}/(1-alpha)Lambda_{tau_B}, and each candidate fibre is kept or
discarded by a lattice membership test on a lifted point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactfield import (
    DomainError,
    NotInSpan,
    divide,
    in_lattice,
    lattice_coords,
    mod_lattice,
    smith_normal_form,
)
from .lifts import MapClass, absorb_beta, as_deck, cover_map, descent_check
from .pi1 import from_exponents, to_affine

ALL = "all"
EMPTY = "empty"
FIBRES = "fibres"


class NotABaseFixedPoint(DomainError):
    """The given point is not fixed by the induced base map."""


@dataclass(frozen=True)
class FixedLocus:
    kind: str
    fibres: tuple = ()

    def __post_init__(self):
        if self.kind not in (ALL, EMPTY, FIBRES):
            raise ValueError(f"unknown fixed locus kind {self.kind!r}")
        if self.kind == FIBRES:
            if not self.fibres:
                raise ValueError("a fibre-type fixed locus needs at least one fibre")
            if len(set(self.fibres)) != len(self.fibres):
                raise ValueError("duplicate fibres in fixed locus")
        elif self.fibres:
            raise ValueError(f"kind {self.kind!r} carries no fibres")


def _unimodular_inverse(u):
    det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
    if det not in (1, -1):
        raise DomainError(f"Smith transform {u} has determinant {det}, not a unit")
    return [[u[1][1] * det, -u[0][1] * det], [-u[1][0] * det, u[0][0] * det]]


def _coset_values(p, b1, b2):
    """Representatives of Z^2 / p Z^2 embedded as c1*b1 + c2*b2.

    p is an integer 2x2 matrix with nonzero determinant; the count of
    returned values is |det p|.
    """
    u, dd, _ = smith_normal_form([list(row) for row in p])
    inv_u = _unimodular_inverse(u)
    out = []
    for r1 in range(dd[0][0]):
        for r2 in range(dd[1][1]):
            c1 = inv_u[0][0] * r1 + inv_u[0][1] * r2
            c2 = inv_u[1][0] * r1 + inv_u[1][1] * r2
            out.append(b1 * c1 + b2 * c2)
    return out


def _canonical_points(points, tau):
    reduced = [mod_lattice(z, tau) for z in points]
    unique = sorted(set(reduced), key=lambda x: x.items())
    return unique


def base_fixed_points(l, d):
    """Fixed points of the induced base map, canonicalized mod Lambda_{tau_B}.

    For alpha = 1 the base map is a translation: no isolated fixed points
    exist, so the list is empty (beta in the lattice means the base map is
    the identity, which fixed_locus handles by the gauge analysis).
    """
    one = d.ring.one()
    if l.alpha == one:
        return []
    w = one - l.alpha
    tb = d.tau_b.value
    col1 = lattice_coords(w * tb, d.tau_b)
    col2 = lattice_coords(w, d.tau_b)
    p = [[col1[0], col2[0]], [col1[1], col2[1]]]
    offsets = _coset_values(p, tb, one)
    points = [divide(l.beta + lam, w) for lam in offsets]
    return _canonical_points(points, d.tau_b)


def _zeta_shift(l, d, z0):
    """The zeta-displacement of the lift at (z0, 0): quadratic + linear + v."""
    f = cover_map(l, d)
    return (f.q2 * z0 + f.q1) * z0 + f.q0


def fibre_is_fixed(l, d, z0):
    """Whether the fibre over the base fixed point z0 consists of fixed
    points: some deck composed with the lift fixes a point over z0."""
    z0 = d.ring.value(z0)
    image_z = l.alpha * z0 + l.beta
    try:
        m1, m2 = lattice_coords(z0 - image_z, d.tau_b)
    except NotInSpan:
        raise NotABaseFixedPoint(f"{z0} is not fixed by the base map") from None
    deck = to_affine(from_exponents(m1, m2, 0, 0, d), d)  # carries image_z back to z0
    residual = _zeta_shift(l, d, z0) + deck.q1 * image_z + deck.q0
    return in_lattice(residual, d.tau_e)


def fixed_locus(l, d):
    """The full fixed locus of the automorphism defined by the lift."""
    if descent_check(l, d) != MapClass.AUTOMORPHISM:
        raise DomainError("fixed loci are computed for automorphism lifts")
    if as_deck(l, d) is not None:  # a deck induces the identity
        return FixedLocus(ALL)
    one = d.ring.one()
    if l.alpha != one:
        kept = [z for z in base_fixed_points(l, d) if fibre_is_fixed(l, d, z)]
        if not kept:
            return FixedLocus(EMPTY)
        return FixedLocus(FIBRES, tuple(kept))
    if not in_lattice(l.beta, d.tau_b):
        return FixedLocus(EMPTY)
    norm = absorb_beta(l, d)
    sigma = norm.sigma10
    if not sigma:
        # pure fibre translation (nonzero, or the identity branch above
        # would have caught it): free action, nothing fixed
        return FixedLocus(EMPTY)
    # solve sigma*z + v in Lambda_{tau_E} mod Lambda_{tau_B}: the solution
    # set is -v/sigma + (1/sigma)Lambda_{tau_E}, a union of
    # [(1/sigma)Lambda_{tau_E} : Lambda_{tau_B}] cosets of the base lattice
    w = divide(one, sigma)
    col1 = lattice_coords(sigma * d.tau_b.value, d.tau_e)
    col2 = lattice_coords(sigma, d.tau_e)
    p = [[col1[0], col2[0]], [col1[1], col2[1]]]
    offsets = _coset_values(p, w * d.tau_e.value, w)
    base = -(w * norm.v)
    points = _canonical_points([base + q for q in offsets], d.tau_b)
    return FixedLocus(FIBRES, tuple(points))
