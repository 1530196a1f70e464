"""Fixed loci of surface automorphisms.

The fixed set of an automorphism is empty, a finite union of fibres of the
elliptic fibration, or the whole surface (identity only).  Everything here
is decided exactly: base fixed points, and the fixed fibres of a gauge lift,
come from one coset enumeration (_coset_solutions), and each candidate fibre
of a rotation is kept or discarded by a lattice membership test on a lifted
point.
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


def _coset_solutions(w, b, tau, d):
    """The z mod Lambda_{tau_B} with w*z + b in Lambda_tau, sorted.

    They are z = (lam - b) / w for lam over Lambda_tau / w Lambda_{tau_B}:
    [Lambda_tau : w Lambda_{tau_B}] points, one per coset, read off the
    Smith form U P V = D of w on lattice coordinates (lam = U^-1 r).
    """
    col1 = lattice_coords(w * d.tau_b.value, tau)
    col2 = lattice_coords(w, tau)
    u, dd, _ = smith_normal_form([[col1[0], col2[0]], [col1[1], col2[1]]])
    (u11, u12), (u21, u22) = u
    det = u11 * u22 - u12 * u21
    if det not in (1, -1):
        raise DomainError(f"Smith transform {u} has determinant {det}, not a unit")
    w_inv = divide(d.ring.one(), w)
    points = set()
    for r1 in range(dd[0][0]):
        for r2 in range(dd[1][1]):
            lam = tau.value * (det * (u22 * r1 - u12 * r2)) + det * (u11 * r2 - u21 * r1)
            points.add(mod_lattice(w_inv * (lam - b), d.tau_b))
    return sorted(points, key=lambda x: x.items())


def base_fixed_points(l, d):
    """Fixed points of the induced base map, canonicalized mod Lambda_{tau_B}:
    the z with (1 - alpha) z - beta in Lambda_{tau_B}.

    For alpha = 1 the base map is a translation: no isolated fixed points
    exist, so the list is empty (beta in the lattice means the base map is
    the identity, which fixed_locus handles by the gauge analysis).
    """
    one = d.ring.one()
    if l.alpha == one:
        return []
    return _coset_solutions(one - l.alpha, -l.beta, d.tau_b, d)


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
    f = cover_map(l, d)
    # the lift's zeta-displacement at (z0, 0), then the deck's at image_z
    residual = (f.q2 * z0 + f.q1) * z0 + f.q0 + deck.q1 * image_z + deck.q0
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
    # the fixed fibres are the z with sigma*z + v in Lambda_{tau_E}: a union
    # of [Lambda_{tau_E} : sigma Lambda_{tau_B}] cosets of the base lattice
    return FixedLocus(FIBRES, tuple(_coset_solutions(sigma, norm.v, d.tau_e, d)))
