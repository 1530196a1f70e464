"""Special lifts of surjective self-maps to the universal cover.

A lift is the affine-quadratic map

    Phi(z, zeta) = (alpha z + beta,
                    |alpha|^2 zeta + 1/2 D(alpha, 1) c alpha z^2 + u z + v)

stored as (alpha, beta, sigma10, v) with the z-coefficient derived:

    u = sigma10 + D(alpha, 1) (c beta + epsilon - 1/2 D(alpha, tau_B) c),
    epsilon = delta - 1/2 c tau_B.

Phi descends to the surface exactly when two lattice conditions hold
(descent_check); the induced map is an automorphism exactly when alpha is a
root of unity.  Descending lifts form a group under composition, and this
module computes its structure: the conjugation action on the fundamental
group, the semidirect splitting over the base rotation, the kernel of the
action on the base, and the abelian invariants of N/K.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .exactfield import (
    DomainError,
    NotInSpan,
    NotInvertible,
    NumberValue,
    cokernel_invariants,
    d_form,
    divide,
    in_lattice,
    lattice_coords,
    mod_lattice,
    smith_normal_form,
)
from .pi1 import from_exponents, to_affine
from .surface import sl2_reduce


class LatticeViolation(DomainError):
    """A conjugated deck escaped the lattice: the lift does not descend."""


class NotAUnit(DomainError):
    """The proposed root of unity does not preserve Lambda_{tau_B}."""


class MapClass(Enum):
    NOT_DESCENDING = "NotDescending"
    ENDOMORPHISM = "Endomorphism"
    AUTOMORPHISM = "Automorphism"


@dataclass(frozen=True)
class SpecialLift:
    alpha: NumberValue
    beta: NumberValue
    sigma10: NumberValue
    v: NumberValue


@dataclass(frozen=True)
class AbelianInvariants:
    """free_rank and a divisibility chain of torsion orders (each > 1)."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion entries must exceed 1")
        for s, t in zip(self.torsion, self.torsion[1:]):
            if t % s:
                raise ValueError("torsion entries must form a divisibility chain")


@dataclass(frozen=True)
class NotInKerPsi:
    """The induced map on the base is not the identity."""


@dataclass(frozen=True)
class FibreTranslation:
    """x -> x . e: translation by the same fibre element everywhere."""

    e: NumberValue


@dataclass(frozen=True)
class GaugeWithHom:
    """Gauge automorphism whose Hom(B, E) part is nonzero: it translates
    each fibre by a different element."""


def epsilon(d):
    """delta - c tau_B / 2."""
    return d.delta - d.c * d.tau_b.value * Fraction(1, 2)


def identity_lift(d):
    z = d.ring.zero()
    return SpecialLift(d.ring.one(), z, z, z)


def z_coefficient(l, d):
    """The coefficient u of z in the fibre component."""
    t = d.tau_b
    a = d_form(t, l.alpha, d.ring.one())
    return l.sigma10 + (
        d.c * l.beta + epsilon(d) - d.c * (d_form(t, l.alpha, t.value) * Fraction(1, 2))
    ) * a


def _sigma10_from_u(alpha, beta, u, d):
    t = d.tau_b
    a = d_form(t, alpha, d.ring.one())
    return u - (
        d.c * beta + epsilon(d) - d.c * (d_form(t, alpha, t.value) * Fraction(1, 2))
    ) * a


def _norm(x):
    """|x|^2 as a Fraction (x must be a multiplier, so this is rational)."""
    return (x * x.conjugate()).rational()


def _validate(l, d):
    t = d.tau_b
    if not l.alpha:
        raise DomainError("alpha must be nonzero")
    if not (in_lattice(l.alpha, t) and in_lattice(l.alpha * t.value, t)):
        raise DomainError(f"alpha = {l.alpha} does not map the base lattice into itself")
    norm = l.alpha * l.alpha.conjugate()
    if not norm.is_rational() or norm.rational().denominator != 1:
        raise DomainError(f"|alpha|^2 = {norm} is not a rational integer")


def descent_check(l, d):
    """NotDescending, Endomorphism, or Automorphism."""
    _validate(l, d)
    if not in_lattice(l.sigma10, d.tau_e):
        return MapClass.NOT_DESCENDING
    t = d.tau_b
    one = d.ring.one()
    a = d_form(t, l.alpha, one)
    bracket = (
        t.value * t.value.conjugate() * d_form(t, l.alpha * t.value, one)
        - t.value * d_form(t, l.alpha, t.value)
    )
    cond = (
        l.sigma10 * t.value
        - l.alpha.conjugate() * (d.c * l.beta + (one - l.alpha) * epsilon(d))
        + d.c * bracket * (a * Fraction(1, 2))
    )
    if not in_lattice(cond, d.tau_e):
        return MapClass.NOT_DESCENDING
    return MapClass.AUTOMORPHISM if _norm(l.alpha) == 1 else MapClass.ENDOMORPHISM


def sigma_map(l, d, g):
    """The fibre part of the conjugation action of Phi on the deck of g."""
    t = d.tau_b
    one = d.ring.one()
    x = g.x.value()
    ax = l.alpha * x
    norm = _norm(l.alpha)
    d_a_1 = d_form(t, l.alpha, one)
    # D(x, 1) = a and D(x, tau_B) = -b on lattice coordinates
    inner = d_form(t, ax, one) * d_form(t, ax, t.value) - norm * g.x.a * (-g.x.b)
    out = (
        l.sigma10 * x
        - l.alpha.conjugate() * (d.c * l.beta + (one - l.alpha) * epsilon(d)) * g.x.a
        + d.c * (inner * Fraction(1, 2))
        - d.c * x * (d_a_1 * d_form(t, l.alpha, t.value) * Fraction(1, 2))
        + g.y.value() * norm
    )
    if not in_lattice(out, d.tau_e):
        raise LatticeViolation(f"sigma({g.exponents()}) = {out} is not in the fibre lattice")
    return out


def conjugate_deck(l, d, g):
    """Phi gamma Phi^-1 as a fundamental-group element: (alpha x, sigma(x, y))."""
    try:
        xa, xb = lattice_coords(l.alpha * g.x.value(), d.tau_b)
    except NotInSpan as exc:
        raise LatticeViolation(str(exc)) from exc
    ya, yb = lattice_coords(sigma_map(l, d, g), d.tau_e)
    return from_exponents(xa, xb, ya, yb, d)


def compose(l1, l2, d):
    """The lift of f1 after f2, back in (alpha, beta, sigma10, v) form."""
    one = d.ring.one()
    alpha = l1.alpha * l2.alpha
    beta = l1.alpha * l2.beta + l1.beta
    u1, u2 = z_coefficient(l1, d), z_coefficient(l2, d)
    norm1 = _norm(l1.alpha)
    da1 = d_form(d.tau_b, l1.alpha, one)
    u = u2 * norm1 + d.c * l1.alpha * l2.alpha * l2.beta * da1 + u1 * l2.alpha
    v = (
        l2.v * norm1
        + d.c * l1.alpha * l2.beta * l2.beta * (da1 * Fraction(1, 2))
        + u1 * l2.beta
        + l1.v
    )
    return SpecialLift(alpha, beta, _sigma10_from_u(alpha, beta, u, d), v)


def invert(l, d):
    """The exact inverse map; requires alpha to be a root of unity."""
    if _norm(l.alpha) != 1:
        raise NotInvertible("only lifts with |alpha|^2 = 1 invert within the family")
    ab = l.alpha.conjugate()
    u = z_coefficient(l, d)
    da = d_form(d.tau_b, l.alpha, d.ring.one())
    beta = -(ab * l.beta)
    u_inv = d.c * ab * l.beta * da - u * ab
    v_inv = -(d.c * ab * l.beta * l.beta * (da * Fraction(1, 2))) + u * ab * l.beta - l.v
    return SpecialLift(ab, beta, _sigma10_from_u(ab, beta, u_inv, d), v_inv)


def power(l, m, d):
    """Phi^m by square-and-multiply (m >= 0), in O(log m) compositions.

    Powers of one lift commute, so this is the lift of m-fold composition.
    """
    if m < 0:
        raise ValueError("nonnegative exponents only")
    if not m:
        return identity_lift(d)
    out, sq = None, l  # sq runs through Phi^(2^k)
    while True:
        if m & 1:
            out = sq if out is None else compose(sq, out, d)
        m >>= 1
        if not m:
            return out
        sq = compose(sq, sq, d)


def _root_order(omega, d):
    p = omega
    for k in range(1, 7):
        if p == d.ring.one():
            return k
        p = p * omega
    raise NotAUnit(f"{omega} is not a root of unity")


def order_n_lift(d, omega):
    """The canonical lift with alpha = omega, of the same order n as omega.

    sigma10 = 0 and beta solve the descent conditions on the nose; v is the
    unique choice killing the fibre constant of the n-th power.
    """
    t = d.tau_b
    one = d.ring.one()
    if not (in_lattice(omega, t) and in_lattice(omega * t.value, t)):
        raise NotAUnit(f"{omega} does not preserve the base lattice")
    norm = omega * omega.conjugate()
    if not (norm.is_rational() and norm.rational() == 1):
        raise NotAUnit(f"|{omega}|^2 != 1")
    da = d_form(t, omega, one)
    bracket = (
        t.value * t.value.conjugate() * d_form(t, omega * t.value, one)
        - t.value * d_form(t, omega, t.value)
    )
    beta = divide((omega - one) * epsilon(d), d.c) + omega * bracket * (da * Fraction(1, 2))
    zero = d.ring.zero()
    u = z_coefficient(SpecialLift(omega, beta, zero, zero), d)
    n = _root_order(omega, d)
    b_i, b_sum, b_sq_sum = zero, zero, zero
    for _ in range(1, n):
        b_i = omega * b_i + beta
        b_sum = b_sum + b_i
        b_sq_sum = b_sq_sum + b_i * b_i
    v = -(d.c * omega * b_sq_sum * (da * Fraction(1, 2)) + u * b_sum) / n
    return SpecialLift(omega, beta, zero, v)


def unit_group_order(tau):
    """2, 4, or 6: how many roots of unity preserve Lambda_tau."""
    if not tau.is_quadratic_mode():
        return 2
    reduced, _ = sl2_reduce(tau)
    ring = tau.ring
    if reduced.value == ring.i():
        return 4
    s = ring.symbols[reduced.imag_symbol_index()]
    if s.is_quadratic and s.d == 3 and reduced.value * 2 == ring.symbol(s.name) - 1:
        return 6
    return 2


def canonical_unit(tau):
    """A generator of the unit group: i, the hexagonal reduced point plus 1,
    or -1."""
    n = unit_group_order(tau)
    if n == 4:
        return tau.ring.i()
    if n == 6:
        reduced, _ = sl2_reduce(tau)
        return reduced.value + 1
    return -tau.ring.one()


def as_deck(l, d):
    """The fundamental-group element whose deck transformation equals this
    lift, or None when the lift is not a deck transformation."""
    if l.alpha != d.ring.one():
        return None
    if not in_lattice(l.beta, d.tau_b):
        return None
    a, b = lattice_coords(l.beta, d.tau_b)
    if z_coefficient(l, d) != d.c * a:
        return None
    zeta_const = d.delta * a + d.c * (a * b) + d.c * d.tau_b.value * Fraction(a * (a - 1), 2)
    y = l.v - zeta_const
    if not in_lattice(y, d.tau_e):
        return None
    ya, yb = lattice_coords(y, d.tau_e)
    return from_exponents(a, b, ya, yb, d)


def deck_lift(g, d):
    """The deck transformation of g re-expressed as a SpecialLift."""
    aff = to_affine(g, d)
    return SpecialLift(d.ring.one(), aff.shift_z, aff.lin_z, aff.shift_zeta)


def equal_mod_pi1(l1, l2, d):
    """Whether the two lifts induce the same map on the surface."""
    return as_deck(compose(l1, invert(l2, d), d), d) is not None


def factor_semidirect(l, d):
    """Write l as (alpha = 1 part) composed with a power of the canonical
    order-n lift; returns (n_part, exponent)."""
    if descent_check(l, d) != MapClass.AUTOMORPHISM:
        raise DomainError("only automorphism lifts factor over the base rotation")
    n = unit_group_order(d.tau_b)
    omega = canonical_unit(d.tau_b)
    base = order_n_lift(d, omega)
    e, p = 0, d.ring.one()
    while p != l.alpha:
        p = p * omega
        e += 1
        if e >= n:
            raise DomainError(f"alpha = {l.alpha} is not a power of the canonical unit")
    n_part = compose(l, invert(power(base, e, d), d), d)
    return n_part, e


def classify_kernel(l, d):
    """Position of the induced automorphism relative to the base action:
    NotInKerPsi, FibreTranslation(e), or GaugeWithHom."""
    if descent_check(l, d) != MapClass.AUTOMORPHISM:
        raise DomainError("kernel classification applies to automorphism lifts")
    if l.alpha != d.ring.one() or not in_lattice(l.beta, d.tau_b):
        return NotInKerPsi()
    a, b = lattice_coords(l.beta, d.tau_b)
    normalized = compose(l, deck_lift(from_exponents(-a, -b, 0, 0, d), d), d)
    if normalized.beta:
        raise DomainError(f"removing the base translation left beta = {normalized.beta}")
    if normalized.sigma10:
        return GaugeWithHom()
    return FibreTranslation(mod_lattice(normalized.v, d.tau_e))


def _integer_kernel(vectors):
    """Basis of the integer kernel of Z^n -> ring, e_j -> vectors[j]."""
    n = len(vectors)
    monos = sorted({m for v in vectors for m in v.monomials()})
    rows = []
    for m in monos:
        row = [v.coeff(m) for v in vectors]
        den = 1
        for q in row:
            den = den * q.denominator // gcd(den, q.denominator)
        rows.append([int(q * den) for q in row])
    if not rows:
        return [[int(i == j) for i in range(n)] for j in range(n)]
    _, diag, V = smith_normal_form(rows)
    rank = sum(1 for k in range(min(len(rows), n)) if diag[k][k])
    return [[V[r][j] for r in range(n)] for j in range(rank, n)]


def nk_invariants(d):
    """Abelian invariants of (Lambda_E x Lambda_E) / {(lambda, sigma) :
    sigma tau_B - lambda in c Lambda_B}."""
    ring = d.ring
    te, tb = d.tau_e.value, d.tau_b.value
    # unknowns (l1, l2, s1, s2, a, b); condition sigma tau_B - lambda - c(a tau_B + b) = 0
    vectors = [-te, -ring.one(), te * tb, tb, -(d.c * tb), -d.c]
    kernel = _integer_kernel(vectors)
    if not kernel:
        return AbelianInvariants(4, ())
    mat = [[vec[r] for vec in kernel] for r in range(4)]
    free, torsion = cokernel_invariants(mat, 4)
    return AbelianInvariants(free, tuple(torsion))


def count_base_translations_infinite(d):
    """Whether infinitely many base translations arise from automorphisms."""
    return nk_invariants(d).free_rank >= 1
