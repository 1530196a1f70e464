"""Special lifts of surjective self-maps to the universal cover.

A lift is the affine-quadratic map

    Phi(z, zeta) = (alpha z + beta,
                    |alpha|^2 zeta + 1/2 D(alpha, 1) c alpha z^2 + u z + v)

stored as (alpha, beta, sigma10, v) with the z-coefficient derived:

    u = sigma10 + D(alpha, 1) (c beta + epsilon - 1/2 D(alpha, tau_B) c),
    epsilon = delta - 1/2 c tau_B.

cover_map gives Phi as a pi1.CoverMap and is the one place its z^2 and z
coefficients are derived; compose and invert are those of the cover maps,
read back into this form.

Conjugating the deck of (x, y) by Phi gives the deck of (alpha x, sigma(x, y)),
and the fibre cocycle sigma is written once (_sigma).  Phi descends to the
surface exactly when sigma(gamma_1) and sigma(gamma_2) = sigma10 lie in
Lambda_{tau_E} (descent_check); the induced map is an automorphism exactly
when alpha is a root of unity.  The canonical order-n lift over a unit omega
is the one with sigma(gamma_1) = sigma(gamma_2) = 0 and Phi^n = id.

Descending lifts form a group under composition, and this module computes
its structure: the conjugation action on the fundamental group, the
semidirect splitting over the base rotation, the kernel of the action on the
base, and the abelian invariants of N/K.  The constants of the surface
(epsilon, c/2, the unit powers, the inverse rotations) come from
surface.lattice_frame, built once per surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .exactfield import (
    DomainError,
    NotInSpan,
    NotInvertible,
    NumberValue,
    cokernel_invariants,
    decompose,
    divide,
    in_lattice,
    lattice_coords,
    mod_lattice,
    smith_normal_form,
)
from .pi1 import CoverMap, from_exponents, is_central, to_affine, values
from .surface import canonical_unit, lattice_frame
from .surface import unit_group_order  # noqa: F401  (perfbench/workloads.py reads it here)


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

    @property
    def infinite(self):
        """Whether the group is infinite: free rank at least 1."""
        return self.free_rank >= 1


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


def identity_lift(d):
    z = d.ring.zero()
    return SpecialLift(d.ring.one(), z, z, z)


def skew(x, tau):
    """(D(x, 1), D(x, tau)) from one decompose: for x = a*tau + b they are
    a and -b (d_form decomposes both of its arguments)."""
    a, b = decompose(x, tau)
    return a, -b


def z_offset(alpha, beta, d):
    """(u - sigma10, D(alpha, 1)) for a lift with this alpha and beta."""
    da, dt = skew(alpha, d.tau_b)
    if not da:
        return d.ring.zero(), da
    f = lattice_frame(d)
    return (d.c * beta + f.epsilon - f.half_c * dt) * da, da


def z_coefficient(l, d):
    """The coefficient u of z in the fibre component."""
    return l.sigma10 + z_offset(l.alpha, l.beta, d)[0]


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
    """NotDescending, Endomorphism, or Automorphism: Phi descends exactly
    when sigma(gamma_1) and sigma(gamma_2) = sigma10 lie in Lambda_{tau_E}."""
    _validate(l, d)
    if not (in_lattice(l.sigma10, d.tau_e)
            and in_lattice(_sigma(l, d, d.tau_b.value, 1, 0), d.tau_e)):
        return MapClass.NOT_DESCENDING
    return MapClass.AUTOMORPHISM if _norm(l.alpha) == 1 else MapClass.ENDOMORPHISM


def _sigma(l, d, x, a, b, ax=None):
    """The fibre part of Phi (x, 0) Phi^-1 for x = a*tau_B + b, the one
    formula for sigma; the deck of (x, y) adds |alpha|^2 y to it.

    ax, when given, holds the coordinates (xa, xb) of alpha x = xa*tau_B + xb.
    """
    if not (a or b):
        return d.ring.zero()
    f = lattice_frame(d)
    xa, xb = decompose(l.alpha * x, d.tau_b) if ax is None else ax
    da, dt = skew(l.alpha, d.tau_b)
    # D(y, 1) = a and D(y, tau_B) = -b for y = a*tau_B + b
    inner = -(xa * xb)
    if a * b:
        inner += _norm(l.alpha) * a * b
    out = l.sigma10 * x + f.half_c * (inner - x * (da * dt))
    if a:
        out -= l.alpha.conjugate() * (d.c * l.beta + (d.ring.one() - l.alpha) * f.epsilon) * a
    return out


def sigma_map(l, d, g, ax=None):
    """sigma(g), the fibre part of Phi deck(g) Phi^-1; ax as in _sigma."""
    x, y = values(g, d)
    m1, m2, _, _ = g.exponents()
    out = _sigma(l, d, x, m1, m2, ax) + y * _norm(l.alpha)
    if not in_lattice(out, d.tau_e):
        raise _escaped(g, out)
    return out


def _escaped(g, out):
    """The error for sigma(g) = out outside the fibre lattice."""
    return LatticeViolation(f"sigma({g.exponents()}) = {out} is not in the fibre lattice")


def conjugate_deck(l, d, g):
    """Phi gamma Phi^-1 as a fundamental-group element: (alpha x, sigma(x, y)).

    A central g = (0, y) goes to (0, |alpha|^2 y), whose exponents are
    |alpha|^2 (m3, m4): integer arithmetic, with no ring value built."""
    if is_central(g):
        n = _norm(l.alpha)
        ya, yb = n * g.m3, n * g.m4
        if ya.denominator != 1 or yb.denominator != 1:
            raise _escaped(g, values(g, d)[1] * n)
        return from_exponents(0, 0, int(ya), int(yb), d)
    try:
        xa, xb = lattice_coords(l.alpha * values(g, d)[0], d.tau_b)
    except NotInSpan as exc:
        raise LatticeViolation(str(exc)) from exc
    ya, yb = lattice_coords(sigma_map(l, d, g, (xa, xb)), d.tau_e)
    return from_exponents(xa, xb, ya, yb, d)


def cover_map(l, d):
    """The map of C^2 the lift stands for: (alpha, beta, |alpha|^2,
    1/2 c alpha D(alpha, 1), u, v)."""
    off, da = z_offset(l.alpha, l.beta, d)
    q2 = lattice_frame(d).half_c * da * l.alpha
    return CoverMap(l.alpha, l.beta, _norm(l.alpha), q2, l.sigma10 + off, l.v)


def _lift(f, d):
    """The lift whose cover map is f, with sigma10 read back off q1; e and
    q2 of a map in the family follow from a, so they are dropped."""
    return SpecialLift(f.a, f.b, f.q1 - z_offset(f.a, f.b, d)[0], f.q0)


def compose(l1, l2, d):
    """The lift of f1 after f2."""
    return _lift(cover_map(l1, d).compose(cover_map(l2, d)), d)


def invert(l, d):
    """The exact inverse map; requires alpha to be a root of unity."""
    if _norm(l.alpha) != 1:
        raise NotInvertible("only lifts with |alpha|^2 = 1 invert within the family")
    return _lift(cover_map(l, d).inverse(), d)


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
    """The canonical lift with alpha = omega, of the same order n as omega:
    sigma10 = 0, beta = omega sigma_0(gamma_1) / c with sigma_0 the sigma of
    (omega, 0, 0, 0) makes sigma(gamma_1) = 0, and v kills the fibre
    constant of the n-th power, which is then the identity."""
    t = d.tau_b
    if not (in_lattice(omega, t) and in_lattice(omega * t.value, t)):
        raise NotAUnit(f"{omega} does not preserve the base lattice")
    norm = omega * omega.conjugate()
    if not (norm.is_rational() and norm.rational() == 1):
        raise NotAUnit(f"|{omega}|^2 != 1")
    zero = d.ring.zero()
    beta = divide(omega * _sigma(SpecialLift(omega, zero, zero, zero), d, t.value, 1, 0), d.c)
    n = _root_order(omega, d)
    v = -power(SpecialLift(omega, beta, zero, zero), n, d).v / n
    return SpecialLift(omega, beta, zero, v)


def as_deck(l, d):
    """The fundamental-group element whose deck transformation equals this
    lift, or None when the lift is not a deck transformation."""
    if l.alpha != d.ring.one():
        return None
    if not in_lattice(l.beta, d.tau_b):
        return None
    a, b = lattice_coords(l.beta, d.tau_b)
    deck = to_affine(from_exponents(a, b, 0, 0, d), d)
    if z_coefficient(l, d) != deck.q1:
        return None
    y = l.v - deck.q0
    if not in_lattice(y, d.tau_e):
        return None
    ya, yb = lattice_coords(y, d.tau_e)
    return from_exponents(a, b, ya, yb, d)


def deck_lift(g, d):
    """The deck transformation of g re-expressed as a SpecialLift.  Its
    alpha is 1, so D(alpha, 1) = 0 and sigma10 is the z-coefficient q1."""
    f = to_affine(g, d)
    return SpecialLift(f.a, f.b, f.q1, f.q0)


def equal_mod_pi1(l1, l2, d):
    """Whether the two lifts induce the same map on the surface."""
    return as_deck(compose(l1, invert(l2, d), d), d) is not None


def absorb_beta(l, d):
    """l composed with the deck that cancels its base translation (alpha = 1,
    beta in Lambda_{tau_B}), so beta becomes 0; the automorphism of the
    surface is unchanged."""
    a, b = lattice_coords(l.beta, d.tau_b)
    return compose(l, deck_lift(from_exponents(-a, -b, 0, 0, d), d), d)


def factor_semidirect(l, d):
    """Write l as (alpha = 1 part) composed with a power of the canonical
    order-n lift; returns (n_part, exponent)."""
    if descent_check(l, d) != MapClass.AUTOMORPHISM:
        raise DomainError("only automorphism lifts factor over the base rotation")
    f = lattice_frame(d)
    if l.alpha not in f.unit_powers:
        raise DomainError(f"alpha = {l.alpha} is not a power of the canonical unit")
    e = f.unit_powers.index(l.alpha)
    return compose(l, _inverse_rotation(d, e), d), e


def canonical_lift(d):
    """The canonical order-n lift over canonical_unit(tau_B), built on first
    use and kept in the surface's LatticeFrame."""
    f = lattice_frame(d)
    if f.canonical_lift is None:
        f.canonical_lift = order_n_lift(d, canonical_unit(d.tau_b))
    return f.canonical_lift


def _inverse_rotation(d, e):
    """The inverse of the e-th power of the canonical order-n lift, built on
    first use and kept in the surface's LatticeFrame."""
    cache = lattice_frame(d).inverse_rotations
    if e not in cache:
        cache[e] = invert(power(canonical_lift(d), e, d), d)
    return cache[e]


def classify_kernel(l, d):
    """Position of the induced automorphism relative to the base action:
    NotInKerPsi, FibreTranslation(e), or GaugeWithHom."""
    if descent_check(l, d) != MapClass.AUTOMORPHISM:
        raise DomainError("kernel classification applies to automorphism lifts")
    if l.alpha != d.ring.one() or not in_lattice(l.beta, d.tau_b):
        return NotInKerPsi()
    normalized = absorb_beta(l, d)
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
    """Whether infinitely many base translations arise from automorphisms,
    that is, whether N/K is infinite."""
    return nk_invariants(d).infinite
