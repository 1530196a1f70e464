"""Surface data, its normal forms, and the moduli comparison.

A surface is given by (tau_B, tau_E, c, delta) with c a nonzero element of
Lambda_{tau_E}.  Three normalizations matter:

* delta can always be moved to 0 (conjugating by a base shift by delta/c);
* c can be moved to its torsion coefficient m > 0 by re-marking the fibre
  lattice, at the cost of a Moebius change of tau_E;
* tau_B can be re-marked by any SL(2,Z) matrix, with a delta correction.

Together these show the isomorphism class is (m, SL2-orbit of tau_B,
normalized tau_E mod Z), which is what is_isomorphic compares.  moduli_point
renders the classical display coordinates (j(tau_B), exp(2*pi*i*tau_E)) as
floats; it is never used to decide anything.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from math import floor, gcd, sqrt

from .exactfield import (
    DomainError,
    NotInvertible,
    NumberValue,
    ONE_MONO,
    Tau,
    approx_complex,
    divide,
    in_lattice,
    lattice_coords,
)


class NotRepresentable(DomainError):
    """The operation's result leaves the declared ring."""


class NoEmbedding(DomainError):
    """A transcendental symbol has no numeric value for display."""


@dataclass(frozen=True, eq=False)
class KodairaData:
    """The defining tuple (tau_B, tau_E, c, delta) of a Kodaira surface.

    Equality is that of the four values (so of their rings too), read off a
    key of plain data built once with the hash: an equal surface parsed
    again finds the per-surface caches (lattice_frame) by comparing ints
    and strings.
    """

    tau_b: Tau
    tau_e: Tau
    c: NumberValue
    delta: NumberValue

    def __post_init__(self):
        ring = self.tau_b.ring
        if self.tau_e.ring != ring or self.c.ring != ring or self.delta.ring != ring:
            raise ValueError("all fields must live in one ring")
        if not self.c:
            raise ValueError("c must be nonzero")
        if not in_lattice(self.c, self.tau_e):
            raise ValueError(f"c = {self.c} is not in the lattice of tau_E")
        # one ring key serves all four values: their rings are equal
        key = (ring.key, self.tau_b.value.key(), self.tau_e.value.key(), self.c.key(),
               self.delta.key())
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return self._hash

    @property
    def ring(self):
        return self.tau_b.ring


@dataclass(frozen=True)
class TorsionDecomposition:
    """c = m*(p*tau_E + q) with m > 0 and gcd(p, q) = 1."""

    m: int
    p: int
    q: int


@dataclass(frozen=True)
class Sl2Matrix:
    """(k h / p q) with determinant kq - hp = +1."""

    k: int
    h: int
    p: int
    q: int

    def __post_init__(self):
        if self.k * self.q - self.h * self.p != 1:
            raise ValueError("determinant must be +1")

    def inverse(self):
        return Sl2Matrix(self.q, -self.h, -self.p, self.k)

    def __matmul__(self, other):
        return Sl2Matrix(
            self.k * other.k + self.h * other.p,
            self.k * other.h + self.h * other.q,
            self.p * other.k + self.q * other.p,
            self.p * other.h + self.q * other.q,
        )


IDENTITY_SL2 = Sl2Matrix(1, 0, 0, 1)


def mobius(M, tau):
    """(k*tau + h)/(p*tau + q) as a Tau; NotRepresentable if the denominator
    has no inverse in the ring or the image is not a representable
    upper-half-plane point (a transcendental tau inverts to a Laurent
    monomial, which Tau rejects)."""
    v = tau.value
    num = v * M.k + M.h
    den = v * M.p + M.q
    try:
        return Tau(divide(num, den))
    except (NotInvertible, ValueError) as exc:
        raise NotRepresentable(f"Moebius image of {v} leaves the ring") from exc


def torsion_coefficient(d):
    """The decomposition c = m*(p*tau_E + q); m is the torsion order of H_1."""
    a, b = lattice_coords(d.c, d.tau_e)
    m = gcd(a, b)
    return TorsionDecomposition(m, a // m, b // m)


def normalize_delta(d):
    """The same surface with delta = 0, plus the base shift delta/c used.

    Conjugating the covering action by (z, zeta) -> (z + delta/c, zeta) turns
    the generator over tau_B into (z + tau_B, zeta + c z), removing delta.
    """
    if not d.delta:
        return d, d.ring.zero()
    shift = divide(d.delta, d.c)
    return KodairaData(d.tau_b, d.tau_e, d.c, d.ring.zero()), shift


def normalize_c(d):
    """Re-mark the fibre lattice so that c becomes the integer m.

    Returns the new data (tau_B, tau_E', m, scale*delta) and the fibre scale
    m/c = 1/(p*tau_E + q).  The matrix (k h / p q) solves qk - ph = 1 with
    |h| minimal (ties toward h >= 0); any other solution shifts tau_E' by an
    integer, which is_isomorphic ignores.
    """
    tor = torsion_coefficient(d)
    p, q, m = tor.p, tor.q, tor.m
    if q != 0:
        # extended euclid on (q, p): x*q + y*p = 1
        x, y = _bezout(q, p)
        k0, h0 = x, -y
        qa = abs(q)
        h = h0 % qa
        if 2 * h > qa:
            h -= qa
        k = k0 + p * ((h - h0) // q)
    else:
        k, h = 0, -p  # p = ±1 here
    M = Sl2Matrix(k, h, p, q)
    tau_e2 = mobius(M, d.tau_e)
    try:
        scale = divide(d.ring.one(), d.tau_e.value * p + q)
    except NotInvertible as exc:
        raise NotRepresentable("fibre re-marking leaves the ring") from exc
    out = KodairaData(d.tau_b, tau_e2, d.ring.value(m), d.delta * scale)
    tor_out = torsion_coefficient(out)
    if tor_out != TorsionDecomposition(m, 0, 1):
        raise DomainError(f"fibre re-marking gave {tor_out}, not c = {m} as the torsion coefficient")
    return out, scale


def _bezout(a, b):
    """(x, y) with a*x + b*y = gcd(a, b); here always called with gcd 1."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        qt, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - qt * x1
        y0, y1 = y1, y0 - qt * y1
    if a < 0:
        x0, y0 = -x0, -y0
    return x0, y0


def change_base_marking(d, M):
    """The same surface presented over tau_B' = Moebius(M, tau_B).

    The delta correction follows the explicit conjugation by
    V(z, zeta) = (mu*z, zeta - phi(mu*z)) with mu the relevant denominator;
    the formula below is stated for the direction "new tau expressed through
    old", hence the inverse matrix entries.
    """
    Mi = M.inverse()
    ks, hs, ps, qs = Mi.k, Mi.h, Mi.p, Mi.q
    tau_out = mobius(M, d.tau_b)
    t_in, t_out = d.tau_b.value, tau_out.value
    try:
        pc_over_mu = divide(d.c * ps, t_out * ps + qs)
    except NotInvertible as exc:
        raise NotRepresentable("base re-marking leaves the ring") from exc
    half = Fraction(1, 2)
    delta2 = (
        d.c * t_in * Fraction(qs * (qs - 1), 2)
        + d.delta * qs
        + pc_over_mu * half * t_out * t_out
        - (d.c * t_in * Fraction(ps * (ps + 1), 2) - d.delta * ps + pc_over_mu * half) * t_out
    )
    return KodairaData(tau_out, d.tau_e, d.c, delta2)


def sl2_reduce(tau):
    """Reduce tau into the standard fundamental domain.

    Returns (tau', M) with tau' = Moebius(M, tau), |Re tau'| <= 1/2 with the
    +1/2 boundary excluded, |tau'| >= 1, and Re <= 0 on |tau'| = 1.  Only
    tau of the shape q0 + q1*s with s quadratic can be compared, so anything
    else is returned unchanged with the identity matrix.
    """
    if not tau.is_quadratic_mode():
        return tau, IDENTITY_SL2
    ring = tau.ring
    s_idx = tau.imag_symbol_index()
    dsq = ring.symbols[s_idx].d
    q0 = tau.value.coeff(ONE_MONO)
    q1 = tau.imag_coeff()
    M = IDENTITY_SL2
    while True:
        t = floor(q0 + Fraction(1, 2))
        if t:
            q0 -= t
            M = Sl2Matrix(1, -t, 0, 1) @ M
        n = q0 * q0 + q1 * q1 * dsq  # |tau|^2
        if n < 1:
            q0, q1 = -q0 / n, q1 / n
            M = Sl2Matrix(0, -1, 1, 0) @ M
        else:
            break
    if n == 1 and q0 > 0:
        q0 = -q0
        M = Sl2Matrix(0, -1, 1, 0) @ M
    s = ring.symbol(ring.symbols[s_idx].name)
    reduced = Tau(s * q1 + q0)
    if mobius(M, tau) != reduced:
        raise DomainError(f"SL(2,Z) reduction of {tau.value}: the matrix does not give {reduced.value}")
    return reduced, M


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


@dataclass(eq=False)
class LatticeFrame:
    """The lattice constants of one surface, which every lift over it uses.

    epsilon = delta - c tau_B / 2 and half_c = c / 2; shear = c / (tau_B -
    conj tau_B), the coefficient k of phi2 = k (zbar - z) dz + dzeta that
    forms.rho and forms.holomorphic_generators read; c_coords = (a, b) with
    c = a tau_E + b; unit_powers = (1, omega, ..., omega^(n-1)) for the
    canonical unit omega of order n.  canonical_lift is the canonical
    order-n lift over omega, and inverse_rotations maps an exponent e to the
    inverse of its e-th power; lifts fills both on first use (of each e).
    """

    epsilon: NumberValue
    half_c: NumberValue
    shear: NumberValue
    c_coords: tuple[int, int]
    unit_powers: tuple
    canonical_lift: object = None
    inverse_rotations: dict = field(default_factory=dict)


@lru_cache(maxsize=16)
def lattice_frame(d):
    """The LatticeFrame of d, built once: the constants depend on the surface
    alone, and one surface recurs across many lifts and group elements."""
    half_c = d.c * Fraction(1, 2)
    omega = canonical_unit(d.tau_b)
    powers = [d.ring.one()]
    for _ in range(1, unit_group_order(d.tau_b)):
        powers.append(powers[-1] * omega)
    return LatticeFrame(
        epsilon=d.delta - half_c * d.tau_b.value,
        half_c=half_c,
        shear=divide(d.c, d.tau_b.value - d.tau_b.conjugate()),
        c_coords=lattice_coords(d.c, d.tau_e),
        unit_powers=tuple(powers),
    )


def is_isomorphic(d1, d2):
    """Whether two data tuples define isomorphic surfaces.

    Exact decision: equal torsion coefficients, SL(2,Z)-equivalent tau_B
    and, after normalizing c and delta on both sides, tau_E's differing by an
    integer.  tau_B are compared through sl2_reduce, up to an integer: a
    quadratic tau_B reduces to one canonical point, and for any other tau_B
    the integer shifts are the only re-markings the ring can represent.
    """
    if torsion_coefficient(d1).m != torsion_coefficient(d2).m:
        return False
    r1, _ = sl2_reduce(d1.tau_b)
    r2, _ = sl2_reduce(d2.tau_b)
    # values of different rings do not compare (their monomials index different symbols)
    if r1.ring != r2.ring or not _is_integer(r1.value - r2.value):
        return False
    n1, _ = normalize_c(d1)
    n2, _ = normalize_c(d2)
    n1, _ = normalize_delta(n1)
    n2, _ = normalize_delta(n2)
    return _is_integer(n1.tau_e.value - n2.tau_e.value)


def _is_integer(x):
    return x.is_rational() and x.rational().denominator == 1


_N_TERMS = 40


@cache
def _j_q_coefficients(n=_N_TERMS):
    """Integer coefficients a_k with j = sum a_k q^(k-1), k = 0..n-1, as a
    tuple built on first use: only moduli_point reads them, so importing the
    package does not pay for the series."""
    e4 = [1] + [240 * sum(t**3 for t in range(1, k + 1) if k % t == 0) for k in range(1, n)]
    e4_cubed = _series_mul(_series_mul(e4, e4, n), e4, n)
    disc = [1] + [0] * (n - 1)  # Delta/q = prod (1 - q^k)^24
    for k in range(1, n):
        for _ in range(24):
            for idx in range(n - 1, k - 1, -1):
                disc[idx] -= disc[idx - k]
    out = []
    for k in range(n):
        acc = e4_cubed[k] - sum(out[j] * disc[k - j] for j in range(k))
        out.append(acc)
    return tuple(out)


def _series_mul(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(min(len(b), n - i)):
                out[i + j] += ai * b[j]
    return out


def _numeric_symbols(ring):
    values = {}
    for k, s in enumerate(ring.symbols):
        if s.is_quadratic:
            values[k] = 1j * sqrt(s.d)
        elif s.approx is not None:
            values[k] = 1j * s.approx
        else:
            raise NoEmbedding(f"symbol {s.name!r} has no numeric value")
    return values


def _round_sig(x, digits):
    if x == 0:
        return 0.0
    return float(f"%.{digits - 1}e" % x)


def _reduce_numeric(z, max_steps=1000):
    """A point of the standard fundamental domain SL(2,Z)-equivalent to the
    complex number z (Im z > 0), by translations and z -> -1/z.

    Each inversion raises Im z, so the loop ends; max_steps only bounds it
    against float rounding at |z| = 1.
    """
    for _ in range(max_steps):
        z -= round(z.real)
        if abs(z) >= 1:
            break
        z = -1 / z
    return z


def _j_value(d, values):
    tb, _ = sl2_reduce(d.tau_b)
    tau_b = approx_complex(tb.value, values)
    if not tb.is_quadratic_mode():
        tau_b = _reduce_numeric(tau_b)
    qb = cmath.exp(2j * cmath.pi * tau_b)
    coeffs = _j_q_coefficients()
    return coeffs[0] / qb + sum(a * qb**k for k, a in enumerate(coeffs[1:]))


def moduli_point(d, precision=15):
    """Display coordinates (j(tau_B), exp(2*pi*i*tau_E)) as complex floats.

    tau_B is reduced first so the q-series converges fast: exactly when it
    is quadratic, numerically otherwise.  The result is rounded to
    `precision` significant digits per component.  Never used in any
    decision procedure.  A coordinate that leaves the range of a float
    (j for Im tau_B past about 113, or a symbol's value overflowing) raises
    DomainError naming it.
    """
    values = _numeric_symbols(d.ring)

    def coordinate(name, compute):
        try:
            z = compute()
            z = complex(_round_sig(z.real, precision), _round_sig(z.imag, precision))
            if cmath.isfinite(z):
                return z
        except (OverflowError, ZeroDivisionError):
            pass
        raise DomainError(f"{name} is not a finite float on this surface")

    return (coordinate("j(tau_B)", lambda: _j_value(d, values)),
            coordinate("q(tau_E)",
                       lambda: cmath.exp(2j * cmath.pi * approx_complex(d.tau_e.value, values))))
