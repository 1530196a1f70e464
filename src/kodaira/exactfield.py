"""Exact scalar arithmetic over rings of purely imaginary symbols.

Every scalar in this package is a finite rational combination of monomials in
declared symbols.  Two kinds of symbols exist:

* quadratic ``s`` with ``s**2 == -d`` for a squarefree positive integer ``d``
  (the imaginary unit ``i`` is the case ``d == 1`` and is always present);
* transcendental ``t`` with no polynomial relation at all, modelling numbers
  like pi*i whose only usable property is independence.

All symbols are purely imaginary by convention, so conjugation negates each
symbol and a monomial is real exactly when its total degree is even.  This
keeps "imaginary part" questions decidable without ever touching floats:
``Im(tau) > 0`` becomes a sign check on one rational coefficient.

A value is stored as integer numerators over one positive common denominator,
the layout of FLINT's ``fmpq_poly``: the value is ``sum(n[m] * m) / den``.
The pair is always in lowest terms (``gcd(den, *n.values()) == 1``) and no
zero numerator is stored, so every value has exactly one representation and
``==`` and ``hash`` compare plain integers.  Addition, negation, conjugation
and scalar multiplication work on integers with one gcd per result; a product
looks up each pair of monomials in a table of the ring that fills on first
use.  Coefficients still leave the module as ``Fraction``.

The module also provides lattice utilities for Lambda_tau = Z*tau + Z
(decomposition, the skew form D_tau, membership) and an integer Smith normal
form, which the group-theoretic modules use for abelian invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, inf, lcm
from numbers import Real


class DomainError(Exception):
    """Base class for all mathematical-domain failures in this package."""


class NotInvertible(DomainError):
    """Division by a value with no inverse in the declared ring."""


class NotInSpan(DomainError):
    """Value does not lie in Q*tau + Q."""


# Largest d a quadratic symbol may declare; it keeps the squarefree test, a
# trial division up to sqrt(d), below about a second.
MAX_QUADRATIC_D = 10**12

# Largest |exponent| of a quadratic symbol in a payload monomial.  s^e
# reduces to a rational factor of at most d^(|e|/2), which this keeps below
# 10^384 for any d up to MAX_QUADRATIC_D; a transcendental symbol's exponent
# is unbounded.
MAX_QUADRATIC_EXPONENT = 64


@lru_cache(maxsize=1024)
def _squarefree_primes(n):
    """The prime factors of n when n > 0 is squarefree, else None.  Cached:
    SymbolDecl validates d, and NumberRing then needs the same factors."""
    if n <= 0:
        return None
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            primes.append(p)
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return tuple(primes)


def _is_display_magnitude(x):
    """Whether x is a real number (not a bool) that is positive and finite
    as a float, the form the numeric embeddings use."""
    if isinstance(x, bool) or not isinstance(x, Real):
        return False
    try:
        return 0 < float(x) < inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class SymbolDecl:
    """A declared generator of the ring.

    ``d`` set means quadratic (the symbol squares to -d); ``d = None`` means
    transcendental.  ``approx`` optionally records the magnitude of the
    symbol's imaginary part for display-only numeric embeddings (sqrt(d) is
    used automatically for quadratic symbols, so ``approx`` only matters for
    transcendental ones, e.g. 3.14159... for a symbol standing for pi*i).
    """

    name: str
    d: int | None = None
    approx: float | None = None

    def __post_init__(self):
        if self.approx is not None and not _is_display_magnitude(self.approx):
            raise ValueError(
                f"symbol {self.name!r} needs a finite positive real approx, got {self.approx!r}"
            )
        if self.d is None:
            return
        if isinstance(self.d, bool) or not isinstance(self.d, int):
            raise ValueError(f"quadratic symbol {self.name!r} needs an integer d, got {self.d!r}")
        if self.d > MAX_QUADRATIC_D:
            raise ValueError(
                f"quadratic symbol {self.name!r}: d = {self.d} exceeds the limit {MAX_QUADRATIC_D}"
            )
        if _squarefree_primes(self.d) is None:
            raise ValueError(f"quadratic symbol {self.name!r} needs squarefree d > 0, got {self.d}")

    @property
    def is_quadratic(self):
        return self.d is not None


# A monomial is a sorted tuple of (symbol_index, exponent) pairs with nonzero
# exponents; quadratic symbols never exceed exponent 1 after reduction, while
# transcendental symbols may carry negative exponents (the ring is Laurent in
# them, which is what makes quotients like 1/Im(tau) exist exactly).
ONE_MONO = ()


class NumberRing:
    """The ring generated over Q by a list of purely imaginary symbols.

    The imaginary unit is prepended automatically when not declared:

    >>> R = NumberRing([SymbolDecl("t")])
    >>> [s.name for s in R.symbols]
    ['i', 't']
    """

    def __init__(self, symbols=()):
        decls = list(symbols)
        names = [s.name for s in decls]
        if "i" not in names:
            decls.insert(0, SymbolDecl("i", d=1))
            names.insert(0, "i")
        self._index = {name: k for k, name in enumerate(names)}
        if len(self._index) != len(names):
            raise ValueError(f"duplicate symbol names in {names}")
        if decls[self._index["i"]].d != 1:
            raise ValueError("the symbol 'i' is reserved for the imaginary unit")
        self.symbols = tuple(decls)
        # the value key: equality and hash compare these plain tuples, so two
        # rings built from equal declarations are equal without comparing
        # SymbolDecl objects
        self.key = tuple([(s.name, s.d, s.approx) for s in decls])
        self._check_independence()
        # (m1, m2) -> (integer factor, reduced monomial) of m1*m2
        self._products = {}
        self._zero = _raw(self, {}, 1)
        self._one = _raw(self, {ONE_MONO: 1}, 1)

    def _check_independence(self):
        # The fields Q(sqrt(-d_1), ..., sqrt(-d_k)) are linearly disjoint iff
        # no even-sized subset has a perfect-square product of d's (odd-sized
        # products are automatically fine: (-1)^odd * positive is no square).
        # Over GF(2), give d the vector of its prime support plus a parity bit
        # 1: such a subset is exactly a subset of vectors summing to zero, so
        # the vectors must be independent.  Elimination keeps, with each
        # reduced vector, the subset of symbols it is the sum of.
        quads = [s.d for s in self.symbols if s.is_quadratic]
        bit_of = {}
        pivots = {}  # leading bit -> (reduced vector, subset bitmask)
        for j, d in enumerate(quads):
            vec = 1
            for p in _squarefree_primes(d):
                vec |= 2 << bit_of.setdefault(p, len(bit_of))
            subset = 1 << j
            while vec:
                top = vec.bit_length() - 1
                if top not in pivots:
                    pivots[top] = (vec, subset)
                    break
                pvec, psubset = pivots[top]
                vec, subset = vec ^ pvec, subset ^ psubset
            else:
                prod = 1
                for k, dk in enumerate(quads):
                    if subset >> k & 1:
                        prod *= dk
                raise ValueError(f"dependent quadratic symbols: product of d's {prod} is a square")

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberRing) and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"NumberRing({', '.join(s.name for s in self.symbols)})"

    def symbol(self, name):
        """The symbol with this name, as a value."""
        return _raw(self, {((self._index[name], 1),): 1}, 1)

    def value(self, x):
        """Coerce a rational (or pass through a value of this ring)."""
        if isinstance(x, NumberValue):
            if x.ring is not self:
                _check_ring(self, x.ring)
            return x
        if type(x) is not int:
            x = Fraction(x)
            if x.denominator != 1:
                return _raw(self, {ONE_MONO: x.numerator}, x.denominator)
            x = x.numerator
        return _raw(self, {ONE_MONO: x}, 1) if x else self._zero

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def i(self):
        return self.symbol("i")

    def _reduce(self, exps):
        """(factor, reduced monomial) of the product of symbol powers
        {index: exponent}.  A quadratic s has s^e = (-d)^(e // 2) * s^(e % 2),
        so the factor is an int unless a quadratic exponent is negative."""
        if len(exps) == 1:
            ((k, e),) = exps.items()
            if e == 1:  # one symbol to the first power, the common monomial
                return 1, ((k, 1),)
        factor = 1
        out = []
        symbols = self.symbols
        for k in sorted(exps):
            e = exps[k]
            d = symbols[k].d
            if d is not None and not 0 <= e <= 1:  # a quadratic symbol past s^1
                half, e = divmod(e, 2)
                factor *= (-d) ** half if half >= 0 else Fraction(-1, d) ** -half
            if e:
                out.append((k, e))
        return factor, tuple(out)

    def _mul_mono(self, m1, m2):
        """Product of two reduced monomials as (integer factor, reduced
        monomial), remembered in the ring's product table."""
        exps = dict(m1)
        for k, e in m2:
            exps[k] = exps.get(k, 0) + e
        out = self._products[m1, m2] = self._reduce(exps)
        return out


def _mono_degree(mono):
    n = 0
    for _, e in mono:
        n += e
    return n


def _raw(ring, nums, den):
    """The value sum(nums[m] * m) / den; nums must hold no zero and be in
    lowest terms with den > 0."""
    x = object.__new__(NumberValue)
    x.ring = ring
    x._n = nums
    x._d = den
    x._hash = None
    return x


def _lowest(ring, nums, den):
    """The value sum(nums[m] * m) / den, divided down to lowest terms; nums
    must hold no zero, and den > 0."""
    if not nums:
        return ring._zero
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {m: q // g for m, q in nums.items()}
        den //= g
    return _raw(ring, nums, den)


def _scaled(x, p, r):
    """x * p / r for integers p and r > 0."""
    if p == r:
        return x
    if not p:
        return x.ring._zero
    return _lowest(x.ring, {m: q * p for m, q in x._n.items()}, x._d * r)


def _check_ring(r1, r2):
    """Values of different rings never combine: their monomials share
    indices but not meanings.  Callers test r1 is r2 first, the common case."""
    if r1 != r2:
        raise ValueError("ring mismatch")


def _sum(x, y, sign):
    """x + sign * y, for sign 1 or -1."""
    if x.ring is not y.ring:
        _check_ring(x.ring, y.ring)
    yn = y._n
    if not yn:
        return x
    if not x._n and sign == 1:
        return y
    xn, xd, yd = x._n, x._d, y._d
    if xd == yd:
        out = dict(xn)
        sy = sign
    else:
        g = gcd(xd, yd)
        sx, sy = yd // g, xd // g * sign
        out = {m: q * sx for m, q in xn.items()}
        xd *= sx
    for m, q in yn.items():
        s = out.get(m, 0) + q * sy
        if s:
            out[m] = s
        else:
            del out[m]
    return _lowest(x.ring, out, xd)


class NumberValue:
    """An element of a NumberRing: integer numerators over one positive
    common denominator, sum(_n[m] * m) / _d over reduced monomials m.

    The pair is kept in lowest terms, gcd(_d, *_n.values()) == 1, with no
    zero numerator stored, so equal values have equal storage.  The
    constructor takes a map monomial -> rational (Fraction or int); coeff,
    items and rational hand the coefficients back as Fractions.

    Supports the usual operators; ``/`` is restricted division (see divide).
    Instances are immutable and hashable.
    """

    __slots__ = ("ring", "_n", "_d", "_hash")

    def __init__(self, ring, coeffs):
        coeffs = {m: Fraction(q) for m, q in coeffs.items() if q}
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the pair is already in lowest terms
        den = lcm(*(q.denominator for q in coeffs.values()))
        self.ring = ring
        self._n = {m: q.numerator * (den // q.denominator) for m, q in coeffs.items()}
        self._d = den
        self._hash = None

    def coeff(self, mono):
        n = self._n.get(mono)
        return Fraction(n, self._d) if n else Fraction(0)

    def monomials(self):
        return sorted(self._n)

    def items(self):
        d = self._d
        return tuple((m, Fraction(n, d)) for m, n in sorted(self._n.items()))

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        if isinstance(other, NumberValue):
            return (
                (self.ring is other.ring or self.ring == other.ring)
                and self._d == other._d
                and self._n == other._n
            )
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._n
            q = Fraction(other)
            return self._d == q.denominator and self._n == {ONE_MONO: q.numerator}
        return NotImplemented

    def key(self):
        """The storage as plain data, (den, sorted numerators): two values of
        equal rings are equal exactly when their keys are."""
        return self._d, tuple(sorted(self._n.items()))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __add__(self, other):
        if not isinstance(other, NumberValue):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.value(other)
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.ring, {m: -q for m, q in self._n.items()}, self._d)

    def __sub__(self, other):
        if not isinstance(other, NumberValue):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.value(other)
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return self.ring.value(other) - self

    def __mul__(self, other):
        if not isinstance(other, NumberValue):
            if isinstance(other, int):
                return _scaled(self, other, 1)
            if isinstance(other, Fraction):
                return _scaled(self, other.numerator, other.denominator)
            return NotImplemented
        if self.ring is not other.ring:
            _check_ring(self.ring, other.ring)
        xn, yn = self._n, other._n
        if len(yn) == 1 and ONE_MONO in yn:
            return _scaled(self, yn[ONE_MONO], other._d)
        if len(xn) == 1 and ONE_MONO in xn:
            return _scaled(other, xn[ONE_MONO], self._d)
        ring = self.ring
        table = ring._products
        out = {}
        for m1, a in xn.items():
            for m2, b in yn.items():
                try:
                    f, m = table[m1, m2]
                except KeyError:
                    f, m = ring._mul_mono(m1, m2)
                out[m] = out.get(m, 0) + a * b * f
        return _lowest(ring, {m: q for m, q in out.items() if q}, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise NotInvertible("division by zero")
            return self * (1 / q)
        return divide(self, other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"only nonnegative integer powers, got {n!r}")
        out, base = self.ring._one, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conjugate(self):
        """The ring involution negating every symbol."""
        return _raw(
            self.ring,
            {m: (-q if _mono_degree(m) % 2 else q) for m, q in self._n.items()},
            self._d,
        )

    def is_rational(self):
        n = self._n
        return not n or (len(n) == 1 and ONE_MONO in n)

    def rational(self):
        """This value as a Fraction; raises NotInSpan when not rational."""
        if not self.is_rational():
            raise NotInSpan(f"{self} is not rational")
        return Fraction(self._n.get(ONE_MONO, 0), self._d)

    def __repr__(self):
        if not self._n:
            return "0"
        parts = []
        for m, q in self.items():
            word = "*".join(
                self.ring.symbols[k].name + (f"^{e}" if e != 1 else "") for k, e in m
            )
            if not word:
                parts.append(str(q))
            elif q == 1:
                parts.append(word)
            elif q == -1:
                parts.append(f"-{word}")
            else:
                parts.append(f"{q}*{word}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def divide(x, y):
    """Exact division x/y in the ring, when y is invertible.

    y is invertible when it is a rational multiple of a single monomial
    (transcendental factors invert to negative exponents) or lies in the
    purely quadratic subring (then conjugation passes rationalize the
    denominator).  A transcendental symbol spread across several monomials
    has no inverse here.

    >>> R = NumberRing([])
    >>> divide(R.one(), R.i())
    -i
    """
    ring = x.ring
    y = ring.value(y)
    if not y:
        raise NotInvertible("division by zero")
    if len(y._n) == 1:
        # 1/(q/den * m): each quadratic s stays, as 1/s = -s/d, and each
        # transcendental exponent changes sign
        ((mono, q),) = y._n.items()
        num, den = y._d, q
        inv = []
        for k, e in mono:
            s = ring.symbols[k]
            if s.is_quadratic:
                den *= -s.d
                inv.append((k, e))
            else:
                inv.append((k, -e))
        if den < 0:
            num, den = -num, -den
        return x * _lowest(ring, {tuple(inv): num}, den)
    quad_only = all(
        all(ring.symbols[k].is_quadratic for k, _ in m) for m in y._n
    )
    if not quad_only:
        raise NotInvertible(f"{y} is not invertible in this ring")
    # Rationalize one quadratic symbol at a time: multiplying by the value
    # with s negated removes s (the product is fixed by the flip and the
    # flip-invariant monomials have even s-degree, i.e. none).
    num, den = x, y
    while not den.is_rational():
        k = next(k for m in den._n for k, _ in m)
        flip = _raw(
            ring,
            {m: (-q if any(j == k for j, _ in m) else q) for m, q in den._n.items()},
            den._d,
        )
        num = num * flip
        den = den * flip
        if any(j == k for m in den._n for j, _ in m):
            raise DomainError(f"rationalizing {y} left {ring.symbols[k].name} behind")
    return num * (1 / den.rational())


class Tau:
    """A point of the upper half-plane, represented exactly.

    The defining constraint: value - conjugate(value) is a positive rational
    multiple of a single declared symbol.  Since all symbols are positively
    oriented imaginaries, that makes Im(tau) > 0 a stored fact.
    """

    __slots__ = ("value", "_im_index", "_im_coeff", "_span")

    def __init__(self, value):
        if isinstance(value, Tau):
            value = value.value
        # value - conjugate(value) is twice the odd-degree part of value, so
        # the constraint reads: one odd-degree numerator, on a single symbol
        # to the first power, and positive
        odd = [(m, q) for m, q in value._n.items() if _mono_degree(m) % 2]
        if len(odd) != 1 or len(odd[0][0]) != 1 or odd[0][0][0][1] != 1 or odd[0][1] <= 0:
            raise ValueError(f"not a valid upper-half-plane point: {value}")
        (((k, _),), q), = odd
        self.value = value
        self._im_index = k
        self._im_coeff = Fraction(q, value._d)  # coefficient of the symbol in tau
        # the non-constant numerators of tau, for decompose (never empty)
        self._span = tuple((m, q) for m, q in sorted(value._n.items()) if m != ONE_MONO)

    @property
    def ring(self):
        return self.value.ring

    def conjugate(self):
        return self.value.conjugate()

    def imag_symbol_index(self):
        """Index of the symbol carrying Im(tau)."""
        return self._im_index

    def imag_coeff(self):
        """The positive rational q with tau - conj(tau) = 2*q*symbol."""
        return self._im_coeff

    def is_quadratic_mode(self):
        """True iff tau = q0 + q1*s with s a quadratic symbol."""
        if not self.ring.symbols[self._im_index].is_quadratic:
            return False
        return set(self.value.monomials()) <= {ONE_MONO, ((self._im_index, 1),)}

    def __eq__(self, other):
        return isinstance(other, Tau) and self.value == other.value

    def __hash__(self):
        return hash(("Tau", self.value))

    def __repr__(self):
        return f"Tau({self.value})"


def decompose(x, tau):
    """Write x = a*tau + b with rational a, b.

    x lies in Q*tau + Q exactly when its non-constant numerators are
    proportional to those of tau, on the same monomials; the ratio gives a.

    >>> R = NumberRing([])
    >>> t = Tau(R.i() + 1)
    >>> decompose(2 * t.value - 3, t)
    (Fraction(2, 1), Fraction(-3, 1))
    """
    v = tau.value
    x = v.ring.value(x)
    xn, span = x._n, tau._span
    c = xn.get(ONE_MONO, 0)
    width = len(xn) - (ONE_MONO in xn)
    if not width:
        return Fraction(0), Fraction(c, x._d)
    m0, t0 = span[0]
    x0 = xn.get(m0)
    if (
        x0 is None
        or width != len(span)
        or any(xn.get(m, 0) * t0 != q * x0 for m, q in span[1:])
    ):
        raise NotInSpan(f"{x} is not in Q*tau + Q for tau = {v}")
    # x = (x0 m0 + ... + c)/x_d and tau = (t0 m0 + ... + tc)/tau_d
    den = x._d * t0
    return Fraction(x0 * v._d, den), Fraction(c * t0 - x0 * v._n.get(ONE_MONO, 0), den)


def d_form(tau, x, y):
    """The skew form D_tau with D_tau(tau, 1) = 1: for x = a*tau + b and
    y = a'*tau + b' this is a*b' - b*a'."""
    a, b = decompose(x, tau)
    a2, b2 = decompose(y, tau)
    return a * b2 - b * a2


def in_lattice(x, tau):
    """Membership in Lambda_tau = Z*tau + Z (NotInSpan counts as False)."""
    try:
        a, b = decompose(x, tau)
    except NotInSpan:
        return False
    return a.denominator == 1 and b.denominator == 1


def lattice_coords(x, tau):
    """Integer coordinates (a, b) of a lattice member x = a*tau + b."""
    a, b = decompose(x, tau)
    if a.denominator != 1 or b.denominator != 1:
        raise NotInSpan(f"{x} is not in the lattice of {tau}")
    return int(a), int(b)


def mod_lattice(x, tau):
    """Canonical representative of x modulo Lambda_tau.

    Reduces the tau-coordinate and the rational part into [0, 1) by
    subtracting lattice elements; any components outside Q*tau + Q ride along
    untouched, so the map is constant on cosets for arbitrary ring values.
    """
    x = tau.ring.value(x)
    im_mono = ((tau.imag_symbol_index(), 1),)
    a = x.coeff(im_mono) / tau.imag_coeff()
    out = x - tau.value * floor(a)
    return out - floor(out.coeff(ONE_MONO))


def to_payload(x):
    """Serialize a value as [[monomial, "p/q"], ...] with named symbols."""
    out = []
    for m, q in x.items():
        mono = [[x.ring.symbols[k].name, e] for k, e in m]
        out.append([mono, f"{q.numerator}/{q.denominator}"])
    return out


def _pair(item, what, shape):
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ValueError(f"{what} {item!r} is not a {shape} pair")
    return item


def from_payload(ring, payload):
    """Inverse of to_payload; validates symbol names against the ring.

    Monomials are reduced (s^2 = -d for a quadratic s), and terms on the same
    monomial add up.  Each term is checked in turn, and its integer numerator
    is added over the lcm of the denominators seen so far.
    """
    index = ring._index
    nums, common = {}, 1  # the value so far: sum(nums[m] * m) / common
    for term in payload:
        # a JSON document gives two-item lists; anything else is checked by _pair
        if type(term) is list and len(term) == 2:
            mono, q = term
        else:
            mono, q = _pair(term, "term", "[monomial, coefficient]")
        if not isinstance(mono, (list, tuple)):
            raise ValueError(f"monomial {mono!r} of term {term!r} is not a list")
        exps = {}
        for entry in mono:
            if type(entry) is list and len(entry) == 2:
                name, e = entry
            else:
                name, e = _pair(entry, "monomial entry", "[name, exponent]")
            k = index.get(name) if isinstance(name, str) else None
            if k is None:
                raise ValueError(f"unknown symbol {name!r}")
            if type(e) is not int:
                try:  # through str, so a float or bool is refused, not truncated
                    e = int(str(e))
                except ValueError:
                    raise ValueError(
                        f"exponent {e!r} of symbol {name!r} is not an integer") from None
            e = exps[k] = exps.get(k, 0) + e
            if abs(e) > MAX_QUADRATIC_EXPONENT and ring.symbols[k].is_quadratic:
                raise ValueError(f"exponent {e} of quadratic symbol {name!r} exceeds "
                                 f"the limit {MAX_QUADRATIC_EXPONENT}")
        factor, m = ring._reduce(exps)
        num, _, den = str(q).partition("/")
        try:
            num, den = int(num), int(den) if den else 1
        except ValueError:
            raise ValueError(f"coefficient {q!r} is not an integer or a fraction p/q") from None
        if not den:
            raise ValueError(f"coefficient {q!r} has a zero denominator")
        if factor != 1:  # an int, or a Fraction for a negative quadratic exponent
            num, den = num * factor.numerator, den * factor.denominator
        if den < 0:
            num, den = -num, -den
        if den != common:
            new = lcm(common, den)
            if new != common:
                scale = new // common
                nums = {mm: n * scale for mm, n in nums.items()}
                common = new
            num *= common // den
        nums[m] = nums.get(m, 0) + num
    return _lowest(ring, {m: n for m, n in nums.items() if n}, common)


def approx_complex(x, symbol_values):
    """Float evaluation of x given a complex number for each symbol index.

    Display-only: decision procedures in this package never call this.
    """
    total = 0j
    for m, q in x.items():
        term = complex(q)
        for k, e in m:
            term *= symbol_values[k] ** e
        total += term
    return total


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Smith normal form over Z.

    Returns (U, D, V) with U*mat*V = D, U and V unimodular, D diagonal with
    d_i dividing d_{i+1} and all d_i >= 0.

    >>> U, D, V = smith_normal_form([[4, 0], [0, 6]])
    >>> [D[0][0], D[1][1]]
    [2, 12]
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    A = [[int(v) for v in row] for row in mat]
    U = _identity(rows)
    V = _identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(cols):
            A[i][k] -= q * A[j][k]
        for k in range(rows):
            U[i][k] -= q * U[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for k in range(rows):
            A[k][i] -= q * A[k][j]
        for k in range(cols):
            V[k][i] -= q * V[k][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for k in range(rows):
            A[k][i], A[k][j] = A[k][j], A[k][i]
        for k in range(cols):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero entry of smallest magnitude as pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if A[i][t]:
                q, r = divmod(A[i][t], A[t][t])
                row_op(i, t, q)
                dirty = dirty or r != 0
        for j in range(t + 1, cols):
            if A[t][j]:
                q, r = divmod(A[t][j], A[t][t])
                col_op(j, t, q)
                dirty = dirty or r != 0
        if dirty:
            continue  # smaller remainders appeared; redo this pivot
        # pivot must divide the rest of the submatrix for the chain to work
        stray = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % A[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            row_op(t, stray, -1)  # fold the offending row in and redo
            continue
        if A[t][t] < 0:
            for k in range(cols):
                A[t][k] = -A[t][k]
            for k in range(rows):
                U[t][k] = -U[t][k]
        t += 1
    return U, A, V


def cokernel_invariants(mat, ambient_rank):
    """Invariants (free rank, torsion divisors > 1) of Z^ambient / col(mat).

    ``mat`` has ambient_rank rows; its columns generate the subgroup.
    """
    if not mat or not mat[0]:
        return ambient_rank, []
    _, D, _ = smith_normal_form(mat)
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    nonzero = [d for d in diag if d]
    torsion = [d for d in nonzero if d > 1]
    return ambient_rank - len(nonzero), torsion
