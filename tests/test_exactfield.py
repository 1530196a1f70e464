"""Ring arithmetic, lattice helpers, Smith normal form, serialization."""

import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kodaira.exactfield import (
    MAX_QUADRATIC_D,
    NotInSpan,
    NotInvertible,
    NumberRing,
    NumberValue,
    SymbolDecl,
    Tau,
    approx_complex,
    cokernel_invariants,
    d_form,
    decompose,
    divide,
    from_payload,
    in_lattice,
    lattice_coords,
    mod_lattice,
    smith_normal_form,
    to_payload,
)
from kodaira.scene import bundled_scene, parse_scene

R = NumberRing()
I = R.i()
RH = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
R3 = RH.symbol("r3")
I_RH = RH.i()
RT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=2.5)])
T = RT.symbol("t")

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=9)


def combo(ring, coeffs):
    out = ring.value(coeffs[0])
    for s, q in zip(ring.symbols, coeffs[1:]):
        out = out + ring.symbol(s.name) * q
    return out


@given(st.lists(fracs, min_size=3, max_size=3),
       st.lists(fracs, min_size=3, max_size=3),
       st.lists(fracs, min_size=3, max_size=3))
def test_ring_laws(a, b, c):
    x, y, z = combo(RH, a), combo(RH, b), combo(RH, c)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x - x == RH.zero()
    assert x * RH.one() == x


def test_quadratic_squares():
    assert I * I == -R.one()
    assert R3 * R3 == RH.value(-3)
    assert T * T != RT.value(-1) * RT.one() * 0  # t^2 stays formal
    assert (T * T).conjugate() == T * T


@given(st.lists(fracs, min_size=3, max_size=3), st.lists(fracs, min_size=3, max_size=3))
def test_conjugation_is_a_ring_involution(a, b):
    x, y = combo(RT, a), combo(RT, b)
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(st.lists(fracs, min_size=3, max_size=3),
       st.integers(-5, 5).filter(bool), st.integers(-5, 5), st.integers(-5, 5))
def test_divide_inverts_multiplication(a, p, q, r):
    x = combo(RH, a)
    y = combo(RH, [Fraction(p), Fraction(q), Fraction(r)])
    assert divide(x * y, y) == x


def test_divide_frozen_values():
    assert divide(R.one(), 2 * I) == I * Fraction(-1, 2)
    assert divide(RH.one(), RH.one() + R3) == (RH.one() - R3) * Fraction(1, 4)
    # transcendental factors invert to negative exponents
    inv = divide(RT.one(), T)
    assert inv * T == RT.one()
    assert divide(T * T + T, T) == T + RT.one()


def test_divide_rejects_mixed_transcendental_sums():
    with pytest.raises(NotInvertible):
        divide(RT.one(), T + RT.one())


def test_tau_validation():
    Tau(I)
    Tau(2 * I + R.value(5))
    with pytest.raises(ValueError):
        Tau(R.one())
    with pytest.raises(ValueError):
        Tau(-I)


@given(fracs, fracs)
def test_decompose_round_trip(a, b):
    tau = Tau(2 * I + R.one())
    x = tau.value * a + R.value(b)
    assert decompose(x, tau) == (a, b)
    assert in_lattice(x, tau) == (a.denominator == 1 and b.denominator == 1)


def test_decompose_rejects_foreign_directions():
    with pytest.raises(NotInSpan):
        decompose(T, Tau(RT.i()))
    assert not in_lattice(T, Tau(RT.i()))
    with pytest.raises(NotInSpan):
        decompose(RT.i() + T, Tau(RT.i()))
    # tau with two non-constant monomials: i*r3 is real, so Im(tau) = 1
    tau = Tau(I_RH + I_RH * R3)
    assert decompose(tau.value * 2 + 1, tau) == (2, 1)
    assert decompose(tau.value * Fraction(-1, 3), tau) == (Fraction(-1, 3), 0)
    for x in (I_RH * 2 + I_RH * R3 * 3, I_RH, I_RH * R3 + 1):
        with pytest.raises(NotInSpan):
            decompose(x, tau)


@given(st.integers(-9, 9), st.integers(-9, 9))
def test_lattice_coords_and_mod(a, b):
    tau = Tau(R3 + RH.one())
    x = tau.value * a + RH.value(b)
    assert lattice_coords(x, tau) == (a, b)
    shifted = x + RH.value(Fraction(1, 3))
    red = mod_lattice(shifted, tau)
    assert in_lattice(shifted - red, tau)
    ra, rb = decompose(red, tau)
    assert 0 <= ra < 1 and 0 <= rb < 1


@given(fracs, fracs, fracs, fracs)
def test_d_form_is_alternating_and_bilinear(a, b, c, d):
    tau = Tau(R3)
    x = tau.value * a + RH.value(b)
    y = tau.value * c + RH.value(d)
    assert d_form(tau, x, y) == -d_form(tau, y, x)
    assert d_form(tau, x, x) == 0
    assert d_form(tau, x + y, y) == d_form(tau, x, y)
    # pairing against 1 reads off the tau-coordinate: (x - conj x)/(tau - conj tau)
    assert x - x.conjugate() == (tau.value - tau.conjugate()) * d_form(tau, x, RH.one())


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4))
@settings(max_examples=60)
def test_smith_normal_form_properties(mat):
    U, D, V = smith_normal_form(mat)

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
                 for j in range(len(B[0]))] for i in range(len(A))]

    def det2plus(M):
        if len(M) == 1:
            return M[0][0]
        if len(M) == 2:
            return M[0][0] * M[1][1] - M[0][1] * M[1][0]
        return sum((-1) ** j * M[0][j] * det2plus(
            [row[:j] + row[j + 1:] for row in M[1:]]) for j in range(len(M)))

    assert matmul(matmul(U, mat), V) == D
    assert abs(det2plus(U)) == 1 and abs(det2plus(V)) == 1
    diag = [D[r][r] for r in range(min(len(D), len(D[0])))]
    for r in range(len(D)):
        for s in range(len(D[0])):
            if r != s:
                assert D[r][s] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and (a == 0 or b % a == 0 or b == 0)


def test_cokernel_invariants_frozen():
    assert cokernel_invariants([[4, 0], [0, 6]], 2) == (0, [2, 12])
    assert cokernel_invariants([[2], [0]], 2) == (1, [2])
    assert cokernel_invariants([], 3) == (3, [])
    assert cokernel_invariants([[1], [0]], 2) == (1, [])


@given(st.lists(fracs, min_size=3, max_size=3))
def test_payload_round_trip(a):
    x = combo(RT, a)
    if a[2]:
        x = divide(x, T)  # force a negative exponent into the payload
    assert from_payload(RT, to_payload(x)) == x


def test_approx_complex():
    assert approx_complex(I, [1j]) == 1j
    assert approx_complex(R.value(Fraction(3, 2)), [1j]) == 1.5
    assert abs(approx_complex(R3, [1j, 3 ** 0.5 * 1j]) - 1.7320508075688772j) < 1e-15
    assert abs(approx_complex(T, [1j, 2.5j]) - 2.5j) < 1e-15
    assert approx_complex(divide(RT.one(), T), [1j, 2.5j]) == 1 / 2.5j


def test_from_payload_adds_repeated_monomials():
    assert from_payload(R, [[[], "1/1"], [[], "1/1"]]) == R.value(2)
    assert from_payload(R, [[[["i", 1]], "1/2"], [[["i", 1]], "1/2"], [[], "3/1"]]) == I + 3
    # monomials are reduced on the way in
    assert from_payload(RH, [[[["r3", 3]], "1/1"]]) == R3 * -3
    assert from_payload(R, [[[["i", 1], ["i", 2]], "1/1"]]) == -I
    assert from_payload(RH, [[[["r3", -1]], "1/1"]]) == divide(RH.one(), R3)


def _from_payload_reference(ring, payload):
    """from_payload as first written: one NumberValue of Fractions per term,
    added to the total."""
    from kodaira.exactfield import _pair
    total = ring.zero()
    for term in payload:
        mono, q = _pair(term, "term", "[monomial, coefficient]")
        if not isinstance(mono, (list, tuple)):
            raise ValueError(f"monomial {mono!r} of term {term!r} is not a list")
        exps = {}
        for entry in mono:
            name, e = _pair(entry, "monomial entry", "[name, exponent]")
            if not isinstance(name, str) or name not in ring._index:
                raise ValueError(f"unknown symbol {name!r}")
            k = ring._index[name]
            try:
                exps[k] = exps.get(k, 0) + int(str(e))
            except ValueError:
                raise ValueError(f"exponent {e!r} of symbol {name!r} is not an integer") from None
        factor, m = ring._reduce(exps)
        num, _, den = str(q).partition("/")
        try:
            num, den = int(num), int(den) if den else 1
        except ValueError:
            raise ValueError(f"coefficient {q!r} is not an integer or a fraction p/q") from None
        if not den:
            raise ValueError(f"coefficient {q!r} has a zero denominator")
        total = total + NumberValue(ring, {m: Fraction(num, den) * factor})
    return total


RHT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3), SymbolDecl("t")])
_valid_terms = st.tuples(
    st.lists(st.tuples(st.sampled_from(["i", "r3", "t"]), st.integers(-3, 4)).map(list),
             max_size=3),
    st.one_of(st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30),
                        st.integers(-6, 6).filter(bool)),
              st.integers(-30, 30)),
).map(list)
_bad_terms = st.one_of(
    st.tuples(st.lists(st.tuples(st.sampled_from(["i", "z", 5]),
                                 st.sampled_from([1, 1.5, True, "2", "x"])).map(list),
                       max_size=2),
              st.sampled_from(["7", "1/0", "x", "1/x", "", "2/3/4", 1.5])).map(list),
    st.sampled_from([[], [[]], "i", [["i"], "1"], [["i", 1, 2], "1"], [["i", 1], "1/2", 3]]),
)
# from_payload reads two-item lists directly and sends every other shape
# through _pair: valid terms and entries given as tuples, and entries that are
# not lists at all, keep that path covered
_tuple_terms = _valid_terms.map(lambda t: (tuple(tuple(e) for e in t[0]), t[1]))
_odd_entries = st.tuples(
    st.lists(st.one_of(st.tuples(st.sampled_from(["i", "r3", "t"]), st.integers(-2, 2)),
                       st.sampled_from(["i", 5, None, {"i": 1}, ("t",), ["r3", 1, 1]])),
             max_size=3),
    st.sampled_from(["1/2", "-3", 4]),
).map(list)
_payloads = st.one_of(st.lists(_valid_terms, max_size=5),
                      st.lists(st.one_of(_valid_terms, _bad_terms), max_size=5),
                      st.lists(st.one_of(_valid_terms, _tuple_terms, _odd_entries), max_size=5))


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_from_payload_against_the_reference(payload):
    # same value in the same storage, or the same error message
    try:
        want = _from_payload_reference(RHT, payload)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_payload(RHT, payload)
        assert str(got.value) == str(exc)
        return
    got = from_payload(RHT, payload)
    assert got == want and (got._n, got._d) == (want._n, want._d)


def test_values_are_stored_in_lowest_terms():
    x = NumberValue(RH, {(): Fraction(2, 6), ((1, 1),): Fraction(-4, 6)})
    assert (x._d, x._n) == (3, {(): 1, ((1, 1),): -2})
    y = x * 3 + R3 * 2
    assert (y._d, y._n) == (1, {(): 1})
    assert hash(x) == hash(combo(RH, [Fraction(1, 3), 0, Fraction(-2, 3)]))
    assert x.items() == (((), Fraction(1, 3)), (((1, 1),), Fraction(-2, 3)))
    assert repr(x) == "1/3 - 2/3*r3"


def test_pow_is_repeated_multiplication():
    x = RH.one() + R3 * Fraction(1, 2)
    acc = RH.one()
    for n in range(9):
        assert x ** n == acc
        acc = acc * x
    with pytest.raises(ValueError):
        x ** -1


def test_symbol_d_is_capped():
    # trial division up to sqrt(d) would not finish for a d this large
    with pytest.raises(ValueError, match="'s'"):
        SymbolDecl("s", d=10**40 + 1)
    with pytest.raises(ValueError, match="exceeds"):
        SymbolDecl("s", d=MAX_QUADRATIC_D + 1)
    assert SymbolDecl("s", d=MAX_QUADRATIC_D - 11).is_quadratic  # a prime


def test_dependent_symbols_found_beyond_float_precision():
    # d's p1 p2, p2 p3, p3 p4, p4 p1 multiply to (p1 p2 p3 p4)^2, about 10**32:
    # past 2**53 a float square root rounds up here and misses the square
    p1, p2, p3, p4 = 10007, 10009, 10037, 10039
    ds = [p1 * p2, p2 * p3, p3 * p4, p4 * p1]
    with pytest.raises(ValueError, match="dependent"):
        NumberRing([SymbolDecl(f"s{k}", d=d) for k, d in enumerate(ds)])
    NumberRing([SymbolDecl(f"s{k}", d=d) for k, d in enumerate(ds[:3])])


def _first_primes(n):
    out, k = [], 2
    while len(out) < n:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def test_independence_check_scales_to_many_symbols():
    # every even subset was once tried, 2^30 of them here
    started = time.perf_counter()
    ring = NumberRing([SymbolDecl(f"s{p}", d=p) for p in _first_primes(30)])
    assert time.perf_counter() - started < 1.0
    assert len(ring.symbols) == 31


def test_dependent_symbols_are_rejected():
    # with i (d = 1): 1 * 2 * 3 * 6 = 36 is a square
    with pytest.raises(ValueError, match="product of d's 36 is a square"):
        NumberRing([SymbolDecl("a", d=2), SymbolDecl("b", d=3), SymbolDecl("c", d=6)])
    with pytest.raises(ValueError, match="product of d's 49 is a square"):
        NumberRing([SymbolDecl("a", d=7), SymbolDecl("b", d=7)])
    # no even-sized subset of {1, 2, 3, 5} has a square product
    NumberRing([SymbolDecl("a", d=2), SymbolDecl("b", d=3), SymbolDecl("c", d=5)])


@pytest.mark.parametrize("approx", ["x", True, 0, -1.5, float("nan"), float("inf"),
                                    pytest.param(10**400, id="huge")])
def test_symbol_approx_must_be_a_finite_positive_real(approx):
    with pytest.raises(ValueError, match=r"'t'.*approx"):
        SymbolDecl("t", approx=approx)


def test_symbol_approx_accepts_positive_reals():
    for approx in (2.5, 3, Fraction(22, 7)):
        assert SymbolDecl("t", approx=approx).approx == approx


# r2 and t both sit at index 1 of their rings, so combining by monomial
# index alone would read one as the other
R2 = NumberRing([SymbolDecl("r2", d=2)])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, divide],
                         ids=["add", "sub", "mul", "divide"])
def test_values_of_different_rings_do_not_combine(op):
    r2 = R2.symbol("r2")
    for x, y in ((r2, T), (T, r2), (R2.zero(), T), (R2.one(), T), (r2, RT.one())):
        with pytest.raises(ValueError, match="ring mismatch"):
            op(x, y)


def test_equal_rings_from_a_scene_parsed_twice_combine():
    doc = bundled_scene("order6")
    a, b = parse_scene(doc).data, parse_scene(doc).data
    assert a.ring is not b.ring and a.ring == b.ring
    x, y = a.tau_b.value, b.tau_b.value
    assert x + y == y + x == x * 2
    assert x - y == a.ring.zero()
    assert x * y == x * x
    assert divide(x, y) == a.ring.one()
