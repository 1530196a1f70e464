"""Exterior calculus with polynomial coefficients on the universal cover.

Forms live on C^2 in four formal variables (z, zbar, zeta, zetabar) with the
conjugated variables treated as independent; the same engine instantiated
over (x, y, u, v) handles the real picture.  Coefficients are NumberValues,
so every identity here is checked exactly.

The module builds the invariant generators of the de Rham and Dolbeault
cohomologies, verifies their defining identities, and computes the action of
automorphism lifts on Dolbeault cohomology together with traces,
determinants and Lefschetz numbers.  A form is pulled back along a map of the
cover by substituting map_images of its pi1.CoverMap.  Pullback is a ring
map, so substitute pulls each monomial back as one wedge of the pullback of
a shorter monomial with an image or an image differential; a dict passed as
its memo keeps every monomial pulled back along one map, so the identities
checked along one deck transformation share that work.

The action needs no pullback of forms.  An automorphism lift acts on the
four generating 1-forms (phi1, phi2, phibar1, phibar2) without mixing the
halves (phi1, phi2) and (phibar1, phibar2): f* phi1 = alpha phi1 and
f* phi2 = rho phi1 + phi2, with rho in closed form from the lift's cover
map, give the 2x2 letter matrix ((alpha, 0), (rho, 1)) on the first half,
and its conjugate acts on the second.  Every generator of the invariant-form
model is a wedge word in those letters, split once into its two halves, so
f* on it is the product of the exterior powers (Lambda^0, Lambda^1 or
Lambda^2) of the two matrices on its halves, and its coordinates are read
off the words.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exactfield import DomainError, divide
from .lifts import MapClass, cover_map, descent_check
from .pi1 import generators, to_affine
from .surface import lattice_frame

ZERO_EXPS = (0, 0, 0, 0)

COMPLEX_NAMES = (("z", "zbar", "zeta", "zetabar"), ("dz", "dzbar", "dzeta", "dzetabar"))
REAL_NAMES = (("x", "y", "u", "v"), ("dx", "dy", "du", "dv"))


class NonConstantRho(DomainError):
    """The phi^1 coefficient of f* phi^2 - phi^2 failed to be constant."""


class BasisExpressionFailure(DomainError):
    """A pullback did not land in the span of the listed generators."""


def _merge_word(w1, w2):
    """Concatenate wedge words; returns (sign, sorted word) or (0, ()) when
    an index repeats."""
    word = list(w1)
    sign = 1
    for k in w2:
        if k in word:
            return 0, ()
        pos = len(word)
        while pos > 0 and word[pos - 1] > k:
            pos -= 1
        sign *= -1 if (len(word) - pos) % 2 else 1
        word.insert(pos, k)
    return sign, tuple(word)


# The 16 sorted words in the differentials 0..3, and _MERGE[w1][w2], the
# _merge_word of each pair of them, so the hot loops look products up.
_WORDS = tuple(tuple(k for k in range(4) if m >> k & 1) for m in range(16))
_MERGE = {w1: {w2: _merge_word(w1, w2) for w2 in _WORDS} for w1 in _WORDS}
_VAR_EXPS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_UNIT = (ZERO_EXPS, ())
_HALF = Fraction(1, 2)


def _accumulate(out, key, add):
    """out[key] += add, dropping the key when the sum is zero."""
    cur = out.get(key)
    if cur is None:
        out[key] = add
    else:
        _settle(out, key, cur + add)


def _settle(out, key, total):
    """out[key] = total, or no key when total is zero."""
    if total:
        out[key] = total
    else:
        del out[key]


class PolyForm:
    """A differential form: map (variable exponents, wedge word) -> value."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, PolyForm)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, v)
        return _form(self.ring, out)

    def __neg__(self):
        return _form(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, -v)
        return _form(self.ring, out)

    def __mul__(self, scalar):
        if isinstance(scalar, PolyForm):
            return NotImplemented
        if not scalar:
            return form_zero(self.ring)
        return _form(self.ring, {k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def coeff_at(self, exps, word):
        return self.terms.get((exps, word), self.ring.zero())

    def __repr__(self):
        return format_form(self, COMPLEX_NAMES)


def _form(ring, terms):
    """The PolyForm on terms as given, which must hold no zero value."""
    out = object.__new__(PolyForm)
    out.ring = ring
    out.terms = terms
    return out


def format_form(form, names):
    if not form.terms:
        return "0"
    vars_, diffs = names
    parts = []
    for (exps, word), v in sorted(form.terms.items(), key=lambda t: (len(t[0][1]), t[0])):
        factors = [f"({v})"]
        for k, e in enumerate(exps):
            if e:
                factors.append(vars_[k] + (f"^{e}" if e > 1 else ""))
        factors.extend(diffs[k] for k in word)
        parts.append("*".join(factors))
    return " + ".join(parts)


def _written(ring, coeffs, names):
    """The form with coefficient coeffs[m] on each monomial m, where m is
    written as format_form writes it: factors joined by "*", variables (with
    any power) first, then differentials in order, as in "y^2*dx*dy"."""
    vars_, diffs = names
    terms = {}
    for text, v in coeffs.items():
        exps, word = [0, 0, 0, 0], []
        for factor in text.split("*"):
            if factor in diffs:
                word.append(diffs.index(factor))
            else:
                name, _, power = factor.partition("^")
                exps[vars_.index(name)] += int(power or 1)
        terms[(tuple(exps), tuple(word))] = ring.value(v)
    return PolyForm(ring, terms)


def form_zero(ring):
    return _form(ring, {})


def constant(ring, value):
    return PolyForm(ring, {_UNIT: ring.value(value)})


def variable(ring, k):
    return _form(ring, {(_VAR_EXPS[k], ()): ring.one()})


def differential(ring, k):
    return _form(ring, {(ZERO_EXPS, (k,)): ring.one()})


def wedge(a, b):
    """Graded product; on 0-forms this is plain polynomial multiplication."""
    out = {}
    one = a.ring.one()
    b_terms = b.terms.items()
    for (e1, w1), v1 in a.terms.items():
        merge = _MERGE[w1]
        for (e2, w2), v2 in b_terms:
            sign, word = merge[w2]
            if not sign:
                continue
            exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            add = v2 if v1 is one else v1 if v2 is one else v1 * v2
            if sign < 0:
                add = -add
            key = (exps, word)
            # _accumulate inlined: this loop and substitute's are the hot ones
            cur = out.get(key)
            if cur is None:
                out[key] = add
            else:
                _settle(out, key, cur + add)
    return _form(a.ring, out)


def _d_vars(a, var_indices):
    out = {}
    for (exps, word), v in a.terms.items():
        for k in var_indices:
            e = exps[k]
            if not e:
                continue
            sign, new_word = _MERGE[(k,)][word]
            if not sign:
                continue
            new_exps = exps[:k] + (e - 1,) + exps[k + 1:]
            factor = e * sign
            add = v if factor == 1 else -v if factor == -1 else v * factor
            _accumulate(out, (new_exps, new_word), add)
    return _form(a.ring, out)


def exterior_d(a):
    return _d_vars(a, (0, 1, 2, 3))


def dbar(a):
    """The part of d differentiating the barred variables."""
    return _d_vars(a, (1, 3))


def conjugate_form(a):
    """Complex conjugation: swaps each variable and differential with its
    bar and conjugates coefficients.  Complex instantiation only."""
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    out = {}
    for (exps, word), v in a.terms.items():
        new_exps = (exps[1], exps[0], exps[3], exps[2])
        sign, new_word = _merge_word((), tuple(swap[k] for k in word))
        v = v.conjugate()
        _accumulate(out, (new_exps, new_word), v if sign > 0 else -v)
    return _form(a.ring, out)


def _pulled(key, images, memo):
    """f* of the monomial form key = (exps, word), where f* x_k = images[k],
    for a key not in the memo yet; the result is stored there.  Callers look
    in the memo first."""
    exps, word = key
    # f* of one factor fewer, wedged with f* of the last factor: the last
    # differential, else the last variable
    if word:
        k = word[-1]
        rest, factor = (exps, word[:-1]), (ZERO_EXPS, (k,))
    elif exps != ZERO_EXPS:
        k = max(j for j in range(4) if exps[j])
        rest, factor = (exps[:k] + (exps[k] - 1,) + exps[k + 1:], ()), (_VAR_EXPS[k], ())
    else:  # the constant 1
        ring = images[0].ring
        out = memo[key] = _form(ring, {_UNIT: ring.one()})
        return out
    if rest == _UNIT:
        out = exterior_d(images[k]) if word else images[k]
    else:
        out = wedge(memo.get(rest) or _pulled(rest, images, memo),
                    memo.get(factor) or _pulled(factor, images, memo))
    memo[key] = out
    return out


def substitute(a, images, *, memo=None):
    """Pull back a along the self-map whose variable images are the given
    0-forms; differentials transform through exterior_d of the images.

    Pullback is a ring map, so each monomial x^e dx_w of a pulls back to
    the wedge of the images and their differentials; a is the sum of those
    pullbacks scaled by its coefficients.  memo maps each monomial, the
    differentials dx_k among them, to its pullback.  A caller pulling back
    several forms along one map passes one dict for that map, so every
    monomial is pulled back once per map; a memo holds pullbacks along its
    own images only, so it must not be passed with other images."""
    if memo is None:
        memo = {}
    out = {}
    one = a.ring.one()
    for key, v in a.terms.items():
        pulled = memo.get(key) or _pulled(key, images, memo)
        for k, w in pulled.terms.items():
            add = w if v is one else v if w is one else w * v
            cur = out.get(k)
            if cur is None:
                out[k] = add
            else:
                _settle(out, k, cur + add)
    return _form(a.ring, out)


def _polynomial(ring, coeffs):
    """The 0-form with coefficient coeffs[exps] on each monomial x^exps."""
    return _form(ring, {(exps, ()): v for exps, v in coeffs.items() if v})


def map_images(f, ring):
    """The images of (z, zbar, zeta, zetabar) under the CoverMap f, as
    0-forms to substitute."""
    z, zb, zeta, zetab = _VAR_EXPS
    e = ring.value(f.e)
    return [
        _polynomial(ring, {z: f.a, ZERO_EXPS: f.b}),
        _polynomial(ring, {zb: f.a.conjugate(), ZERO_EXPS: f.b.conjugate()}),
        _polynomial(ring, {zeta: e, (2, 0, 0, 0): f.q2, z: f.q1, ZERO_EXPS: f.q0}),
        _polynomial(ring, {zetab: e, (0, 2, 0, 0): f.q2.conjugate(), zb: f.q1.conjugate(),
                           ZERO_EXPS: f.q0.conjugate()}),
    ]


def pullback(a, f):
    return substitute(a, map_images(f, a.ring))


def re_value(w):
    """Re(w) as a ring value: (w + conj(w)) / 2; a rational w is real."""
    if w.is_rational():
        return w
    return (w + w.conjugate()) * _HALF


def im_value(w, ring=None):
    """Im(w) as a ring value: (w - conj(w)) / (2i); a rational w has none."""
    ring = ring or w.ring
    if w.is_rational():
        return ring.zero()
    return (w.conjugate() - w) * ring.i() * _HALF


def holomorphic_generators(d):
    """phi1 = dz and phi2 = -(c/(tau_B - conj tau_B))(z - zbar) dz + dzeta,
    plus their conjugates."""
    ring = d.ring
    k = lattice_frame(d).shear
    phi1 = differential(ring, 0)
    phi2 = _written(ring, {"zbar*dz": k, "z*dz": -k, "dzeta": ring.one()}, COMPLEX_NAMES)
    return {
        "phi1": phi1,
        "phi2": phi2,
        "phibar1": conjugate_form(phi1),
        "phibar2": conjugate_form(phi2),
    }


# The generators of each H^{p,q}, and the dbar-exact forms used to reduce
# pullbacks in bidegrees (1,1) and (1,2), each named by its wedge factors.
BASIS_LABELS = {
    (0, 0): ("1",),
    (1, 0): ("phi1",),
    (0, 1): ("phibar1", "phibar2"),
    (2, 0): ("phi1^phi2",),
    (1, 1): ("phi1^phibar2", "phi2^phibar1"),
    (0, 2): ("phibar1^phibar2",),
    (2, 1): ("phi1^phi2^phibar1", "phi1^phi2^phibar2"),
    (1, 2): ("phi2^phibar1^phibar2",),
    (2, 2): ("phi1^phi2^phibar1^phibar2",),
}
EXACT_LABELS = {(1, 1): ("phi1^phibar1",), (1, 2): ("phi1^phibar1^phibar2",)}
BLOCK_ORDER = tuple(BASIS_LABELS)
# The letters of those words, numbered in this order; each label lists its
# letters in order, holomorphic (0, 1) before antiholomorphic (2, 3).
LETTERS = ("phi1", "phi2", "phibar1", "phibar2")


@cache
def _split(label):
    """The word a label names as its (holomorphic, antiholomorphic) halves,
    each a sorted word in 0, 1; "1" names the empty word."""
    letters = () if label == "1" else tuple(LETTERS.index(name) for name in label.split("^"))
    return tuple(k for k in letters if k < 2), tuple(k - 2 for k in letters if k > 1)


_BASIS_WORDS = {pq: tuple(_split(label) for label in labels) for pq, labels in BASIS_LABELS.items()}


def real_generators(d):
    """The invariant real 1-forms e^1..e^4 and eps^1..eps^4 on (x, y, u, v)."""
    ring = d.ring
    imt = im_value(d.tau_b.value, ring)
    rc, ic = re_value(d.c), im_value(d.c, ring)
    a, b = divide(rc, imt), divide(ic, imt)
    one = ring.one()
    e1, e2 = differential(ring, 0), differential(ring, 1)
    e3 = _written(ring, {"du": one, "y*dx": -a, "y*dy": b}, REAL_NAMES)
    e4 = _written(ring, {"dv": one, "y*dx": -b, "y*dy": -a}, REAL_NAMES)
    eps3 = e3 * ic - e4 * rc
    eps4 = e3 * rc + e4 * ic
    return {"e1": e1, "e2": e2, "e3": e3, "e4": e4,
            "eps1": e1, "eps2": e2, "eps3": eps3, "eps4": eps4}


def real_deck_images(f, ring):
    """The action of the deck transformation f, a CoverMap with a = e = 1
    and q2 = 0, on (x, y, u, v), as substitution images."""
    x, y, u, v = _VAR_EXPS
    one = ring.one()
    rl, il = re_value(f.q1), im_value(f.q1, ring)
    return [
        _polynomial(ring, {x: one, ZERO_EXPS: re_value(f.b)}),
        _polynomial(ring, {y: one, ZERO_EXPS: im_value(f.b, ring)}),
        _polynomial(ring, {u: one, x: rl, y: -il, ZERO_EXPS: re_value(f.q0)}),
        _polynomial(ring, {v: one, x: il, y: rl, ZERO_EXPS: im_value(f.q0, ring)}),
    ]


class CheckResult(NamedTuple):
    """One named identity: whether it holds, and got - want when not."""

    name: str
    ok: bool
    residual: str = ""


def verify_invariant_generators(d):
    """Check every defining identity of the cohomology generators; returns a
    list of named pass/fail results with residual forms on failure."""
    ring = d.ring
    results = []

    def check(name, got, want, names=COMPLEX_NAMES):
        if got == want:
            results.append(CheckResult(name, True))
        else:
            results.append(CheckResult(name, False, format_form(got - want, names)))

    decks = [to_affine(g, d) for g in generators(d)]
    hol = holomorphic_generators(d)
    for j, f in enumerate(decks, start=1):
        images, memo = map_images(f, ring), {}
        for name in ("phi1", "phi2"):
            pulled = substitute(hol[name], images, memo=memo)
            check(f"gamma{j}* {name} = {name}", pulled, hol[name])

    imt = im_value(d.tau_b.value, ring)
    half_i = ring.i() * _HALF
    target = wedge(hol["phi1"], hol["phibar1"]) * (half_i * divide(d.c, imt))
    check("d phi1 = 0", exterior_d(hol["phi1"]), form_zero(ring))
    dbar_phi2 = dbar(hol["phi2"])
    check("dbar phi2 = (i/2)(c/Im tau_B) phi1^phibar1", dbar_phi2, target)
    check("d phi2 = dbar phi2", exterior_d(hol["phi2"]), dbar_phi2)

    real = real_generators(d)
    # per deck: its real images and the memo of the monomials they pull back
    real_decks = [(real_deck_images(f, ring), {}) for f in decks]
    for j, (images, memo) in enumerate(real_decks, start=1):
        for name in ("e1", "e2", "e3", "e4"):
            pulled = substitute(real[name], images, memo=memo)
            check(f"gamma{j}* {name} = {name}", pulled, real[name], REAL_NAMES)

    rc, ic = re_value(d.c), im_value(d.c, ring)
    e12 = wedge(real["e1"], real["e2"])
    check("d e3 = (Re c/Im tau_B) e1^e2", exterior_d(real["e3"]), e12 * divide(rc, imt), REAL_NAMES)
    check("d e4 = (Im c/Im tau_B) e1^e2", exterior_d(real["e4"]), e12 * divide(ic, imt), REAL_NAMES)
    check("d eps3 = 0", exterior_d(real["eps3"]), form_zero(ring), REAL_NAMES)

    # the de Rham generators: closed, invariant, and the displayed expansions
    w = wedge
    one, norm_c = ring.one(), d.c * d.c.conjugate()
    norm_c_over_im = divide(norm_c, imt)

    def shown(coeffs):
        return _written(ring, coeffs, REAL_NAMES)

    table = {
        "eps1": (real["eps1"], shown({"dx": one})),
        "eps2": (real["eps2"], shown({"dy": one})),
        "eps3": (real["eps3"], shown({"y*dy": norm_c_over_im, "du": ic, "dv": -rc})),
        "eps1^eps3": (
            w(real["eps1"], real["eps3"]),
            shown({"y*dx*dy": norm_c_over_im, "dx*du": ic, "dx*dv": -rc}),
        ),
        "eps1^eps4": (w(real["eps1"], real["eps4"]), shown({"dx*du": rc, "dx*dv": ic})),
        "eps2^eps3": (w(real["eps2"], real["eps3"]), shown({"dy*du": ic, "dy*dv": -rc})),
        "eps2^eps4": (
            w(real["eps2"], real["eps4"]),
            shown({"y*dx*dy": norm_c_over_im, "dy*du": rc, "dy*dv": ic}),
        ),
        "eps1^eps2^eps3": (
            w(w(real["eps1"], real["eps2"]), real["eps3"]),
            shown({"dx*dy*du": ic, "dx*dy*dv": -rc}),
        ),
        "eps1^eps3^eps4": (w(w(real["eps1"], real["eps3"]), real["eps4"]), None),
        "eps2^eps3^eps4": (w(w(real["eps2"], real["eps3"]), real["eps4"]), None),
        "eps1^eps2^eps3^eps4": (
            w(w(real["eps1"], real["eps2"]), w(real["eps3"], real["eps4"])),
            shown({"dx*dy*du*dv": norm_c}),
        ),
    }
    for name, (form, display) in table.items():
        check(f"d ({name}) = 0", exterior_d(form), form_zero(ring), REAL_NAMES)
        for j, (images, memo) in enumerate(real_decks, start=1):
            pulled = substitute(form, images, memo=memo)
            check(f"gamma{j}* ({name}) invariant", pulled, form, REAL_NAMES)
        if display is not None:
            check(f"{name} expands as displayed", form, display, REAL_NAMES)

    # link between the two pictures: z = x + iy, zeta = u + iv
    x, y, u, v = _VAR_EXPS
    i = ring.i()
    link = [_polynomial(ring, {x: one, y: i}), _polynomial(ring, {x: one, y: -i}),
            _polynomial(ring, {u: one, v: i}), _polynomial(ring, {u: one, v: -i})]
    memo = {}
    check("phi1 = e1 + i e2 under z = x + iy", substitute(hol["phi1"], link, memo=memo),
          real["e1"] + real["e2"] * i, REAL_NAMES)
    check("phi2 = e3 + i e4 under z = x + iy", substitute(hol["phi2"], link, memo=memo),
          real["e3"] + real["e4"] * i, REAL_NAMES)
    return results


def rho(l, d):
    """The constant with f* phi2 = rho phi1 + phi2, for |alpha| = 1.

    With k = c/(tau_B - conj tau_B), phi2 = k (zbar - z) dz + dzeta, and the
    cover map (a, b, e, q2, q1, q0) pulls it back to
    phi2 + (q1 + k a (conj b - b)) phi1 + (2 q2 - k (a^2 - 1)) z dz,
    so rho is constant exactly when q2 = k (a^2 - 1) / 2."""
    if (l.alpha * l.alpha.conjugate()).rational() != 1:
        raise DomainError("rho is defined for automorphism lifts with |alpha| = 1")
    f = cover_map(l, d)
    k = lattice_frame(d).shear
    z_term = f.q2 * 2 - k * (f.a * f.a - 1)
    if z_term:
        raise NonConstantRho(f"f* phi2 - phi2 = rho phi1 + ({z_term}) z dz: rho is not constant")
    return f.q1 + k * f.a * (f.b.conjugate() - f.b)


class DolbeaultAction:
    """Matrices of f* per bidegree; row j holds the basis coordinates of the
    image of the j-th generator in BASIS_LABELS."""

    def __init__(self, blocks):
        self.blocks = blocks
        sizes = {pq: len(mat) for pq, mat in blocks.items()}
        expected = {pq: len(labels) for pq, labels in BASIS_LABELS.items()}
        if sizes != expected:
            raise ValueError(f"block sizes {sizes} do not match the Hodge numbers")


def _exterior_powers(m00, m01, m10, m11):
    """Lambda^0, Lambda^1 and Lambda^2 of the 2x2 matrix whose row j holds the
    image of letter j: each half word mapped to {half word: coefficient},
    with no zero coefficient kept."""
    rows = {(): {(): m00.ring.one()}, (0,): {(0,): m00, (1,): m01},
            (1,): {(0,): m10, (1,): m11}, (0, 1): {(0, 1): m00 * m11 - m01 * m10}}
    return {w: {k: v for k, v in row.items() if v} for w, row in rows.items()}


def _letters(word):
    """The letter numbers of the split word (holomorphic, antiholomorphic)."""
    hol, anti = word
    return hol + tuple(k + 2 for k in anti)


def dolbeault_action(l, d):
    """The matrices of f* on every H^{p,q}.

    f* never mixes (phi1, phi2) with (phibar1, phibar2): it acts on each half
    by a 2x2 letter matrix, ((alpha, 0), (rho, 1)) (see rho) and its
    conjugate.  A generator, a wedge word split into its two halves, maps to
    the product of the exterior powers of those matrices on its halves.  Its
    coordinates are the coefficients of the basis words once the dbar-exact
    words are dropped; any other word left over is a BasisExpressionFailure."""
    if descent_check(l, d) != MapClass.AUTOMORPHISM:
        raise DomainError("cohomology action applies to automorphism lifts")
    zero, one, al, r = d.ring.zero(), d.ring.one(), l.alpha, rho(l, d)
    hol = _exterior_powers(al, zero, r, one)
    anti = _exterior_powers(al.conjugate(), zero, r.conjugate(), one)
    # f* keeps bidegree, so one set serves every block
    exact = {_split(label) for labels in EXACT_LABELS.values() for label in labels}
    blocks = {}
    for pq, words in _BASIS_WORDS.items():
        rows = []
        for label, (h, a) in zip(BASIS_LABELS[pq], words):
            pulled = {(h2, a2): y if x is one else x if y is one else x * y
                      for h2, x in hol[h].items() for a2, y in anti[a].items()}
            rows.append(tuple([pulled.pop(w, zero) for w in words]))
            rest = [w for w, v in pulled.items() if v and w not in exact]
            if rest:
                names = ", ".join("^".join(LETTERS[k] for k in _letters(w))
                                  for w in sorted(rest, key=_letters))
                raise BasisExpressionFailure(f"f* {label} has terms in {names}, outside the span")
        blocks[pq] = tuple(rows)
    return DolbeaultAction(blocks)


def _trace(mat):
    return mat[0][0] if len(mat) == 1 else mat[0][0] + mat[1][1]


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]


def trace_det(act):
    """Per-bidegree (trace, determinant) plus the totals under key 'total'."""
    out = {pq: (_trace(act.blocks[pq]), _det(act.blocks[pq])) for pq in BLOCK_ORDER}
    tr_total, det_total = out[BLOCK_ORDER[0]]
    for pq in BLOCK_ORDER[1:]:
        tr, det = out[pq]
        tr_total, det_total = tr_total + tr, det_total * det
    out["total"] = (tr_total, det_total)
    return out


def lefschetz(act):
    """Alternating trace sum over total degree; vanishes for automorphisms."""
    total = None
    for (p, q), mat in act.blocks.items():
        tr = _trace(mat) if (p + q) % 2 == 0 else -_trace(mat)
        total = tr if total is None else total + tr
    return total


def is_symplectic(l):
    """Whether f* fixes the holomorphic symplectic form phi1 ^ phi2."""
    return l.alpha == l.alpha.ring.one()


def acts_trivially_on_cohomology(l, d):
    """True exactly when every Dolbeault block is the identity: alpha = 1
    and rho = 0."""
    if l.alpha != d.ring.one():
        return False
    return not rho(l, d)
