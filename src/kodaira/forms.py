"""Exterior calculus with polynomial coefficients on the universal cover.

Forms live on C^2 in four formal variables (z, zbar, zeta, zetabar) with the
conjugated variables treated as independent; the same engine instantiated
over (x, y, u, v) handles the real picture.  Coefficients are NumberValues,
so every identity here is checked exactly.

The module builds the invariant generators of the de Rham and Dolbeault
cohomologies, verifies their defining identities, and computes the action of
automorphism lifts on Dolbeault cohomology together with traces,
determinants and Lefschetz numbers.  A form is pulled back along a map of the
cover by substituting map_images of its pi1.CoverMap.

The action needs no pullback of forms.  An automorphism lift acts on the
four generating 1-forms (phi1, phi2, phibar1, phibar2) by one 4x4 matrix:
f* phi1 = alpha phi1 and f* phi2 = rho phi1 + phi2, with rho in closed form
from the lift's cover map, and their conjugates.  Every generator of the
invariant-form model is a wedge word in those letters, so f* on it is the
exterior power of that matrix, and its coordinates are read off the words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactfield import DomainError, divide
from .lifts import MapClass, cover_map, descent_check
from .pi1 import generators, to_affine

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


class PolyForm:
    """A differential form: map (variable exponents, wedge word) -> value."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, PolyForm)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return PolyForm(self.ring, out)

    def __neg__(self):
        return PolyForm(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, PolyForm):
            return NotImplemented
        return PolyForm(self.ring, {k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def coeff_at(self, exps, word):
        return self.terms.get((exps, word), self.ring.zero())

    def __repr__(self):
        return format_form(self, COMPLEX_NAMES)


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


def form_zero(ring):
    return PolyForm(ring, {})


def constant(ring, value):
    return PolyForm(ring, {(ZERO_EXPS, ()): ring.value(value)})


def variable(ring, k):
    exps = tuple(1 if j == k else 0 for j in range(4))
    return PolyForm(ring, {(exps, ()): ring.one()})


def differential(ring, k):
    return PolyForm(ring, {(ZERO_EXPS, (k,)): ring.one()})


def wedge(a, b):
    """Graded product; on 0-forms this is plain polynomial multiplication."""
    out = {}
    for (e1, w1), v1 in a.terms.items():
        for (e2, w2), v2 in b.terms.items():
            sign, word = _merge_word(w1, w2)
            if sign == 0:
                continue
            exps = tuple(x + y for x, y in zip(e1, e2))
            key = (exps, word)
            add = v1 * v2 * sign
            cur = out.get(key)
            out[key] = add if cur is None else cur + add
    return PolyForm(a.ring, out)


def _d_vars(a, var_indices):
    out = {}
    for (exps, word), v in a.terms.items():
        for k in var_indices:
            if not exps[k]:
                continue
            sign, new_word = _merge_word((k,), word)
            if sign == 0:
                continue
            new_exps = tuple(e - 1 if j == k else e for j, e in enumerate(exps))
            key = (new_exps, new_word)
            add = v * (exps[k] * sign)
            cur = out.get(key)
            out[key] = add if cur is None else cur + add
    return PolyForm(a.ring, out)


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
        key = (new_exps, new_word)
        add = v.conjugate() * sign
        cur = out.get(key)
        out[key] = add if cur is None else cur + add
    return PolyForm(a.ring, out)


def substitute(a, images, *, d_images=None):
    """Pull back a along the self-map whose variable images are the given
    0-forms; differentials transform through exterior_d of the images.

    A caller pulling back several forms along one map passes the
    differentials of the images as d_images, so they are computed once."""
    ring = a.ring
    if d_images is None:
        d_images = [exterior_d(im) for im in images]
    out = form_zero(ring)
    for (exps, word), v in a.terms.items():
        term = constant(ring, v)
        for k, e in enumerate(exps):
            for _ in range(e):
                term = wedge(term, images[k])
        for k in word:
            term = wedge(term, d_images[k])
        out = out + term
    return out


def map_images(f, ring):
    """The images of (z, zbar, zeta, zetabar) under the CoverMap f, as
    0-forms to substitute."""
    z, zb = variable(ring, 0), variable(ring, 1)
    zeta, zetab = variable(ring, 2), variable(ring, 3)
    return [
        z * f.a + constant(ring, f.b),
        zb * f.a.conjugate() + constant(ring, f.b.conjugate()),
        zeta * f.e + wedge(z, z) * f.q2 + z * f.q1 + constant(ring, f.q0),
        zetab * f.e + wedge(zb, zb) * f.q2.conjugate() + zb * f.q1.conjugate()
        + constant(ring, f.q0.conjugate()),
    ]


def pullback(a, f):
    return substitute(a, map_images(f, a.ring))


def re_value(w):
    return (w + w.conjugate()) * Fraction(1, 2)


def im_value(w, ring=None):
    """Im(w) as a ring value: (w - conj(w)) / (2i)."""
    ring = ring or w.ring
    return (w - w.conjugate()) * ring.i() * Fraction(-1, 2)


def holomorphic_generators(d):
    """phi1 = dz and phi2 = -(c/(tau_B - conj tau_B))(z - zbar) dz + dzeta,
    plus their conjugates."""
    ring = d.ring
    k = divide(d.c, d.tau_b.value - d.tau_b.conjugate())
    z, zb = variable(ring, 0), variable(ring, 1)
    phi1 = differential(ring, 0)
    phi2 = wedge((zb - z) * k, differential(ring, 0)) + differential(ring, 2)
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
# letters in order, so they form the sorted word _merge_word keys products on.
LETTERS = ("phi1", "phi2", "phibar1", "phibar2")


def _letters(label):
    """The letter numbers a label names ("1" names none)."""
    return () if label == "1" else tuple(LETTERS.index(name) for name in label.split("^"))


def real_generators(d):
    """The invariant real 1-forms e^1..e^4 and eps^1..eps^4 on (x, y, u, v)."""
    ring = d.ring
    imt = im_value(d.tau_b.value, ring)
    rc, ic = re_value(d.c), im_value(d.c, ring)
    y = variable(ring, 1)
    dx, dy = differential(ring, 0), differential(ring, 1)
    du, dv = differential(ring, 2), differential(ring, 3)
    e1, e2 = dx, dy
    e3 = du - wedge(y, dx) * divide(rc, imt) + wedge(y, dy) * divide(ic, imt)
    e4 = dv - wedge(y, dx) * divide(ic, imt) - wedge(y, dy) * divide(rc, imt)
    eps3 = e3 * ic - e4 * rc
    eps4 = e3 * rc + e4 * ic
    return {"e1": e1, "e2": e2, "e3": e3, "e4": e4,
            "eps1": e1, "eps2": e2, "eps3": eps3, "eps4": eps4}


def real_deck_images(g, d):
    """The action of the deck of g on (x, y, u, v), as substitution images."""
    ring = d.ring
    aff = to_affine(g, d)
    x, y = variable(ring, 0), variable(ring, 1)
    u, v = variable(ring, 2), variable(ring, 3)
    rl, il = re_value(aff.q1), im_value(aff.q1, ring)
    return [
        x + constant(ring, re_value(aff.b)),
        y + constant(ring, im_value(aff.b, ring)),
        u + x * rl - y * il + constant(ring, re_value(aff.q0)),
        v + x * il + y * rl + constant(ring, im_value(aff.q0, ring)),
    ]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    residual: str = ""


def verify_invariant_generators(d):
    """Check every defining identity of the cohomology generators; returns a
    list of named pass/fail results with residual forms on failure."""
    ring = d.ring
    results = []

    def check(name, got, want, names=COMPLEX_NAMES):
        diff = got - want
        results.append(CheckResult(name, not diff, "" if not diff else format_form(diff, names)))

    gens = generators(d)
    hol = holomorphic_generators(d)
    for j, g in enumerate(gens, start=1):
        images = map_images(to_affine(g, d), ring)
        d_images = [exterior_d(im) for im in images]
        for name in ("phi1", "phi2"):
            pulled = substitute(hol[name], images, d_images=d_images)
            check(f"gamma{j}* {name} = {name}", pulled, hol[name])

    imt = im_value(d.tau_b.value, ring)
    half_i = ring.i() * Fraction(1, 2)
    target = wedge(hol["phi1"], hol["phibar1"]) * (half_i * divide(d.c, imt))
    check("d phi1 = 0", exterior_d(hol["phi1"]), form_zero(ring))
    check("dbar phi2 = (i/2)(c/Im tau_B) phi1^phibar1", dbar(hol["phi2"]), target)
    check("d phi2 = dbar phi2", exterior_d(hol["phi2"]), dbar(hol["phi2"]))

    real = real_generators(d)
    decks = []  # per generator: the deck's real images and their differentials
    for g in gens:
        images = real_deck_images(g, d)
        decks.append((images, [exterior_d(im) for im in images]))
    for j, (images, d_images) in enumerate(decks, start=1):
        for name in ("e1", "e2", "e3", "e4"):
            pulled = substitute(real[name], images, d_images=d_images)
            check(f"gamma{j}* {name} = {name}", pulled, real[name], REAL_NAMES)

    rc, ic = re_value(d.c), im_value(d.c, ring)
    e12 = wedge(real["e1"], real["e2"])
    check("d e3 = (Re c/Im tau_B) e1^e2", exterior_d(real["e3"]), e12 * divide(rc, imt), REAL_NAMES)
    check("d e4 = (Im c/Im tau_B) e1^e2", exterior_d(real["e4"]), e12 * divide(ic, imt), REAL_NAMES)
    check("d eps3 = 0", exterior_d(real["eps3"]), form_zero(ring), REAL_NAMES)

    # the de Rham generators: closed, invariant, and the displayed expansions
    y = variable(ring, 1)
    dx, dy = differential(ring, 0), differential(ring, 1)
    du, dv = differential(ring, 2), differential(ring, 3)
    w = wedge
    norm_c_over_im = divide(d.c * d.c.conjugate(), imt)
    table = {
        "eps1": (real["eps1"], dx),
        "eps2": (real["eps2"], dy),
        "eps3": (real["eps3"], w(y, dy) * norm_c_over_im + du * ic - dv * rc),
        "eps1^eps3": (
            w(real["eps1"], real["eps3"]),
            w(w(y, dx), dy) * norm_c_over_im + w(dx, du) * ic - w(dx, dv) * rc,
        ),
        "eps1^eps4": (w(real["eps1"], real["eps4"]), w(dx, du) * rc + w(dx, dv) * ic),
        "eps2^eps3": (w(real["eps2"], real["eps3"]), w(dy, du) * ic - w(dy, dv) * rc),
        "eps2^eps4": (
            w(real["eps2"], real["eps4"]),
            w(w(y, dx), dy) * norm_c_over_im + w(dy, du) * rc + w(dy, dv) * ic,
        ),
        "eps1^eps2^eps3": (
            w(w(real["eps1"], real["eps2"]), real["eps3"]),
            w(w(dx, dy), du) * ic - w(w(dx, dy), dv) * rc,
        ),
        "eps1^eps3^eps4": (w(w(real["eps1"], real["eps3"]), real["eps4"]), None),
        "eps2^eps3^eps4": (w(w(real["eps2"], real["eps3"]), real["eps4"]), None),
        "eps1^eps2^eps3^eps4": (
            w(w(real["eps1"], real["eps2"]), w(real["eps3"], real["eps4"])),
            w(w(dx, dy), w(du, dv)) * (d.c * d.c.conjugate()),
        ),
    }
    for name, (form, display) in table.items():
        check(f"d ({name}) = 0", exterior_d(form), form_zero(ring), REAL_NAMES)
        for j, (images, d_images) in enumerate(decks, start=1):
            pulled = substitute(form, images, d_images=d_images)
            check(f"gamma{j}* ({name}) invariant", pulled, form, REAL_NAMES)
        if display is not None:
            check(f"{name} expands as displayed", form, display, REAL_NAMES)

    # link between the two pictures: z = x + iy, zeta = u + iv
    x, u_ = variable(ring, 0), variable(ring, 2)
    vv = variable(ring, 3)
    i = ring.i()
    link = [x + y * i, x - y * i, u_ + vv * i, u_ - vv * i]
    check("phi1 = e1 + i e2 under z = x + iy", substitute(hol["phi1"], link),
          real["e1"] + real["e2"] * i, REAL_NAMES)
    check("phi2 = e3 + i e4 under z = x + iy", substitute(hol["phi2"], link),
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
    k = divide(d.c, d.tau_b.value - d.tau_b.conjugate())
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


def _pull_word(letters, images, ring):
    """f* of the wedge of the letters, in their order, as a map from sorted
    words to coefficients; images[k] lists the (letter, coefficient) terms
    of f* of letter k."""
    out = {(): ring.one()}
    for k in letters:
        nxt = {}
        for word, v in out.items():
            for j, a in images[k]:
                sign, merged = _merge_word(word, (j,))
                if sign:
                    add = v * a if sign > 0 else -(v * a)
                    cur = nxt.get(merged)
                    nxt[merged] = add if cur is None else cur + add
        out = nxt
    return out


def dolbeault_action(l, d):
    """The matrices of f* on every H^{p,q}.

    f* acts on the letters (phi1, phi2, phibar1, phibar2) by alpha and rho
    (see rho) and their conjugates; each generator, a wedge word in the
    letters, maps to the wedge of its letters' images.  Its coordinates are
    the coefficients of the basis words once the dbar-exact words are
    dropped; any other word left over is a BasisExpressionFailure."""
    if descent_check(l, d) != MapClass.AUTOMORPHISM:
        raise DomainError("cohomology action applies to automorphism lifts")
    ring = d.ring
    one, al, r = ring.one(), l.alpha, rho(l, d)
    images = (((0, al),), ((0, r), (1, one)), ((2, al.conjugate()),), ((2, r.conjugate()), (3, one)))
    blocks = {}
    for pq in BLOCK_ORDER:
        labels = BASIS_LABELS[pq]
        words = [_letters(label) for label in labels]
        exact = {_letters(label) for label in EXACT_LABELS.get(pq, ())}
        rows = []
        for label, word in zip(labels, words):
            pulled = _pull_word(word, images, ring)
            rows.append(tuple(pulled.pop(w, ring.zero()) for w in words))
            rest = [w for w, v in sorted(pulled.items()) if v and w not in exact]
            if rest:
                names = ", ".join("^".join(LETTERS[k] for k in w) for w in rest)
                raise BasisExpressionFailure(f"f* {label} has terms in {names}, outside the span")
        blocks[pq] = tuple(rows)
    return DolbeaultAction(blocks)


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]


def trace_det(act):
    """Per-bidegree (trace, determinant) plus the totals under key 'total'."""
    some = act.blocks[(0, 0)][0][0]
    ring = some.ring
    out = {}
    tr_total, det_total = ring.zero(), ring.one()
    for pq in BLOCK_ORDER:
        mat = act.blocks[pq]
        tr = sum((mat[j][j] for j in range(len(mat))), ring.zero())
        det = _det(mat)
        out[pq] = (tr, det)
        tr_total = tr_total + tr
        det_total = det_total * det
    out["total"] = (tr_total, det_total)
    return out


def lefschetz(act):
    """Alternating trace sum over total degree; vanishes for automorphisms."""
    some = act.blocks[(0, 0)][0][0]
    ring = some.ring
    total = ring.zero()
    for (p, q), mat in act.blocks.items():
        tr = sum((mat[j][j] for j in range(len(mat))), ring.zero())
        total = total + tr * ((-1) ** (p + q))
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
