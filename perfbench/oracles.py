"""Correctness oracles that share no code with ``kodaira``.

Every check here works on plain data: ring values arrive as payloads
(``[[[symbol, exponent], ...], "p/q"], ...]``, the scene-file format) and are
evaluated numerically with mpmath at 30 digits.  Lifts are treated as maps of
C^2 through the formula stated in the ``lifts`` module docstring, deck
transformations through the README generators g1..g4, and Dolbeault blocks
through the paper's closed-form table.  Each ``check_*`` returns None when the
answer passes and a short reason when it does not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath

mpmath.mp.dps = 30

TOL = mpmath.mpf(10) ** -20
LATTICE_TOL = mpmath.mpf(10) ** -15

# A few fixed points of C^2 at which two maps are compared.
SAMPLE_POINTS = (
    (mpmath.mpc("0.3", "0.2"), mpmath.mpc("-0.1", "0.7")),
    (mpmath.mpc("-1.1", "0.45"), mpmath.mpc("0.5", "-0.3")),
    (mpmath.mpc("0.77", "-1.3"), mpmath.mpc("2.25", "1.5")),
)


def close(x, y):
    return abs(x - y) <= TOL * max(1, abs(x), abs(y))


def symbol_values(ring_doc):
    """Numeric value of each declared symbol: i*sqrt(d) or i*approx."""
    out = {"i": mpmath.mpc(0, 1)}
    for s in ring_doc:
        if s.get("d") is not None:
            out[s["name"]] = mpmath.mpc(0, mpmath.sqrt(s["d"]))
        else:
            out[s["name"]] = mpmath.mpc(0, mpmath.mpf(s["approx"]))
    return out


def evaluate(payload, syms):
    total = mpmath.mpc(0)
    for mono, q in payload:
        num, _, den = str(q).partition("/")
        term = mpmath.mpf(int(num)) / int(den or 1)
        for name, e in mono:
            term = term * syms[name] ** int(e)
        total += term
    return total


def canonical(payload):
    """A payload as {monomial: Fraction}, zero terms dropped, equal monomials
    summed: two payloads of one value give equal dicts."""
    out = {}
    for mono, q in payload:
        m = tuple(sorted((name, int(e)) for name, e in mono if int(e)))
        out[m] = out.get(m, Fraction(0)) + Fraction(str(q))
    return {m: q for m, q in out.items() if q}


def near_int(x):
    n = int(mpmath.nint(x))
    return n if abs(x - n) <= LATTICE_TOL * max(1, abs(x)) else None


class NumericSurface:
    """The covering group of a surface (tau_B, tau_E, c, delta) on C^2."""

    def __init__(self, tau_b, tau_e, c, delta):
        self.tb, self.te, self.c, self.delta = tau_b, tau_e, c, delta

    @classmethod
    def from_payloads(cls, surface, syms):
        return cls(*(evaluate(surface[k], syms) for k in ("tau_b", "tau_e", "c", "delta")))

    # -- lattices ---------------------------------------------------------

    @staticmethod
    def coords(x, tau):
        """Real (a, b) with x = a*tau + b."""
        a = x.imag / tau.imag
        return a, x.real - a * tau.real

    def lattice(self, x, tau):
        """Integer coordinates of x in Z*tau + Z, or None."""
        a, b = self.coords(x, tau)
        ia, ib = near_int(a), near_int(b)
        if ia is None or ib is None or abs(x - (ia * tau + ib)) > LATTICE_TOL * max(1, abs(x)):
            return None
        return ia, ib

    def D(self, x, y):
        """The skew form with D(tau_B, 1) = 1."""
        a, b = self.coords(x, self.tb)
        a2, b2 = self.coords(y, self.tb)
        return a * b2 - b * a2

    def same_mod(self, x, y, tau):
        return self.lattice(x - y, tau) is not None

    # -- maps of C^2 --------------------------------------------------------

    def lift(self, alpha, beta, sigma10, v):
        """The special lift of the lifts-module docstring as a NumericLift."""
        da1 = near_int(self.D(alpha, 1))
        da_t = near_int(self.D(alpha, self.tb))
        if da1 is None or da_t is None:
            raise ValueError("alpha does not preserve the base lattice")
        eps = self.delta - self.c * self.tb / 2
        u = sigma10 + da1 * (self.c * beta + eps - da_t * self.c / 2)
        q2 = da1 * self.c * alpha / 2
        return NumericLift(alpha, beta, abs(alpha) ** 2, q2, u, v)

    def generator(self, j):
        """g_j of the README as a NumericLift."""
        return {
            1: NumericLift(1, self.tb, 1, 0, self.c, self.delta),
            2: NumericLift(1, 1, 1, 0, 0, 0),
            3: NumericLift(1, 0, 1, 0, 0, self.te),
            4: NumericLift(1, 0, 1, 0, 0, 1),
        }[j]

    def deck(self, m1, m2, m3, m4):
        """The deck map g1^m1 g2^m2 g3^m3 g4^m4 (rightmost acts first).

        g1^k = (z + k tau_B, zeta + k c z + k delta + c tau_B k(k-1)/2) for
        every integer k; g2, g3 and g4 are translations."""
        m1, m2 = int(m1), int(m2)
        q0 = (m3 * self.te + m4 + m1 * self.c * m2 + m1 * self.delta
              + self.c * self.tb * (m1 * (m1 - 1) // 2))
        return NumericLift(1, m1 * self.tb + m2, 1, 0, m1 * self.c, q0)

    def deck_exponents(self, f):
        """Exponents of the deck map equal to f, or None if f is no deck map."""
        if not (close(f.a, 1) and close(f.e, 1) and abs(f.q2) <= TOL):
            return None
        x = self.lattice(f.b, self.tb)
        if x is None:
            return None
        base = self.deck(x[0], x[1], 0, 0)
        if not close(base.q1, f.q1):
            return None
        y = self.lattice(f.q0 - base.q0, self.te)
        if y is None:
            return None
        return x[0], x[1], y[0], y[1]

    def conjugate(self, phi, g):
        """Exponents of phi g phi^-1 (g an exponent tuple), or None."""
        return self.deck_exponents(phi.after(self.deck(*g)).after(phi.inverse()))

    def descends(self, phi):
        gens = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        return all(self.conjugate(phi, g) is not None for g in gens)


class NumericLift:
    """(z, zeta) -> (a z + b, e zeta + q2 z^2 + q1 z + q0)."""

    def __init__(self, a, b, e, q2, q1, q0):
        self.a, self.b, self.e = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(e)
        self.q2, self.q1, self.q0 = mpmath.mpc(q2), mpmath.mpc(q1), mpmath.mpc(q0)

    def __call__(self, p):
        z, zeta = p
        return self.a * z + self.b, self.e * zeta + self.q2 * z * z + self.q1 * z + self.q0

    def after(self, inner):
        """self o inner, expanded back into coefficients."""
        a, b = self.a * inner.a, self.a * inner.b + self.b
        e = self.e * inner.e
        q2 = self.e * inner.q2 + self.q2 * inner.a ** 2
        q1 = self.e * inner.q1 + 2 * self.q2 * inner.a * inner.b + self.q1 * inner.a
        q0 = self.e * inner.q0 + self.q2 * inner.b ** 2 + self.q1 * inner.b + self.q0
        return NumericLift(a, b, e, q2, q1, q0)

    def inverse(self):
        ai = 1 / self.a
        bi = -self.b * ai
        ei = 1 / self.e
        # zeta = ei*(zeta' - q2 z^2 - q1 z - q0) with z = ai z' + bi
        q2 = -ei * self.q2 * ai ** 2
        q1 = -ei * (2 * self.q2 * ai * bi + self.q1 * ai)
        q0 = -ei * (self.q2 * bi ** 2 + self.q1 * bi + self.q0)
        return NumericLift(ai, bi, ei, q2, q1, q0)

    def power(self, n):
        out = IDENTITY
        for _ in range(n):
            out = self.after(out)
        return out


IDENTITY = NumericLift(1, 0, 1, 0, 0, 0)


def same_map(f, g):
    """Whether two maps agree at every sample point."""
    for p in SAMPLE_POINTS:
        fz, fw = f(p)
        gz, gw = g(p)
        if not (close(fz, gz) and close(fw, gw)):
            return False
    return True


# ---------------------------------------------------------------------------
# the group query on one lift


def unit_order(S):
    """How many roots of unity map Lambda_{tau_B} onto itself."""
    count = 0
    for k in range(12):
        w = mpmath.expjpi(mpmath.mpf(k) / 6)
        if S.lattice(w, S.tb) is not None and S.lattice(w * S.tb, S.tb) is not None:
            count += 1
    return count


def base_fixed_points(S, alpha, beta):
    """Fixed points of z -> alpha z + beta on C/Lambda_B, alpha != 1, one
    representative each, by enumerating (beta + lambda)/(1 - alpha)."""
    k = near_int(abs(1 - alpha) ** 2)
    points = []
    for p in range(k):
        for q in range(k):
            z = (beta + p * S.tb + q) / (1 - alpha)
            if not any(S.same_mod(z, w, S.tb) for w in points):
                points.append(z)
    return points


def fibre_fixed(S, phi, z0):
    """Whether some deck map composed with phi fixes the fibre over z0."""
    x = S.lattice(z0 - phi((z0, 0))[0], S.tb)
    if x is None:
        return False
    zz, ww = S.deck(x[0], x[1], 0, 0)(phi((z0, 0)))
    return S.lattice(ww, S.te) is not None


def expected_fixed_locus(S, phi):
    """('all' | 'empty' | 'fibres', representatives or None).

    For alpha = 1 with fibres the representatives are not enumerated; the
    return value then carries the count instead."""
    if not close(phi.a, 1):
        pts = [z for z in base_fixed_points(S, phi.a, phi.b) if fibre_fixed(S, phi, z)]
        return ("fibres", pts) if pts else ("empty", None)
    x = S.lattice(phi.b, S.tb)
    if x is None:
        return "empty", None
    norm = S.deck(-x[0], -x[1], 0, 0).after(phi)
    # norm = (z, zeta + u z + v): fixed fibres solve u z + v in Lambda_E
    u, v = norm.q1, norm.q0
    if abs(u) <= TOL:
        return ("all", None) if S.lattice(v, S.te) is not None else ("empty", None)
    r1, r2 = S.lattice(u * S.tb, S.te), S.lattice(u, S.te)
    if r1 is None or r2 is None:
        return "empty", None
    return "fibres", abs(r1[0] * r2[1] - r1[1] * r2[0])


def check_fixed_locus(S, phi, kind, fibres):
    want, pts = expected_fixed_locus(S, phi)
    if kind != want:
        return f"fixed locus kind {kind}, expected {want}"
    if kind != "fibres":
        return None if not fibres else "non-fibre locus lists fibres"
    for j, z in enumerate(fibres):
        if any(S.same_mod(z, w, S.tb) for w in fibres[:j]):
            return "two listed fibres coincide on the surface"
        if not close(phi.a, 1):
            if S.lattice((phi.a - 1) * z + phi.b, S.tb) is None:
                return f"fibre over {z} is not fixed by the base map"
        if not fibre_fixed(S, phi, z):
            return f"fibre over {z} is not pointwise fixed"
    if isinstance(pts, list):
        bound = near_int(abs(1 - phi.a) ** 2)
        if len(fibres) > bound:
            return f"{len(fibres)} fibres exceed |1 - alpha|^2 = {bound}"
        if len(fibres) != len(pts):
            return f"{len(fibres)} fibres listed, {len(pts)} fixed"
    elif len(fibres) != pts:
        return f"{len(fibres)} fibres listed, index says {pts}"
    return None


def check_kernel_class(S, phi, kind, element):
    """kind in not_in_kernel / fibre_translation / gauge_with_hom."""
    x = S.lattice(phi.b, S.tb) if close(phi.a, 1) else None
    if x is None:
        return None if kind == "not_in_kernel" else f"kernel class {kind} for a base-moving map"
    norm = S.deck(-x[0], -x[1], 0, 0).after(phi)
    if abs(norm.q1) > TOL:
        return None if kind == "gauge_with_hom" else f"kernel class {kind}, map has a Hom part"
    if kind != "fibre_translation":
        return f"kernel class {kind} for a constant fibre translation"
    if S.lattice(element - norm.q0, S.te) is None:
        return "fibre translation element is wrong modulo Lambda_E"
    return None


def check_semidirect(S, phi, part, e, base, n):
    if not close(part.a, 1):
        return "translation part has alpha != 1"
    if not 0 <= e < n:
        return f"exponent {e} outside [0, {n})"
    if not same_map(part.after(base.power(e)), phi):
        return "translation part times base power does not recompose"
    return None


# ---------------------------------------------------------------------------
# Dolbeault cohomology


def rho_formula(S, alpha, beta, u):
    """rho = u - alpha c Im(beta)/Im(tau_B), from pulling phi2 back by hand."""
    return u - alpha * S.c * beta.imag / S.tb.imag


def expected_blocks(alpha, rho):
    ab, rb = mpmath.conj(alpha), mpmath.conj(rho)
    return {
        "H00": [[1]],
        "H10": [[alpha]],
        "H01": [[ab, 0], [rb, 1]],
        "H20": [[alpha]],
        "H11": [[alpha, 0], [0, ab]],
        "H02": [[ab]],
        "H21": [[1, 0], [alpha * rb, alpha]],
        "H12": [[ab]],
        "H22": [[1]],
    }


def check_cohomology(S, phi, rho, blocks, trace, det, total_trace, lefschetz, trivial):
    """blocks/trace/det keyed H00..H22, numbers already evaluated."""
    want_rho = rho_formula(S, phi.a, phi.b, phi.q1)
    if not close(rho, want_rho):
        return f"rho = {rho}, formula gives {want_rho}"
    table = expected_blocks(phi.a, want_rho)
    for key, want in table.items():
        got = blocks[key]
        if len(got) != len(want) or any(len(r) != len(w) for r, w in zip(got, want)):
            return f"block {key} has the wrong shape"
        for r, w in zip(got, want):
            if not all(close(x, y) for x, y in zip(r, w)):
                return f"block {key} differs from the closed-form table"
        tr = sum(want[j][j] for j in range(len(want)))
        dt = want[0][0] if len(want) == 1 else want[0][0] * want[1][1] - want[0][1] * want[1][0]
        if not (close(trace[key], tr) and close(det[key], dt)):
            return f"trace or det of {key} is wrong"
    if not close(total_trace, 4 * (1 + 2 * phi.a.real)):
        return "total trace is not 4(1 + alpha + conj alpha)"
    if abs(lefschetz) > TOL:
        return "Lefschetz number is not 0"
    if trivial != (close(phi.a, 1) and abs(want_rho) <= TOL):
        return f"acts_trivially = {trivial} contradicts alpha and rho"
    return None


# ---------------------------------------------------------------------------
# surfaces and moduli


def kleinj_1728(tau):
    return 1728 * mpmath.kleinj(tau)


def check_moduli(S, j, q, precision):
    want_j = kleinj_1728(S.tb)
    want_q = mpmath.exp(2j * mpmath.pi * S.te)
    tol = mpmath.mpf(10) ** (3 - min(precision, 15))
    if abs(j - want_j) > tol * max(1, abs(want_j)):
        return f"j = {mpmath.nstr(j, 12)}, 1728*kleinj gives {mpmath.nstr(want_j, 12)}"
    if abs(q - want_q) > tol * max(mpmath.mpf(10) ** -12, abs(want_q)):
        return f"fibre nome {q} differs from exp(2 pi i tau_E)"
    return None


def torsion_m(S):
    a, b = S.lattice(S.c, S.te)
    return gcd(a, b)


def check_normalize(S, doc, syms):
    """normalize: delta -> 0 by the base shift delta/c, then c -> m."""
    ev = lambda p: evaluate(p, syms)  # noqa: E731
    m = torsion_m(S)
    if doc["torsion_m"] != m:
        return f"torsion_m = {doc['torsion_m']}, lattice coordinates of c give {m}"
    d0, d1 = doc["delta_zero"], doc["c_integer"]
    s0 = d0["surface"]
    if abs(ev(s0["delta"])) > TOL or not close(ev(s0["c"]), S.c):
        return "delta_zero surface keeps delta or changes c"
    if not (close(ev(s0["tau_b"]), S.tb) and close(ev(s0["tau_e"]), S.te)):
        return "delta_zero surface changes a modulus"
    if not close(ev(d0["base_shift"]), S.delta / S.c):
        return "base shift is not delta/c"
    s1 = d1["surface"]
    if not close(ev(s1["c"]), m) or abs(ev(s1["delta"])) > TOL:
        return "normal form is not (c = m, delta = 0)"
    scale = ev(d1["fibre_scale"])
    if not close(scale, m / S.c):
        return "fibre scale is not m/c"
    # the re-marked fibre lattice is scale * Lambda_E
    te2 = ev(s1["tau_e"])
    if te2.imag <= 0:
        return "normalized tau_E leaves the upper half-plane"
    for x in (scale * S.te, scale):
        if S.lattice(x, te2) is None:
            return "normalized tau_E does not span scale * Lambda_E"
    if S.lattice(te2 / scale, S.te) is None:
        return "normalized tau_E does not span scale * Lambda_E"
    return None


def check_abelianization(S, doc):
    m = torsion_m(S)
    want = [m] if m > 1 else []
    if doc["free_rank"] != 3 or list(doc["torsion"]) != want:
        return f"H1 invariants {doc}, expected Z^3 + Z/{m}"
    return None


def check_star(S, g1, g2, out):
    if not same_map(S.deck(*out), S.deck(*g1).after(S.deck(*g2))):
        return f"{g1} * {g2} = {out} disagrees with composing deck maps"
    return None


def check_inverse(S, g, out):
    if not same_map(S.deck(*out).after(S.deck(*g)), IDENTITY):
        return f"inverse of {g} = {out} does not cancel"
    return None


def check_unit_lift(S, n, unit, phi):
    want = unit_order(S)
    if n != want:
        return f"unit group order {n}, expected {want}"
    if not close(unit ** n, 1) or any(close(unit ** k, 1) for k in range(1, n)):
        return f"unit {unit} is not a primitive {n}-th root of unity"
    if not close(phi.a, unit) or not S.descends(phi):
        return "order-n lift does not descend over the unit"
    if S.deck_exponents(phi.power(n)) is None:
        return "order-n lift to the n-th power is not a deck map"
    return None


def iso_verdict(S1, S2):
    """True/False when an independent argument settles it, else None.

    Equal covering groups give the same surface; different H1 torsion or
    different j of the base or the fibre give different surfaces."""
    if torsion_m(S1) != torsion_m(S2):
        return False
    for a, b in ((S1.tb, S2.tb), (S1.te, S2.te)):
        ja, jb = kleinj_1728(a), kleinj_1728(b)
        if abs(ja - jb) > mpmath.mpf(10) ** -20 * max(1, abs(ja)):
            return False
    if same_group(S1, S2):
        return True
    return None


def same_group(S1, S2):
    """Whether each generator of one group is a deck map of the other."""
    for A, B in ((S1, S2), (S2, S1)):
        for j in (1, 2, 3, 4):
            if B.deck_exponents(A.generator(j)) is None:
                return False
    return True


# ---------------------------------------------------------------------------
# the gauge quotient N/K, by exact linear algebra over Q


def ring_mul(x, y, quadratic):
    """Product of two canonical values; quadratic maps a symbol to its d."""
    out = {}
    for m1, q1 in x.items():
        for m2, q2 in y.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            q, mono = q1 * q2, []
            for name, e in sorted(exps.items()):
                if name in quadratic:  # s^2 = -d
                    q *= (-quadratic[name]) ** (e // 2)
                    e %= 2
                if e:
                    mono.append((name, e))
            out[tuple(mono)] = out.get(tuple(mono), Fraction(0)) + q
    return {m: q for m, q in out.items() if q}


def q_rank(vectors):
    """Rank over Q of canonical values, read as coefficient columns."""
    monos = sorted({m for v in vectors for m in v})
    rows = [[v.get(m, Fraction(0)) for v in vectors] for m in monos]
    rank = 0
    for col in range(len(vectors)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def nk_free_rank(scene):
    """Free rank of N/K = (Lambda_E x Lambda_E) / {(lam, sig) : sig tau_B - lam
    in c Lambda_B}.  Over Q the relation sig tau_B - lam - c(a tau_B + b) = 0
    in six unknowns has a kernel of dimension 6 - r, which projects
    injectively onto K (c != 0), so the free rank is 4 - (6 - r) = r - 2."""
    quadratic = {"i": 1}
    quadratic.update({s["name"]: s["d"] for s in scene["ring"] if s.get("d") is not None})
    te, tb, c = (canonical(scene["surface"][k]) for k in ("tau_e", "tau_b", "c"))
    one = {(): Fraction(1)}
    neg = lambda x: {m: -q for m, q in x.items()}  # noqa: E731
    return q_rank([neg(te), neg(one), ring_mul(te, tb, quadratic), tb,
                   neg(ring_mul(c, tb, quadratic)), neg(c)]) - 2
