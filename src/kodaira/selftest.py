"""Acceptance checks for the whole package.

``run_all`` executes thirteen numbered checks, printing one pass/fail line
each.  Everything runs over exact arithmetic except the two numeric moduli
values, which are compared at 1e-9 relative tolerance.  All randomness is
seeded, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import pi1
from .exactfield import (
    DomainError,
    NumberRing,
    SymbolDecl,
    Tau,
    d_form,
    divide,
    in_lattice,
    lattice_coords,
)
from .fixedlocus import EMPTY, FIBRES, base_fixed_points, fixed_locus
from .forms import (
    dolbeault_action,
    im_value,
    lefschetz,
    map_images,
    rho,
    substitute,
    trace_det,
    verify_invariant_generators,
)
from .lifts import (
    GaugeWithHom,
    MapClass,
    SpecialLift,
    canonical_unit,
    classify_kernel,
    compose,
    conjugate_deck,
    count_base_translations_infinite,
    cover_map,
    deck_lift,
    descent_check,
    equal_mod_pi1,
    factor_semidirect,
    identity_lift,
    invert,
    nk_invariants,
    order_n_lift,
    power,
    sigma_map,
    unit_group_order,
    z_coefficient,
)
from .scene import load_scene
from .surface import (
    KodairaData,
    Sl2Matrix,
    change_base_marking,
    is_isomorphic,
    moduli_point,
    normalize_c,
    normalize_delta,
    torsion_coefficient,
)

SEED = 20260822


def _scene(name):
    return load_scene(f"bundled:{name}")


# ---------------------------------------------------------------------------
# random samplers


def _rand_frac(rng, span=6, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_value(ring, rng):
    out = ring.value(_rand_frac(rng))
    for k in range(len(ring.symbols)):
        out = out + ring.symbol(ring.symbols[k].name) * _rand_frac(rng)
    return out


def rand_lattice(tau, rng, span=3):
    return tau.value * rng.randint(-span, span) + tau.ring.value(rng.randint(-span, span))


def rand_pi1(d, rng, span=9):
    return pi1.from_exponents(*(rng.randint(-span, span) for _ in range(4)), d)


def translation_lift(d, rng):
    """alpha = 1 lift built to satisfy both descent conditions."""
    sigma = rand_lattice(d.tau_e, rng)
    lam = rand_lattice(d.tau_e, rng)
    beta = divide(sigma * d.tau_b.value - lam, d.c)
    return SpecialLift(d.ring.one(), beta, sigma, rand_value(d.ring, rng))


def _gauge_lift(d, rng):
    """A lift fixing the base pointwise; sigma10 must satisfy both lattice
    conditions, so sample it from the subgroup where they hold."""
    ring = d.ring
    cands = []
    for x in range(-2, 3):
        for y in range(-2, 3):
            s = d.tau_e.value * x + ring.value(y)
            if in_lattice(s * d.tau_b.value, d.tau_e):
                cands.append(s)
    sigma = cands[rng.randrange(len(cands))]
    return SpecialLift(ring.one(), ring.zero(), sigma, rand_value(ring, rng))


def _rand_auto_lift(d, rng, rotations=True):
    n = unit_group_order(d.tau_b)
    base = order_n_lift(d, canonical_unit(d.tau_b))
    out = identity_lift(d)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randint(0, 3 if rotations else 2)
        if kind == 0:
            piece = translation_lift(d, rng)
        elif kind == 1:
            piece = _gauge_lift(d, rng)
        elif kind == 2:
            piece = deck_lift(rand_pi1(d, rng, span=3), d)
        else:
            piece = power(base, rng.randint(1, n - 1), d)
        out = compose(out, piece, d)
    if descent_check(out, d) != MapClass.AUTOMORPHISM:
        raise DomainError(f"the sampled lift {out} is not an automorphism")
    return out


# ---------------------------------------------------------------------------
# 1: fundamental group law


def check_group_law():
    rng = random.Random(SEED)
    R = NumberRing()
    i = R.i()
    Rh = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3)])
    r3 = Rh.symbol("r3")
    Rt = NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=3.14159)])
    t = Rt.symbol("t")
    datas = [
        KodairaData(Tau(i), Tau(i), R.one(), R.value(0)),
        KodairaData(Tau(i), Tau(i), R.value(2), R.value(Fraction(1, 3))),
        KodairaData(Tau(2 * i), Tau(i), R.value(3), R.value(Fraction(1, 2)) + i * Fraction(1, 5)),
        KodairaData(Tau(r3), Tau(r3), Rh.value(2) + r3, r3 * Fraction(1, 7)),
        KodairaData(Tau(t), Tau(t), t, Rt.value(0)),
    ]
    products = 0
    for d in datas:
        ident = pi1.from_exponents(0, 0, 0, 0, d)
        for _ in range(200):
            g1, g2, g3 = (rand_pi1(d, rng) for _ in range(3))
            left = pi1.star(pi1.star(g1, g2, d), g3, d)
            right = pi1.star(g1, pi1.star(g2, g3, d), d)
            if left != right:
                return False, "associativity broke"
            if pi1.star(g1, ident, d) != g1 or pi1.star(ident, g1, d) != g1:
                return False, "identity broke"
            gi = pi1.inverse(g1, d)
            if pi1.star(g1, gi, d) != ident or pi1.star(gi, g1, d) != ident:
                return False, "inverse broke"
            aff = pi1.to_affine(g1, d).compose(pi1.to_affine(g2, d))
            if aff != pi1.to_affine(pi1.star(g1, g2, d), d):
                return False, "affine realization is not a homomorphism"
            products += 3
        ga = pi1.from_exponents(1, 0, 0, 0, d)
        gb = pi1.from_exponents(0, 1, 0, 0, d)
        comm = pi1.star(pi1.star(ga, gb, d),
                        pi1.star(pi1.inverse(ga, d), pi1.inverse(gb, d), d), d)
        if pi1.values(comm, d) != (d.ring.zero(), d.c):
            return False, f"commutator gave {comm.exponents()}"
        if not pi1.is_central(comm):
            return False, "commutator is not central"
    return True, f"{products} products over {len(datas)} data tuples"


# ---------------------------------------------------------------------------
# 2: abelianization


def check_abelianization():
    R = NumberRing()
    i = R.i()
    for m in range(1, 13):
        for c in (R.value(m), (R.one() + 2 * i) * m):
            d = KodairaData(Tau(i), Tau(i), c, R.value(0))
            if torsion_coefficient(d).m != m:
                return False, f"torsion coefficient of c = {c} is not {m}"
            free, torsion = pi1.abelianization_invariants(d)
            want = [m] if m > 1 else []
            if (free, list(torsion)) != (3, want):
                return False, f"H1 invariants for m = {m}: ({free}, {torsion})"
    return True, "m = 1..12, two generator shapes each"


# ---------------------------------------------------------------------------
# 3: conjugation against a brute-force oracle


def _compose_images(outer, inner):
    return [substitute(p, inner) for p in outer]


def check_conjugation():
    rng = random.Random(SEED + 3)
    names = ["translations", "order4", "order6", "infinite_translations"]
    lifts_checked = 0
    for name in names:
        d = _scene(name).data
        gens = [pi1.from_exponents(*e, d) for e in
                ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
        for _ in range(28):
            l = _rand_auto_lift(d, rng)
            phi = map_images(cover_map(l, d), d.ring)
            phi_inv = map_images(cover_map(invert(l, d), d), d.ring)
            for g in gens:
                deck = map_images(pi1.to_affine(g, d), d.ring)
                brute = _compose_images(phi, _compose_images(deck, phi_inv))
                conj = pi1.to_affine(conjugate_deck(l, d, g), d)
                if brute != map_images(conj, d.ring):
                    return False, f"conjugation of {g.exponents()} disagreed on {name}"
            for _ in range(2):
                g1, g2 = rand_pi1(d, rng, 4), rand_pi1(d, rng, 4)
                lhs = sigma_map(l, d, pi1.star(g1, g2, d))
                corr = d_form(d.tau_b, l.alpha * pi1.values(g1, d)[0], d.tau_b.value) * \
                    d_form(d.tau_b, l.alpha * pi1.values(g2, d)[0], d.ring.one()) * d.c
                rhs = sigma_map(l, d, g1) + sigma_map(l, d, g2) + corr
                if lhs != rhs:
                    return False, f"sigma cocycle rule broke on {name}"
            lifts_checked += 1
    return True, f"{lifts_checked} lifts, 4 generators each, plus cocycle pairs"


# ---------------------------------------------------------------------------
# 4: maps that descend without being covered by the naive expectations


def check_descending_examples():
    sc = _scene("translations")
    l = sc.lifts["half_period"]
    if descent_check(l, sc.data) != MapClass.AUTOMORPHISM:
        return False, "half-period translation does not descend"
    if in_lattice(l.beta, sc.data.tau_b):
        return False, "half-period base shift degenerated to a lattice vector"
    sc = _scene("bundle_action")
    l = sc.lifts["gauge"]
    if descent_check(l, sc.data) != MapClass.AUTOMORPHISM:
        return False, "gauge map does not descend"
    if l.alpha != sc.data.ring.one() or l.beta != sc.data.ring.zero():
        return False, "gauge map does not induce the identity on the base"
    if not isinstance(classify_kernel(l, sc.data), GaugeWithHom):
        return False, "gauge map claimed to be a constant fibre translation"
    sc = _scene("infinite_translations")
    if not count_base_translations_infinite(sc.data):
        return False, "transcendental fibre modulus should give infinitely many translations"
    if descent_check(sc.lifts["half_period"], sc.data) != MapClass.AUTOMORPHISM:
        return False, "transcendental half-period does not descend"
    if count_base_translations_infinite(_scene("nk_rank0").data):
        return False, "rank-0 scene misreported as infinite"
    return True, "translation, gauge, and transcendental examples"


# ---------------------------------------------------------------------------
# 5: finite order lifts


def _closed_power(l, m, d):
    """(alpha, beta, u, v) of l^m from the closed-form sums."""
    ring = d.ring
    om = l.alpha
    u = z_coefficient(l, d)
    if m == 0:
        return ring.one(), ring.zero(), ring.zero(), ring.zero()
    if m == 1:
        return om, l.beta, u, l.v
    k = d_form(d.tau_b, om, ring.one()) * d.c * om
    pw = [ring.one()]
    for _ in range(m):
        pw.append(pw[-1] * om)
    s = [ring.zero()]
    for j in range(m):
        s.append(s[j] + pw[j])
    dbl = ring.zero()
    for a in range(1, m):
        for b in range(a):
            dbl = dbl + pw[a] * pw[b]
    u_m = k * l.beta * dbl + u * s[m]
    betas = [s[j] * l.beta for j in range(m)]
    sq, lin = ring.zero(), ring.zero()
    for j in range(1, m):
        sq = sq + betas[j] * betas[j]
        lin = lin + betas[j]
    v_m = k * sq * Fraction(1, 2) + u * lin + l.v * m
    return pw[m], s[m] * l.beta, u_m, v_m


def check_finite_order():
    rng = random.Random(SEED + 5)
    expected = {"order4": 4, "order6": 6, "order2": 2}
    for name, n in expected.items():
        d = _scene(name).data
        if unit_group_order(d.tau_b) != n:
            return False, f"{name}: unit group order is not {n}"
        l = order_n_lift(d, canonical_unit(d.tau_b))
        ident = identity_lift(d)
        if not equal_mod_pi1(power(l, n, d), ident, d):
            return False, f"{name}: lift^<{n}> is not a deck transformation"
        for k in range(1, n):
            if equal_mod_pi1(power(l, k, d), ident, d):
                return False, f"{name}: lift^{k} already trivial"
        samples = [l, compose(l, translation_lift(d, rng), d)]
        for sample in samples:
            for m in range(13):
                p = power(sample, m, d)
                got = (p.alpha, p.beta, z_coefficient(p, d), p.v)
                if got != _closed_power(sample, m, d):
                    return False, f"{name}: closed form failed at exponent {m}"
    return True, "orders 4, 6, 2; closed forms up to exponent 12"


# ---------------------------------------------------------------------------
# 6: semidirect factorization


def check_semidirect():
    rng = random.Random(SEED + 6)
    count = 0
    for name in ("order4", "order6", "order2"):
        d = _scene(name).data
        base = order_n_lift(d, canonical_unit(d.tau_b))
        n = unit_group_order(d.tau_b)
        for _ in range(35):
            l = _rand_auto_lift(d, rng)
            n_part, e = factor_semidirect(l, d)
            if n_part.alpha != d.ring.one():
                return False, f"{name}: translation part has alpha = {n_part.alpha}"
            if not 0 <= e < n:
                return False, f"{name}: exponent {e} out of range"
            if compose(n_part, power(base, e, d), d) != l:
                return False, f"{name}: factorization does not recompose"
            count += 1
    return True, f"{count} lifts factored and recomposed"


# ---------------------------------------------------------------------------
# 7: the gauge quotient N/K


def check_nk():
    want = {"nk_rank0": (0, ()), "nk_rank2": (2, (3, 3)), "nk_rank1": (1, (3, 3))}
    for name, (free, torsion) in want.items():
        inv = nk_invariants(_scene(name).data)
        if (inv.free_rank, inv.torsion) != (free, torsion):
            return False, f"{name}: got ({inv.free_rank}, {inv.torsion})"
    return True, "free ranks 0, 2, 1 with torsion (m, m) where present"


# ---------------------------------------------------------------------------
# 8: action on Dolbeault cohomology


def _expected_blocks(ring, al, rh):
    one, zero = ring.one(), ring.zero()
    alb, rhb = al.conjugate(), rh.conjugate()
    return {
        (0, 0): ((one,),),
        (1, 0): ((al,),),
        (0, 1): ((alb, zero), (rhb, one)),
        (2, 0): ((al,),),
        (1, 1): ((al, zero), (zero, alb)),
        (0, 2): ((alb,),),
        (2, 1): ((one, zero), (al * rhb, al)),
        (1, 2): ((alb,),),
        (2, 2): ((one,),),
    }


def check_dolbeault():
    rng = random.Random(SEED + 8)
    batch = []
    for name in ("order4", "order6", "order2"):
        d = _scene(name).data
        batch.append((d, order_n_lift(d, canonical_unit(d.tau_b))))
        batch.append((d, _rand_auto_lift(d, rng)))
    sc = _scene("translations")
    batch.append((sc.data, sc.lifts["half_period"]))
    # sigma10 = i makes rho nonreal, pinning the conjugates in the table
    batch.append((sc.data, SpecialLift(sc.data.ring.one(), sc.data.ring.zero(),
                                       sc.data.ring.i(), sc.data.ring.zero())))
    sc = _scene("bundle_action")
    batch.append((sc.data, sc.lifts["gauge"]))
    for d, l in batch:
        ring = d.ring
        al, rh = l.alpha, rho(l, d)
        act = dolbeault_action(l, d)
        if act.blocks != _expected_blocks(ring, al, rh):
            return False, f"action table mismatch at alpha = {al}, rho = {rh}"
        td = trace_det(act)
        for pq, mat in act.blocks.items():
            tr = sum((mat[j][j] for j in range(len(mat))), ring.zero())
            det = mat[0][0] if len(mat) == 1 else \
                mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
            if td[pq] != (tr, det):
                return False, f"trace/det mismatch in block {pq}"
        total = (ring.one() + al + al.conjugate()) * 4
        if td["total"][0] != total:
            return False, f"total trace is not 4(1 + alpha + conj(alpha))"
        if lefschetz(act) != ring.zero():
            return False, f"nonzero alternating sum at alpha = {al}"
    return True, f"{len(batch)} lifts against the symbolic table"


# ---------------------------------------------------------------------------
# 9: the pullback coefficient rho is constant


def check_rho_constant():
    rng = random.Random(SEED + 9)
    from .forms import holomorphic_generators, pullback
    count = 0
    for name in ("translations", "order4", "order6", "infinite_translations"):
        d = _scene(name).data
        ring = d.ring
        gens = holomorphic_generators(d)
        phi1, phi2 = gens["phi1"], gens["phi2"]
        for _ in range(26):
            l = _rand_auto_lift(d, rng)
            r = rho(l, d)  # raises if any z / conj(z) coefficient survives
            pulled = pullback(phi2, cover_map(l, d))
            if pulled != phi1 * r + phi2:
                return False, f"{name}: pullback is not rho phi1 + phi2"
            if l.alpha == ring.one():
                im_ratio = divide(im_value(l.beta, ring), im_value(d.tau_b.value, ring))
                if r != z_coefficient(l, d) - d.c * im_ratio:
                    return False, f"{name}: rho formula failed for a translation"
            count += 1
    return True, f"{count} lifts, exact pullback identity each"


# ---------------------------------------------------------------------------
# 10: which lifts act trivially


def check_trivial_action():
    rng = random.Random(SEED + 10)
    R = NumberRing()
    i = R.i()
    half = Fraction(1, 2)
    d2 = _scene("translations").data          # c = 2
    d1 = _scene("order4").data                # c = 1
    d3 = KodairaData(Tau(i), Tau(i), R.value(3), R.value(0))
    crafted = [
        (d2, SpecialLift(R.one(), i * half, R.one(), R.value(0))),
        (d2, SpecialLift(R.one(), R.value(half), R.zero(), R.value(Fraction(1, 5)))),
        (d2, SpecialLift(R.one(), (R.one() + i) * half, R.one(), R.zero())),
        (d2, SpecialLift(R.one(), i * half, R.zero(), R.zero())),
        (d2, _scene("fixed_locus").lifts["gauge"]),
    ]
    samples = list(crafted)
    for d in (d2, d1, d3):
        for _ in range(12):
            samples.append((d, _rand_auto_lift(d, rng, rotations=False)))
    hits = 0
    for d, l in samples:
        if descent_check(l, d) != MapClass.AUTOMORPHISM:
            return False, "sampler produced a non-automorphism"
        ident = _expected_blocks(d.ring, d.ring.one(), d.ring.zero())
        acts_identically = dolbeault_action(l, d).blocks == ident
        m = torsion_coefficient(d).m
        im_ratio = divide(im_value(l.beta, d.ring), im_value(d.tau_b.value, d.ring))
        condition = (
            l.alpha == d.ring.one()
            and z_coefficient(l, d) == d.c * im_ratio
            and in_lattice(l.beta * m, d.tau_b)
        )
        if acts_identically != condition:
            return False, f"biconditional broke at beta = {l.beta}, sigma10 = {l.sigma10}"
        hits += acts_identically
    return True, f"{len(samples)} lifts, {hits} acting trivially"


# ---------------------------------------------------------------------------
# 11: fixed loci


def check_fixed_loci():
    rng = random.Random(SEED + 11)
    sc = _scene("fixed_locus")
    d = sc.data
    R = d.ring
    i = R.i()
    half = Fraction(1, 2)
    loc = fixed_locus(sc.lifts["involution"], d)
    want = {R.zero(), i * half, (R.one() + i) * half}
    if loc.kind != FIBRES or set(loc.fibres) != want:
        return False, f"worked involution gave {loc}"
    if fixed_locus(sc.lifts["involution_shifted"], d).kind != EMPTY:
        return False, "shifted involution should act freely"
    # the v = -sigma beta / 2 family, against the half-lattice criterion
    for _ in range(30):
        beta = rand_lattice(d.tau_b, rng)
        l0 = SpecialLift(-R.one(), beta, R.one(), R.zero())
        if descent_check(l0, d) != MapClass.AUTOMORPHISM:
            raise DomainError(f"the involution {l0} is not an automorphism")
        good = SpecialLift(l0.alpha, beta, l0.sigma10, -(l0.sigma10 * beta) * half)
        if fixed_locus(good, d).kind != FIBRES:
            return False, f"v = -sigma beta/2 found no fixed fibre at beta = {beta}"
        bad_v = good.v + R.value(Fraction(1, 4))
        bad = SpecialLift(l0.alpha, beta, l0.sigma10, bad_v)
        if fixed_locus(bad, d).kind != EMPTY:
            return False, f"quarter shift should be free at beta = {beta}"
    for v in (R.value(half), R.value(Fraction(1, 3)), i * Fraction(1, 5)):
        l = SpecialLift(R.one(), R.zero(), R.zero(), v)
        if fixed_locus(l, d).kind != EMPTY:
            return False, f"fibre translation by {v} is not free"
    full = fixed_locus(SpecialLift(R.one(), R.zero(), R.zero(), R.one() + i), d)
    if full.kind != "all":
        return False, "lattice fibre translation is not the identity on the surface"
    # base point counts against an independently computed lattice index
    counted = 0
    for name in ("order4", "order6", "order2"):
        dd = _scene(name).data
        n = unit_group_order(dd.tau_b)
        base = order_n_lift(dd, canonical_unit(dd.tau_b))
        for e in range(1, n):
            l = power(base, e, dd)
            w = dd.ring.one() - l.alpha
            r1 = lattice_coords(w * dd.tau_b.value, dd.tau_b)
            r2 = lattice_coords(w, dd.tau_b)
            index = abs(r1[0] * r2[1] - r2[0] * r1[1])
            norm = (w * w.conjugate()).rational()
            if norm != index:
                return False, f"{name}: lattice index disagrees with the norm"
            if len(base_fixed_points(l, dd)) != index:
                return False, f"{name}: rotation by alpha^{e} has wrong fixed count"
            counted += 1
    return True, f"worked family plus {counted} base-point counts"


# ---------------------------------------------------------------------------
# 12: moduli


def check_moduli():
    R = NumberRing()
    i = R.i()
    d_tr = _scene("translations").data
    pool = [
        d_tr,
        _scene("iso_translate").data,
        _scene("iso_half_shift").data,
        _scene("normalize_demo").data,
    ]
    d0, _ = normalize_delta(pool[3])
    d1, _ = normalize_c(d0)
    pool.append(d1)
    if (d1.c, d1.delta) != (R.value(torsion_coefficient(pool[3]).m), R.zero()):
        return False, "normal form is not (c = m, delta = 0)"
    for d in pool:
        if not is_isomorphic(d, d):
            return False, "isomorphism is not reflexive"
    for a in pool:
        for b in pool:
            if is_isomorphic(a, b) != is_isomorphic(b, a):
                return False, "isomorphism is not symmetric"
            for c in pool:
                if is_isomorphic(a, b) and is_isomorphic(b, c) and not is_isomorphic(a, c):
                    return False, "isomorphism is not transitive"
    for d in pool:
        e0, _ = normalize_delta(d)
        e1, _ = normalize_c(e0)
        if not is_isomorphic(d, e1):
            return False, "a surface is not isomorphic to its normal form"
    if not is_isomorphic(d_tr, _scene("iso_translate").data):
        return False, "integer shift of the fibre modulus broke the isomorphism"
    if is_isomorphic(d_tr, _scene("iso_half_shift").data):
        return False, "half shift of the fibre modulus should change the surface"
    d6 = _scene("order6").data
    for M in (Sl2Matrix(1, 1, 0, 1), Sl2Matrix(0, -1, 1, 0)):
        if not is_isomorphic(d6, change_base_marking(d6, M)):
            return False, f"base remarking by {M} broke the isomorphism"
    j4 = moduli_point(_scene("order4").data)[0]
    if abs(j4 - 1728) > 1e-9 * 1728:
        return False, f"j at the square lattice came out as {j4}"
    j6 = moduli_point(d6)[0]
    if abs(j6) > 1e-9:
        return False, f"j at the hexagonal lattice came out as {j6}"
    return True, "equivalence relation, normal forms, j values"


# ---------------------------------------------------------------------------
# 13: invariant forms


def check_invariant_forms():
    total = 0
    for name in ("translations", "order6", "infinite_translations"):
        results = verify_invariant_generators(_scene(name).data)
        bad = [r.name for r in results if not r.ok]
        if bad:
            return False, f"{name}: failed {bad[:3]}"
        total += len(results)
    return True, f"{total} identities across three rings"


CHECKS = [
    (1, "fundamental group law and central commutator", check_group_law),
    (2, "abelianization invariants", check_abelianization),
    (3, "deck conjugation against brute-force composition", check_conjugation),
    (4, "descending translation and gauge examples", check_descending_examples),
    (5, "finite-order lifts and iteration formulas", check_finite_order),
    (6, "semidirect factorization round-trip", check_semidirect),
    (7, "gauge quotient invariants", check_nk),
    (8, "Dolbeault action tables", check_dolbeault),
    (9, "constancy and value of rho", check_rho_constant),
    (10, "trivial cohomology action biconditional", check_trivial_action),
    (11, "fixed loci and base point counts", check_fixed_loci),
    (12, "moduli equivalence and j values", check_moduli),
    (13, "invariant form identities", check_invariant_forms),
]


def run_all(verbose=None):
    """Run every acceptance check; returns [(number, name, ok)]."""
    out = []
    for num, name, fn in CHECKS:
        ok, detail = fn()
        out.append((num, name, ok))
        if verbose is not None:
            status = "PASS" if ok else "FAIL"
            tail = f"  ({detail})" if detail else ""
            verbose(f"criterion {num:02d} {status}  {name}{tail}")
    return out
