"""The three workloads: seeded inputs, one operation each, and its checks.

Inputs come from ``random.Random`` seeded with the run's seed and the pass
number, so one seed always gives the same inputs.  ``kodaira`` builds the
lifts (that is set-up work), but every answer is judged by ``oracles``, which
imports nothing from ``kodaira``.  Each workload object offers:

* ``inputs(pass_no)``: the operations of one pass, a fixed number per pass;
* ``run(op)``: one timed operation, returning the raw answer;
* ``check(ops, answers)``: (number of known-fault failures, first wrong
  answer or None).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracles as O

from kodaira import cli, fixedlocus, forms, lifts, pi1
from kodaira.exactfield import divide, in_lattice

SURFACES = {
    "gauss": {
        "ring": [{"name": "i", "d": 1}],
        "surface": {
            "tau_b": [[[["i", 1]], "1/1"]],
            "tau_e": [[[["i", 1]], "1/1"]],
            "c": [[[], "2/1"]],
            "delta": [[[], "1/3"], [[["i", 1]], "1/5"]],
        },
    },
    "hex": {
        "ring": [{"name": "i", "d": 1}, {"name": "r3", "d": 3}],
        "surface": {
            "tau_b": [[[], "1/2"], [[["r3", 1]], "1/2"]],
            "tau_e": [[[["r3", 1]], "1/1"]],
            "c": [[[["r3", 1]], "1/1"]],
            "delta": [[[["r3", 1]], "1/7"]],
        },
    },
    "trans": {
        "ring": [{"name": "i", "d": 1}, {"name": "t", "approx": 3.141592653589793}],
        "surface": {
            "tau_b": [[[["t", 1]], "1/1"]],
            "tau_e": [[[["i", 1]], "1/1"]],
            "c": [[[], "2/1"]],
            "delta": [[[], "1/5"]],
        },
    },
}

LIFTS_PER_SURFACE = 4
POWER_EXPONENTS = (5, 7, 9)


def payload(x):
    """A ring value in scene-file form, read off its terms."""
    names = [s.name for s in x.ring.symbols]
    return [[[[names[k], e] for k, e in m], f"{q.numerator}/{q.denominator}"]
            for m, q in x.items()]


def lift_payloads(l):
    return {f: payload(getattr(l, f)) for f in ("alpha", "beta", "sigma10", "v")}


# ---------------------------------------------------------------------------
# seeded lifts


class Sampler:
    """Random automorphism lifts of one surface, built from descending pieces."""

    def __init__(self, data):
        self.d = data
        self.n = lifts.unit_group_order(data.tau_b)
        self.base = lifts.order_n_lift(data, lifts.canonical_unit(data.tau_b))
        self.rotations = [lifts.power(self.base, k, data) for k in range(self.n)]
        ring, te, tb = data.ring, data.tau_e.value, data.tau_b.value
        self.gauge_sigmas = [te * x + ring.value(y) for x in range(-2, 3) for y in range(-2, 3)
                             if in_lattice((te * x + ring.value(y)) * tb, data.tau_e)]

    def value(self, rng):
        ring = self.d.ring
        out = ring.value(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for s in ring.symbols:
            out = out + ring.symbol(s.name) * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return out

    def lattice(self, tau, rng):
        return tau.value * rng.randint(-2, 2) + self.d.ring.value(rng.randint(-2, 2))

    def translation(self, rng):
        d = self.d
        sigma, lam = self.lattice(d.tau_e, rng), self.lattice(d.tau_e, rng)
        beta = divide(sigma * d.tau_b.value - lam, d.c)
        return lifts.SpecialLift(d.ring.one(), beta, sigma, self.value(rng))

    def gauge(self, rng):
        ring = self.d.ring
        sigma = self.gauge_sigmas[rng.randrange(len(self.gauge_sigmas))]
        return lifts.SpecialLift(ring.one(), ring.zero(), sigma, self.value(rng))

    def deck(self, rng):
        g = pi1.from_exponents(*(rng.randint(-2, 2) for _ in range(4)), self.d)
        return lifts.deck_lift(g, self.d)

    def lift(self, rng, kind):
        """kind 0..3 fixes the pieces, so every pass has the same make-up:
        translation*deck, rotation*translation, gauge*rotation^-1 and
        translation*gauge*rotation (rotation = the canonical order-n lift)."""
        d, rot = self.d, lambda k: self.rotations[k % self.n]
        pieces = (
            (self.translation(rng), self.deck(rng)),
            (rot(1), self.translation(rng)),
            (self.gauge(rng), rot(self.n - 1)),
            (self.translation(rng), self.gauge(rng), rot(1)),
        )[kind]
        out = pieces[0]
        for p in pieces[1:]:
            out = lifts.compose(out, p, d)
        return out


def _lift_surfaces():
    out = []
    for name, doc in SURFACES.items():
        data = cli.parse_scene(doc, name).data
        syms = O.symbol_values(doc["ring"])
        out.append((name, data, Sampler(data), O.NumericSurface.from_payloads(doc["surface"], syms), syms))
    return out


def _numeric_lift(S, l, syms):
    return S.lift(*(O.evaluate(payload(getattr(l, f)), syms) for f in ("alpha", "beta", "sigma10", "v")))


class LiftGroup:
    """One operation: the full group query on one seeded lift."""

    def __init__(self, seed):
        self.seed = seed
        self.surfaces = _lift_surfaces()

    def inputs(self, pass_no):
        rng = random.Random(f"lift_group/{self.seed}/{pass_no}")
        ops = []
        for name, d, sampler, S, syms in self.surfaces:
            for k in range(LIFTS_PER_SURFACE):
                ops.append({
                    "surface": (name, d, sampler, S, syms),
                    "lift": sampler.lift(rng, k),
                    "other": sampler.translation(rng),
                    "n": POWER_EXPONENTS[(k + pass_no) % len(POWER_EXPONENTS)],
                    "pair": [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2)],
                })
        return ops

    def run(self, op):
        _, d, _, _, _ = op["surface"]
        l = op["lift"]
        ga, gb = (pi1.from_exponents(*e, d) for e in op["pair"])
        prod = pi1.star(ga, gb, d)
        return {
            "class": lifts.descent_check(l, d),
            "compose": lifts.compose(l, op["other"], d),
            "invert": lifts.invert(l, d),
            "power": lifts.power(l, op["n"], d),
            "semidirect": lifts.factor_semidirect(l, d),
            "kernel": lifts.classify_kernel(l, d),
            "conj": [lifts.conjugate_deck(l, d, g) for g in pi1.generators(d)],
            "star": prod,
            "conj_star": lifts.conjugate_deck(l, d, prod),
            "conj_pair": [lifts.conjugate_deck(l, d, g) for g in (ga, gb)],
            "fixed": fixedlocus.fixed_locus(l, d),
        }

    def check(self, ops, answers):
        for op, a in zip(ops, answers):
            why = self._check_one(op, a)
            if why:
                return 0, f"{op['surface'][0]}: {why}"
        return 0, None

    def _check_one(self, op, a):
        _, _, sampler, S, syms = op["surface"]
        num = lambda l: _numeric_lift(S, l, syms)  # noqa: E731
        phi = num(op["lift"])
        if a["class"] != lifts.MapClass.AUTOMORPHISM or not S.descends(phi):
            return f"descent_check gave {a['class']}"
        if not O.same_map(num(a["compose"]), phi.after(num(op["other"]))):
            return "compose is not the composite map"
        if not O.same_map(num(a["invert"]).after(phi), O.IDENTITY):
            return "invert does not give the identity"
        if not O.same_map(num(a["power"]), phi.power(op["n"])):
            return f"power {op['n']} is not repeated application"
        part, e = a["semidirect"]
        why = O.check_semidirect(S, phi, num(part), e, num(sampler.base), sampler.n)
        if why:
            return why
        kc = a["kernel"]
        kind = {lifts.NotInKerPsi: "not_in_kernel", lifts.FibreTranslation: "fibre_translation",
                lifts.GaugeWithHom: "gauge_with_hom"}[type(kc)]
        elem = O.evaluate(payload(kc.e), syms) if kind == "fibre_translation" else None
        why = O.check_kernel_class(S, phi, kind, elem)
        if why:
            return why
        gens = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for g, got in zip(gens, a["conj"]):
            if S.conjugate(phi, g) != got.exponents():
                return f"conjugate_deck of {g} gave {got.exponents()}"
        ea, eb = op["pair"]
        why = O.check_star(S, ea, eb, a["star"].exponents())
        if why:
            return why
        pa, pb = (c.exponents() for c in a["conj_pair"])
        if S.conjugate(phi, a["star"].exponents()) != a["conj_star"].exponents():
            return "conjugate_deck of a star product is wrong"
        if not O.same_map(S.deck(*a["conj_star"].exponents()), S.deck(*pa).after(S.deck(*pb))):
            return "conjugation does not respect star"
        loc = a["fixed"]
        fibres = [O.evaluate(payload(z), syms) for z in loc.fibres]
        return O.check_fixed_locus(S, phi, loc.kind, fibres)


class FormsCohomology:
    """One operation: the cohomology report for one seeded lift."""

    def __init__(self, seed):
        self.seed = seed
        self.surfaces = _lift_surfaces()

    def inputs(self, pass_no):
        rng = random.Random(f"forms_cohomology/{self.seed}/{pass_no}")
        return [{"surface": s, "lift": s[2].lift(rng, k)}
                for s in self.surfaces for k in range(LIFTS_PER_SURFACE)]

    def run(self, op):
        d, l = op["surface"][1], op["lift"]
        act = forms.dolbeault_action(l, d)
        return {
            "rho": forms.rho(l, d),
            "action": act,
            "trace_det": forms.trace_det(act),
            "lefschetz": forms.lefschetz(act),
            "trivial": forms.acts_trivially_on_cohomology(l, d),
        }

    def check(self, ops, answers):
        for op, a in zip(ops, answers):
            name, _, _, S, syms = op["surface"]
            ev = lambda x: O.evaluate(payload(x), syms)  # noqa: E731
            keys = [f"H{p}{q}" for p, q in forms.BLOCK_ORDER]
            blocks = {f"H{p}{q}": [[ev(x) for x in row] for row in a["action"].blocks[(p, q)]]
                      for p, q in forms.BLOCK_ORDER}
            td = a["trace_det"]
            trace = {k: ev(td[pq][0]) for k, pq in zip(keys, forms.BLOCK_ORDER)}
            det = {k: ev(td[pq][1]) for k, pq in zip(keys, forms.BLOCK_ORDER)}
            why = O.check_cohomology(S, _numeric_lift(S, op["lift"], syms), ev(a["rho"]), blocks,
                                     trace, det, ev(td["total"][0]), ev(a["lefschetz"]), a["trivial"])
            if why:
                return 0, f"{name}: {why}"
        return 0, None


# ---------------------------------------------------------------------------
# the command line


def render(p):
    """A payload in the table format: terms in payload order, "p/q*word"."""
    parts = []
    for mono, q in p:
        q = Fraction(q)
        word = "*".join(name + (f"^{e}" if e != 1 else "") for name, e in mono)
        if not word:
            parts.append(str(q))
        elif q in (1, -1):
            parts.append(("-" if q < 0 else "") + word)
        else:
            parts.append(f"{q}*{word}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def table_lines(doc, indent=""):
    """The documented table layout: "key: value", nested blocks indented by
    two spaces, list items as "- value", empty containers as "(none)"."""
    lines = []
    items = doc.items() if isinstance(doc, dict) else ((None, v) for v in doc)
    for key, val in items:
        head = f"{indent}{key}:" if key is not None else f"{indent}-"
        if isinstance(val, (dict, list)) and val:
            lines.append(head)
            lines.extend(table_lines(val, indent + "  "))
        else:
            lines.append(f"{head} {'(none)' if isinstance(val, (dict, list)) else val}")
    return lines


def _render_fields(doc, keys):
    return {k: (render(v) if k in keys else v) for k, v in doc.items()}


def _render_lift(lift):
    return {f: render(v) for f, v in lift.items()}


def _complex_text(z):
    return f"{z['re']!r}{'+' if z['im'] >= 0 else ''}{z['im']!r}i"


def expected_table(cmd, doc):
    """The table a command should print, given its JSON answer."""
    if cmd == "verify-forms":
        lines = [f"{'pass' if r['ok'] else 'FAIL'}  {r['name']}" for r in doc["results"]]
        return lines + [f"{doc['checks'] - len(doc['failed'])} of {doc['checks']} identities hold"]
    if cmd == "scene":
        return json.dumps(doc, indent=2).split("\n")
    doc = dict(doc)
    surf = ("tau_b", "tau_e", "c", "delta")
    if cmd == "normalize":
        doc["input"] = _render_fields(doc["input"], surf)
        for key, extra in (("delta_zero", "base_shift"), ("c_integer", "fibre_scale")):
            doc[key] = {"surface": _render_fields(doc[key]["surface"], surf), extra: render(doc[key][extra])}
    elif cmd == "moduli":
        doc["j_base"], doc["q_fibre"] = _complex_text(doc["j_base"]), _complex_text(doc["q_fibre"])
    elif cmd in ("compose", "power", "order-n"):
        doc["lift"] = _render_lift(doc["lift"])
        if "unit" in doc:
            doc["unit"] = render(doc["unit"])
    elif cmd == "semidirect":
        doc["translation_part"] = _render_lift(doc["translation_part"])
    elif cmd == "kernel-class" and "element" in doc:
        doc["element"] = render(doc["element"])
    elif cmd == "cohomology":
        doc["rho"] = render(doc["rho"])
        doc["action"] = {k: ["[" + ", ".join(render(x) for x in row) + "]" for row in rows]
                         for k, rows in doc["action"].items()}
        doc["trace"] = {k: render(v) for k, v in doc["trace"].items()}
        doc["det"] = {k: render(v) for k, v in doc["det"].items()}
        doc["total_trace"], doc["lefschetz"] = render(doc["total_trace"]), render(doc["lefschetz"])
    elif cmd == "fixed-locus":
        doc["fibres"] = [render(z) for z in doc["fibres"]]
    return table_lines(doc)


BUNDLED_DIR = os.path.join("src", "kodaira", "scenes")
FORMATS = ("table", "json")


def _shifted_tau_b(doc, shift):
    """The same scene with tau_B moved by an integer: g1' = g1 g2 (-c)."""
    out = json.loads(json.dumps(doc))
    terms = out["surface"]["tau_b"]
    const = sum((Fraction(q) for mono, q in terms if not mono), Fraction(0)) + shift
    out["surface"]["tau_b"] = [[[], str(const)]] * (const != 0) + [t for t in terms if t[0]]
    out["lifts"] = {}
    return out


def _nonzero(rng):
    """A small nonzero rational, so that every pass's scenes have the same terms."""
    return f"{rng.choice((-1, 1)) * rng.randint(1, 3)}/{rng.randint(1, 4)}"


# Two faults kept on purpose: both answers are wrong on every pass until the
# program is fixed, and both inputs are fixed, so they fail a fixed share.
MODULI_FAULT = {
    "ring": [{"name": "i", "d": 1}, {"name": "t", "approx": 3.141592653589793}],
    "surface": {
        "tau_b": [[[], "1/3"], [[["t", 1]], "1/20"]],
        "tau_e": [[[["i", 1]], "1/1"]],
        "c": [[[], "1/1"]],
        "delta": [],
    },
}


class CliSession:
    """One operation: one ``kodaira`` command run in-process, stdout captured."""

    def __init__(self, seed, scratch):
        self.seed, self.scratch = seed, scratch
        self.docs, self.numeric = {}, {}
        for name in sorted(os.listdir(BUNDLED_DIR)):
            if name.endswith(".json"):
                with open(os.path.join(BUNDLED_DIR, name), encoding="utf-8") as fh:
                    self._add_doc(f"bundled:{name[:-5]}", json.load(fh))
        self._write("nk_rank1_shift", _shifted_tau_b(self.docs["bundled:nk_rank1"], 1))
        self._write("moduli_fault", MODULI_FAULT)

    def path(self, name):
        return os.path.join(self.scratch, f"{name}.json")

    def _add_doc(self, key, doc):
        syms = O.symbol_values(doc["ring"])
        self.docs[key] = doc
        self.numeric[key] = (O.NumericSurface.from_payloads(doc["surface"], syms), syms)

    def _write(self, name, doc):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self._add_doc(self.path(name), doc)

    # -- generated scenes, seeded -------------------------------------------

    def _scene_with_lifts(self, doc, rng):
        data = cli.parse_scene(doc).data
        sampler = Sampler(data)
        doc["lifts"] = {f"lift{k}": lift_payloads(sampler.lift(rng, k)) for k in (0, 1)}
        return doc

    def _generated_r2(self, rng):
        """Over Q(i, sqrt-2): tau_B = a + b sqrt-2, tau_E = x + y i,
        c = m (p tau_E + q)."""
        a, b = rng.choice(("1/2", "1/3", "2/3")), rng.choice(("1/1", "1/2", "3/2"))
        x, y = rng.choice(("1/2", "1/3", "1/4")), rng.choice(("1/1", "2/1", "3/2"))
        m = rng.randint(1, 3)
        p, q = rng.choice(((1, 1), (1, 2), (2, 1), (1, 3)))
        c = [[[], str(m * (p * Fraction(x) + q))], [[["i", 1]], str(m * p * Fraction(y))]]
        doc = {
            "ring": [{"name": "i", "d": 1}, {"name": "r2", "d": 2}],
            "surface": {
                "tau_b": [[[], a], [[["r2", 1]], b]],
                "tau_e": [[[], x], [[["i", 1]], y]],
                "c": c,
                "delta": [[[], _nonzero(rng)], [[["r2", 1]], _nonzero(rng)]],
            },
        }
        return self._scene_with_lifts(doc, rng)

    def _generated_r3t(self, rng):
        """Over Q(i, sqrt-3, t): hexagonal tau_B, tau_E = y t, c = m.  (With
        c = m tau_E, normalize would need -1/tau_E, which leaves the ring.)"""
        y = rng.choice(("1/1", "2/1", "1/2"))
        c = [[[], f"{rng.randint(1, 3)}/1"]]
        doc = {
            "ring": [{"name": "i", "d": 1}, {"name": "r3", "d": 3},
                     {"name": "t", "approx": 2.718281828459045}],
            "surface": {
                "tau_b": [[[], "1/2"], [[["r3", 1]], "1/2"]],
                "tau_e": [[[["t", 1]], y]],
                "c": c,
                "delta": [[[["r3", 1]], _nonzero(rng)], [[["t", 1]], _nonzero(rng)]],
            },
        }
        return self._scene_with_lifts(doc, rng)

    # -- the command list of one pass ----------------------------------------

    def _commands(self, rng, path):
        specs = []

        def add(cmd, scene, *extra, fault=False):
            for fmt in FORMATS:
                specs.append({"cmd": cmd, "scene": scene, "extra": list(extra), "fmt": fmt,
                              "fault": fault})

        scenes = [k for k in self.docs if k.startswith("bundled:")] + [path("gen_r2"), path("gen_r3t")]
        for key in scenes:
            lifts_ = sorted(self.docs[key].get("lifts", {}))
            for cmd in ("normalize", "moduli", "order-n", "nk", "verify-forms", "scene"):
                add(cmd, key)
            e1, e2 = (",".join(str(rng.randint(-4, 4)) for _ in range(4)) for _ in range(2))
            add("pi1", key, "--", "star", e1, e2)
            add("pi1", key, "--", "inverse", e1)
            add("pi1", key, "abelianization")
            for j, name in enumerate(lifts_):
                for cmd in ("check-lift", "semidirect", "kernel-class", "cohomology", "fixed-locus"):
                    add(cmd, key, "--lift", name)
                add("power", key, "--lift", name, "-n", "4")
                add("compose", key, "--lift", name, "--lift", lifts_[(j + 1) % len(lifts_)])
        for a, b in (("bundled:translations", "bundled:iso_translate"),
                     ("bundled:translations", "bundled:iso_half_shift"),
                     ("bundled:order6", "bundled:order6"),
                     (path("gen_r2"), path("gen_r2_shift")),
                     (path("gen_r3t"), path("gen_r3t_shift")),
                     (path("gen_r2"), path("gen_r3t"))):
            add("iso", a, "--other", b)
        add("iso", "bundled:nk_rank1", "--other", path("nk_rank1_shift"), fault=True)
        add("moduli", path("moduli_fault"), fault=True)
        specs.append({"cmd": "scenes", "scene": None, "extra": [], "fmt": None, "fault": False})
        for s in specs:
            s["argv"] = [s["cmd"]] if s["scene"] is None else \
                [s["cmd"], "--scene", s["scene"], "--format", s["fmt"]] + s["extra"]
        return specs

    def inputs(self, pass_no):
        """The same commands every pass; the two generated scenes, their
        lifts and the pi1 elements are drawn afresh from (seed, pass)."""
        rng = random.Random(f"cli_session/{self.seed}/{pass_no}")
        gen_r2, gen_r3t = self._generated_r2(rng), self._generated_r3t(rng)
        self._write("gen_r2", gen_r2)
        self._write("gen_r3t", gen_r3t)
        self._write("gen_r2_shift", _shifted_tau_b(gen_r2, 1))
        self._write("gen_r3t_shift", _shifted_tau_b(gen_r3t, -1))
        return self._commands(rng, self.path)

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return code, out.getvalue(), err.getvalue()

    # -- checks --------------------------------------------------------------

    def check(self, ops, answers):
        by_key, faults = {}, 0
        for op, ans in zip(ops, answers):
            by_key.setdefault((op["cmd"], op["scene"], tuple(op["extra"])), {})[op["fmt"]] = (op, ans)
        for (cmd, scene, extra), pair in by_key.items():
            if len(pair) < (1 if cmd == "scenes" else 2):
                continue  # an operation raised; the worker counted it as failed
            why = self._check_pair(cmd, scene, list(extra), pair, by_key)
            if why and pair[next(iter(pair))][0]["fault"]:
                faults += len(pair)
            elif why:
                return faults, f"{cmd} {scene} {' '.join(extra)}: {why}"
        return faults, None

    def _check_pair(self, cmd, scene, extra, pair, by_key):
        for op, (code, out, err) in pair.values():
            if code != 0 or err:
                return f"exit {code}: {err.strip()}"
        if cmd == "scenes":
            _, (_, out, _) = pair[None]
            want = sorted(k[len("bundled:"):] for k in self.docs if k.startswith("bundled:"))
            return None if out.split() == want else "scene list differs from the scene files"
        doc = json.loads(pair["json"][1][1])
        table = pair["table"][1][1]
        if table.rstrip("\n").split("\n") != expected_table(cmd, doc):
            return "table output disagrees with json output"
        return self._oracle(cmd, scene, extra, doc, by_key)

    def _lift(self, scene, name):
        S, syms = self.numeric[scene]
        entry = self.docs[scene]["lifts"][name]
        return S.lift(*(O.evaluate(entry[f], syms) for f in ("alpha", "beta", "sigma10", "v")))

    def _oracle(self, cmd, scene, extra, doc, by_key):
        S, syms = self.numeric[scene]
        ev = lambda p: O.evaluate(p, syms)  # noqa: E731
        num = lambda d: S.lift(*(ev(d[f]) for f in ("alpha", "beta", "sigma10", "v")))  # noqa: E731
        lift = self._lift(scene, extra[1]) if extra[:1] == ["--lift"] else None
        if cmd == "normalize":
            return O.check_normalize(S, doc, syms)
        if cmd == "moduli":
            j = mpmath_complex(doc["j_base"])
            return O.check_moduli(S, j, mpmath_complex(doc["q_fibre"]), doc["precision"])
        if cmd == "pi1":
            elems = [tuple(int(x) for x in e.split(",")) for e in extra if "," in e]
            if "star" in extra:
                return O.check_star(S, elems[0], elems[1], tuple(doc["exponents"]))
            if "inverse" in extra:
                return O.check_inverse(S, elems[0], tuple(doc["exponents"]))
            return O.check_abelianization(S, doc)
        if cmd == "order-n":
            return O.check_unit_lift(S, doc["n"], ev(doc["unit"]), num(doc["lift"]))
        if cmd == "nk":
            inv = doc["infinitely_many_base_translations"]
            t = doc["torsion"]
            want = O.nk_free_rank(self.docs[scene])
            if doc["free_rank"] != want or inv != (want >= 1):
                return f"free rank {doc['free_rank']} (infinite: {inv}), linear algebra gives {want}"
            if any(x <= 1 for x in t) or any(b % a for a, b in zip(t, t[1:])):
                return "torsion is not a divisibility chain"
            return None
        if cmd == "verify-forms":
            ok = all(r["ok"] for r in doc["results"]) and not doc["failed"]
            return None if ok and doc["checks"] == len(doc["results"]) == 96 else "identities fail"
        if cmd == "scene":
            want = self.docs[scene]
            declared = [s["name"] for s in want["ring"] if s["name"] != "i"]
            same = [s["name"] for s in doc["ring"]] == ["i"] + declared
            same = same and all(O.canonical(doc["surface"][k]) == O.canonical(want["surface"][k])
                                for k in want["surface"])
            lifts_ = want.get("lifts", {})
            same = same and sorted(doc["lifts"]) == sorted(lifts_) and all(
                O.canonical(doc["lifts"][n][f]) == O.canonical(lifts_[n][f])
                for n in lifts_ for f in lifts_[n])
            return None if same else "scene output does not round-trip"
        if cmd == "iso":
            verdict = O.iso_verdict(S, self.numeric[extra[1]][0])
            if verdict is not None and doc["isomorphic"] != verdict:
                return f"isomorphic: {doc['isomorphic']}, expected {verdict}"
            return None
        if cmd == "check-lift":
            if not S.descends(lift):
                want = "NotDescending"
            else:
                want = "Automorphism" if O.close(abs(lift.a), 1) else "Endomorphism"
            base = "rotation" if not O.close(lift.a, 1) else \
                ("identity" if S.lattice(lift.b, S.tb) else "translation")
            if doc["class"] != want or doc["base_map"] != base:
                return f"class {doc['class']}/{doc['base_map']}, expected {want}/{base}"
            if want == "Automorphism" and doc["is_deck"] != (S.deck_exponents(lift) is not None):
                return "is_deck is wrong"
            return None
        if cmd == "compose":
            inner = self._lift(scene, extra[3])
            if not O.same_map(num(doc["lift"]), lift.after(inner)):
                return "compose is not the composite map"
            return None if doc["class"] == "Automorphism" else "composite is not an automorphism"
        if cmd == "power":
            return None if O.same_map(num(doc["lift"]), lift.power(int(extra[3]))) else "power is wrong"
        if cmd == "semidirect":
            base = json.loads(by_key[("order-n", scene, ())]["json"][1][1])
            return O.check_semidirect(S, lift, num(doc["translation_part"]), doc["exponent"],
                                      num(base["lift"]), base["n"])
        if cmd == "kernel-class":
            elem = ev(doc["element"]) if "element" in doc else None
            return O.check_kernel_class(S, lift, doc["kind"], elem)
        if cmd == "cohomology":
            blocks = {k: [[ev(x) for x in row] for row in rows] for k, rows in doc["action"].items()}
            trace = {k: ev(v) for k, v in doc["trace"].items()}
            det = {k: ev(v) for k, v in doc["det"].items()}
            return O.check_cohomology(S, lift, ev(doc["rho"]), blocks, trace, det,
                                      ev(doc["total_trace"]), ev(doc["lefschetz"]), doc["acts_trivially"])
        if cmd == "fixed-locus":
            return O.check_fixed_locus(S, lift, doc["kind"], [ev(z) for z in doc["fibres"]])
        return f"no oracle for {cmd}"


def mpmath_complex(z):
    return O.mpmath.mpc(z["re"], z["im"])
