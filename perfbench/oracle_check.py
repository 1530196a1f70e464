"""Show that each oracle rejects a deliberately corrupted answer.

    PYTHONPATH=src python3 perfbench/oracle_check.py

Runs one pass of each workload, confirms the checks accept the real answers,
then corrupts one answer at a time and confirms the checks reject it.  Prints
one line per case and exits 1 if any corrupted answer is accepted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.abspath("src"))

import workloads as W  # noqa: E402
from kodaira import fixedlocus, forms, lifts, pi1  # noqa: E402


def bump(l, field, q=Fraction(1, 7)):
    return dataclasses.replace(l, **{field: getattr(l, field) + q})


def shifted(g, d, k=2):
    m1, m2, m3, m4 = g.exponents()
    return pi1.from_exponents(m1, m2, m3 + k, m4, d)


def lift_cases(op, a):
    d, l = op["surface"][1], op["lift"]
    part, e = a["semidirect"]
    loc = a["fixed"]
    fake = d.ring.value(Fraction(1, 3)) + d.tau_b.value * Fraction(1, 5)
    return {
        "descent_check says Endomorphism": ("class", lifts.MapClass.ENDOMORPHISM),
        "compose with v off by 1/7": ("compose", bump(a["compose"], "v")),
        "invert with beta off by 1/7": ("invert", bump(a["invert"], "beta")),
        "power one step short": ("power", lifts.power(l, op["n"] - 1, d)),
        "semidirect part with v off": ("semidirect", (bump(part, "v"), e)),
        "semidirect exponent off by one": ("semidirect", (part, e + 1)),
        "kernel class flipped": ("kernel", lifts.GaugeWithHom() if isinstance(
            a["kernel"], lifts.NotInKerPsi) else lifts.NotInKerPsi()),
        "conjugate_deck of g1 off in m3": ("conj", [shifted(a["conj"][0], d)] + a["conj"][1:]),
        "star product off in m3": ("star", shifted(a["star"], d)),
        "conjugate of the star product off": ("conj_star", shifted(a["conj_star"], d)),
        "fixed locus with a stray fibre": ("fixed", fixedlocus.FixedLocus(
            fixedlocus.FIBRES, loc.fibres + (fake,))),
    }


def forms_cases(op, a):
    blocks = dict(a["action"].blocks)
    row0 = blocks[(0, 1)][1]
    blocks[(0, 1)] = (blocks[(0, 1)][0], (row0[0] + 1, row0[1]))
    td = dict(a["trace_det"])
    td[(1, 1)] = (td[(1, 1)][0] + 1, td[(1, 1)][1])
    return {
        "rho off by 1": ("rho", a["rho"] + 1),
        "H01 entry off by 1": ("action", forms.DolbeaultAction(blocks)),
        "H11 trace off by 1": ("trace_det", td),
        "Lefschetz number 1": ("lefschetz", a["lefschetz"] + 1),
        "acts_trivially flipped": ("trivial", not a["trivial"]),
    }


def corrupt_cli(ops, answers, cmd, edit):
    """Change the json answer of the first `cmd` op, and its table twin to
    match, so only the oracle (not the table check) can notice."""
    out = list(answers)
    j = next(k for k, op in enumerate(ops) if op["cmd"] == cmd and op["fmt"] == "json"
             and not op["fault"] and (cmd != "fixed-locus" or '"fibres": [\n' in answers[k][1]))
    twin = ops[j]["argv"][:4] + ["table"] + ops[j]["argv"][5:]
    t = next(k for k, op in enumerate(ops) if op["argv"] == twin)
    doc = json.loads(answers[j][1])
    edit(doc)
    out[j] = (0, json.dumps(doc, indent=2) + "\n", "")
    out[t] = (0, "\n".join(W.expected_table(cmd, doc)) + "\n", "")
    return out


def cli_cases():
    def add_q(p):
        return p + [[[], "1/7"]]
    return {
        "normalize torsion_m + 1": ("normalize", lambda d: d.update(torsion_m=d["torsion_m"] + 1)),
        "moduli j off by 1e-6": ("moduli", lambda d: d["j_base"].update(
            re=d["j_base"]["re"] * (1 + 1e-6) + 1e-6)),
        "pi1 star off in m4": ("pi1", lambda d: d.update(
            exponents=d["exponents"][:3] + [d["exponents"][3] + 1])),
        "check-lift says NotDescending": ("check-lift", lambda d: d.update({"class": "NotDescending"})),
        "compose v off by 1/7": ("compose", lambda d: d["lift"].update(v=add_q(d["lift"]["v"]))),
        "power beta off by 1/7": ("power", lambda d: d["lift"].update(beta=add_q(d["lift"]["beta"]))),
        "order-n n doubled": ("order-n", lambda d: d.update(n=2 * d["n"])),
        "semidirect v off by 1/7": ("semidirect", lambda d: d["translation_part"].update(
            v=add_q(d["translation_part"]["v"]))),
        "kernel-class kind flipped": ("kernel-class", lambda d: d.update(
            kind="gauge_with_hom" if d["kind"] != "gauge_with_hom" else "not_in_kernel")),
        "nk flag flipped": ("nk", lambda d: d.update(
            infinitely_many_base_translations=not d["infinitely_many_base_translations"])),
        "cohomology rho off by 1/7": ("cohomology", lambda d: d.update(rho=add_q(d["rho"]))),
        "fixed-locus drops a fibre": ("fixed-locus", lambda d: d.update(fibres=d["fibres"][1:])
                                      if len(d["fibres"]) > 1 else d.update(kind="empty", fibres=[])),
        "verify-forms reports a failure": ("verify-forms", lambda d: d.update(failed=["x"])),
        "scene c off by 1/7": ("scene", lambda d: d["surface"].update(c=add_q(d["surface"]["c"]))),
        "iso verdict flipped": ("iso", lambda d: d.update(isomorphic=not d["isomorphic"])),
    }


def main():
    bad = 0

    def report(name, why):
        nonlocal bad
        bad += why is None
        print(f"{'rejected' if why else 'ACCEPTED'}  {name}" + (f"  ({why})" if why else ""))

    for wl, cases in ((W.LiftGroup(1), lift_cases), (W.FormsCohomology(1), forms_cases)):
        ops = wl.inputs(0)
        answers = [wl.run(op) for op in ops]
        _, why = wl.check(ops, answers)
        print(f"{type(wl).__name__}: real answers {'pass' if why is None else 'FAIL: ' + why}")
        bad += why is not None
        # corrupt the answer for a lift that rotates the base (kind 1)
        k = 1
        for name, (key, value) in cases(ops[k], answers[k]).items():
            changed = list(answers)
            changed[k] = dict(answers[k], **{key: value})
            report(name, wl.check(ops, changed)[1])

    with tempfile.TemporaryDirectory() as scratch:
        wl = W.CliSession(1, scratch)
        ops = wl.inputs(0)
        answers = [wl.run(op) for op in ops]
        faults, why = wl.check(ops, answers)
        print(f"CliSession: real answers {'pass' if why is None else 'FAIL: ' + why}, "
              f"{faults} known-fault operations")
        bad += why is not None
        for name, (cmd, edit) in cli_cases().items():
            report(name, wl.check(ops, corrupt_cli(ops, answers, cmd, edit))[1])
        table = list(answers)
        j = next(k for k, op in enumerate(ops) if op["cmd"] == "normalize" and op["fmt"] == "table")
        table[j] = (0, table[j][1].replace("torsion_m: ", "torsion_m: 1"), "")
        report("table output altered", wl.check(ops, table)[1])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
