"""Value keys of rings and surfaces, the lean scene load, and the work a
freshly parsed scene still does.

Every command parses its scene afresh, so equal rings and surfaces arrive as
distinct objects.  NumberRing and KodairaData compare by plain-data keys; the
tests here hold those keys to the field-wise equality they replace, hold the
new Tau validity test to the construction it replaces, and count the
per-surface work that must not repeat.
"""

import copy
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kodaira import cli, lifts, surface
from kodaira.exactfield import NumberRing, NumberValue, SymbolDecl, Tau
from kodaira.scene import SceneError, bundled_scene, parse_scene
from kodaira.surface import lattice_frame


def _template(y, m, x, z):
    """A valid scene over Q(i, sqrt-3, t): hexagonal tau_B, tau_E = y t,
    c = m, delta = x sqrt-3 + z t."""
    return {
        "ring": [{"name": "i", "d": 1}, {"name": "r3", "d": 3},
                 {"name": "t", "approx": 2.718281828459045}],
        "surface": {
            "tau_b": [[[], "1/2"], [[["r3", 1]], "1/2"]],
            "tau_e": [[[["t", 1]], y]],
            "c": [[[], f"{m}/1"]],
            "delta": [[[["r3", 1]], x], [[["t", 1]], z]],
        },
    }


# each perturbation keeps the scene valid and changes one field, or one
# symbol's d or approx
_PERTURB = {
    "none": lambda doc: None,
    "tau_b": lambda doc: doc["surface"]["tau_b"].append([[], "1/1"]),
    "tau_e": lambda doc: doc["surface"]["tau_e"].append([[], "1/3"]),
    "c": lambda doc: doc["surface"]["c"].append([[], "1/1"]),
    "delta": lambda doc: doc["surface"]["delta"].append([[], "1/7"]),
    "d": lambda doc: doc["ring"][1].update(d=7),
    "approx": lambda doc: doc["ring"][2].update(approx=2.5),
}
_positive = st.sampled_from(["1/1", "2/1", "1/2", "5/3"])
_fracs = st.sampled_from(["1/1", "2/1", "1/2", "-3/2", "5/3"])


def _rings_equal_fieldwise(a, b):
    return a.symbols == b.symbols


def _surfaces_equal_fieldwise(a, b):
    return (a.tau_b == b.tau_b and a.tau_e == b.tau_e
            and a.c == b.c and a.delta == b.delta)


@settings(max_examples=120, deadline=None)
@given(_positive, st.integers(1, 3), _fracs, _fracs, st.sampled_from(sorted(_PERTURB)))
def test_keys_agree_with_fieldwise_equality(y, m, x, z, how):
    doc = _template(y, m, x, z)
    other = copy.deepcopy(doc)
    _PERTURB[how](other)
    a, b = parse_scene(doc), parse_scene(other)
    assert a.ring is not b.ring and a.data is not b.data
    for u, v, reference in ((a.ring, b.ring, _rings_equal_fieldwise),
                            (a.data, b.data, _surfaces_equal_fieldwise)):
        same = reference(u, v)
        assert (u == v) is same and (v == u) is same and (u != v) is not same
        if same:
            assert hash(u) == hash(v)
        assert len({u, v}) == (1 if same else 2)
        assert u == u and hash(u) == hash(u)
        assert u != "surface" and u != (u,)
    assert (how == "none") is (a.data == b.data)


def test_ring_key_reads_name_d_and_approx():
    base = [SymbolDecl("i", d=1), SymbolDecl("t", approx=2.5)]
    assert NumberRing(base) == NumberRing(list(base))
    assert NumberRing(base) != NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", approx=2.6)])
    assert NumberRing(base) != NumberRing([SymbolDecl("i", d=1), SymbolDecl("s", approx=2.5)])
    assert NumberRing(base) != NumberRing([SymbolDecl("i", d=1), SymbolDecl("t", d=2)])
    # i is prepended when not declared, so these two declare the same ring
    assert NumberRing([SymbolDecl("t", approx=2.5)]) == NumberRing(base)
    # symbol order is part of the ring: monomials index symbols by position
    assert NumberRing([SymbolDecl("r2", d=2), SymbolDecl("r3", d=3)]) != \
        NumberRing([SymbolDecl("r3", d=3), SymbolDecl("r2", d=2)])


def test_frame_of_an_equal_surface_is_found_without_comparing_values(monkeypatch):
    doc = bundled_scene("order6")
    a, b = parse_scene(doc).data, parse_scene(copy.deepcopy(doc)).data
    assert a is not b and a.ring is not b.ring
    frame = lattice_frame(a)
    calls = []

    def counting(name, f):
        def wrapper(self, other):
            calls.append(name)
            return f(self, other)
        return wrapper

    for cls in (Tau, NumberValue, NumberRing):
        monkeypatch.setattr(cls, "__eq__", counting(cls.__name__, cls.__eq__))
    assert lattice_frame(b) is frame
    assert calls == []


# reduced monomials of Q(i, sqrt-3, t): odd and even degrees, t^3, t^-1, and
# odd products of several symbols
_MONOS = [(), ((0, 1),), ((1, 1),), ((2, 1),), ((0, 1), (1, 1)), ((2, 3),), ((2, -1),),
          ((0, 1), (2, 1)), ((1, 1), (2, 2)), ((2, 2),), ((0, 1), (1, 1), (2, 1))]
_RHT = NumberRing([SymbolDecl("i", d=1), SymbolDecl("r3", d=3), SymbolDecl("t")])


def _tau_reference(value):
    """Tau's validity test as first written, through value - conj(value):
    (symbol index, Im coefficient), or None when value is no point of the
    upper half-plane."""
    w = value - value.conjugate()
    monos = w.monomials()
    ok = len(monos) == 1 and len(monos[0]) == 1 and monos[0][0][1] == 1
    if not ok or w.coeff(monos[0]) <= 0:
        return None
    return monos[0][0][0], w.coeff(monos[0]) / 2


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from(_MONOS), _coeffs, max_size=4))
def test_tau_validity_matches_the_conjugate_construction(coeffs):
    value = NumberValue(_RHT, coeffs)
    want = _tau_reference(value)
    if want is None:
        with pytest.raises(ValueError, match="not a valid upper-half-plane point"):
            Tau(value)
        return
    tau = Tau(value)
    assert (tau.imag_symbol_index(), tau.imag_coeff()) == want
    assert (tau._im_index, tau._im_coeff) == want
    assert Tau(tau) == tau and Tau(tau)._im_coeff == want[1]


def test_tau_rejects_the_named_invalid_shapes():
    i, r3, t = (_RHT.symbol(n) for n in ("i", "r3", "t"))
    for bad in (i + r3, t * t * t, -t, i * r3 * t, _RHT.value(Fraction(1, 2)), t * t):
        assert _tau_reference(bad) is None
        with pytest.raises(ValueError):
            Tau(bad)
    tau = Tau(t * Fraction(3, 4) + r3 * i + 2)
    assert (tau.imag_symbol_index(), tau.imag_coeff()) == (2, Fraction(3, 4))


def test_order_n_lift_once_per_surface_and_nk_once_per_command(monkeypatch, capsys):
    calls = {"order_n_lift": 0, "nk_invariants": 0}

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(lifts, "order_n_lift", counting("order_n_lift", lifts.order_n_lift))
    nk = counting("nk_invariants", lifts.nk_invariants)
    monkeypatch.setattr(lifts, "nk_invariants", nk)
    monkeypatch.setattr(cli, "nk_invariants", nk)
    lattice_frame.cache_clear()
    scenes = ("order4", "order6", "translations")
    for _ in range(2):
        for name in scenes:  # each main call parses its scene afresh
            assert cli.main(["order-n", "--scene", f"bundled:{name}"]) == 0
            assert cli.main(["nk", "--scene", f"bundled:{name}"]) == 0
    capsys.readouterr()
    assert calls == {"order_n_lift": len(scenes), "nk_invariants": 2 * len(scenes)}


def test_j_series_is_built_on_first_use_only():
    # a fresh interpreter: importing the CLI leaves the series unbuilt
    src = str(pathlib.Path(surface.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import kodaira.cli, kodaira.surface as s\n"
             "print(s._j_q_coefficients.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
    coeffs = surface._j_q_coefficients()
    assert coeffs[:4] == (1, 744, 196884, 21493760)
    assert surface._j_q_coefficients() is coeffs


def test_a_name_no_file_system_accepts_is_no_bundled_scene():
    for name in ("nope", "order4\0", "x" * 5000, "."):
        with pytest.raises(SceneError, match="no bundled scene"):
            bundled_scene(name)
