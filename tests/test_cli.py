"""The command-line front end: plumbing, exit codes, determinism."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from kodaira import cli, selftest
from importlib import resources
from kodaira.exactfield import MAX_QUADRATIC_EXPONENT, NumberRing, to_payload
from kodaira.scene import (
    SceneError,
    bundled_scene,
    bundled_scene_names,
    parse_scene,
    scene_document,
)

R = NumberRing()
I = R.i()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenes_listing(capsys):
    code, out, err = run(capsys, "scenes")
    assert code == 0 and err == ""
    names = out.splitlines()
    assert names == sorted(names)
    assert "translations" in names and "order6" in names
    assert len(names) == 13


def test_scene_echo_matches_bundled_file(capsys):
    for name in bundled_scene_names():
        code, out, err = run(capsys, "scene", "--scene", f"bundled:{name}")
        assert code == 0, name
        raw = (resources.files("kodaira") / "scenes" / f"{name}.json").read_text()
        assert out == raw


def test_round_trip_through_parser():
    for name in bundled_scene_names():
        doc = bundled_scene(name)
        scene = parse_scene(doc)
        assert scene_document(scene) == doc


def test_output_is_deterministic(capsys):
    cases = [
        ("cohomology", "--scene", "bundled:translations", "--lift", "half_period",
         "--format", "json"),
        ("moduli", "--scene", "bundled:order6", "--format", "json"),
        ("verify-forms", "--scene", "bundled:order2", "--format", "table"),
    ]
    for argv in cases:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_normalize_frozen_values(capsys):
    code, out, _ = run(capsys, "normalize", "--scene", "bundled:normalize_demo",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    shift = R.value(Fraction(1, 6)) - I * Fraction(1, 5)
    assert doc["delta_zero"]["base_shift"] == to_payload(shift)
    assert doc["c_integer"]["fibre_scale"] == to_payload(-I)
    assert doc["c_integer"]["surface"]["c"] == to_payload(R.value(2))
    assert doc["c_integer"]["surface"]["delta"] == []
    assert doc["torsion_m"] == 2


def test_fixed_locus_output(capsys):
    code, out, _ = run(capsys, "fixed-locus", "--scene", "bundled:fixed_locus",
                       "--lift", "involution", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "fibres"
    half = Fraction(1, 2)
    expected = [to_payload(v) for v in
                (R.zero(), I * half, (R.one() + I) * half)]
    assert sorted(map(json.dumps, doc["fibres"])) == sorted(map(json.dumps, expected))

    code, out, _ = run(capsys, "fixed-locus", "--scene", "bundled:fixed_locus",
                       "--lift", "involution_shifted", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"kind": "empty", "fibres": []}


def test_pi1_abelianization(capsys):
    code, out, _ = run(capsys, "pi1", "abelianization", "--scene",
                       "bundled:translations", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["free_rank"] == 3
    assert doc["torsion"] == [2]


def test_pi1_star_and_inverse(capsys):
    code, out, _ = run(capsys, "pi1", "--scene", "bundled:translations",
                       "--format", "json", "star", "1,0,0,0", "0,1,0,0")
    assert code == 0
    product = json.loads(out)["exponents"]
    code, out, _ = run(capsys, "pi1", "--scene", "bundled:translations",
                       "--format", "json", "--", "inverse", ",".join(map(str, product)))
    assert code == 0
    inv = json.loads(out)["exponents"]
    code, out, _ = run(capsys, "pi1", "--scene", "bundled:translations",
                       "--format", "json", "--", "star", ",".join(map(str, product)),
                       ",".join(map(str, inv)))
    assert json.loads(out)["exponents"] == [0, 0, 0, 0]


def test_pi1_star_needs_elements(capsys):
    code, _, err = run(capsys, "pi1", "--scene", "bundled:translations", "star")
    assert code == 2
    assert "element" in err


def test_check_lift_reports(capsys):
    code, out, _ = run(capsys, "check-lift", "--scene", "bundled:translations",
                       "--lift", "half_period", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "Automorphism"
    assert doc["base_map"] == "translation"
    assert doc["is_deck"] is False


def test_cohomology_report(capsys):
    code, out, _ = run(capsys, "cohomology", "--scene", "bundled:translations",
                       "--lift", "half_period", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rho"] == to_payload(-R.one())
    assert doc["lefschetz"] == to_payload(R.zero())
    assert doc["total_trace"] == to_payload(R.value(12))
    assert doc["symplectic"] is True
    assert doc["acts_trivially"] is False
    assert set(doc["action"]) == {f"H{p}{q}" for p in range(3) for q in range(3)}


def test_moduli_precision(capsys):
    code, out, _ = run(capsys, "moduli", "--scene", "bundled:translations",
                       "--format", "json", "--precision", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["j_base"]["re"] == pytest.approx(1728.0, rel=1e-9)
    assert doc["j_base"]["im"] == pytest.approx(0.0, abs=1e-9)
    assert doc["precision"] == 12



def test_moduli_precision_out_of_range(tmp_path, capsys):
    for bad in ("-3", "0", "40"):
        code, out, err = run(capsys, "moduli", "--scene", "bundled:order2", "--precision", bad)
        assert code == 2 and out == ""
        assert "--precision" in err and bad in err
    doc = bundled_scene("order2")
    doc["options"] = {"precision": 40}
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    code, _, err = run(capsys, "moduli", "--scene", str(scene))
    assert code == 2 and "options.precision" in err and "40" in err
    # the flag wins over the scene option
    code, out, _ = run(capsys, "moduli", "--scene", str(scene), "--precision", "15",
                       "--format", "json")
    assert code == 0 and json.loads(out)["precision"] == 15
    doc["options"] = {"precision": True}
    scene.write_text(json.dumps(doc))
    code, out, err = run(capsys, "moduli", "--scene", str(scene))
    assert (code, out) == (2, "")
    assert err == "error: options.precision: expected a positive integer\n"

def test_iso_verdicts(capsys):
    code, out, _ = run(capsys, "iso", "--scene", "bundled:translations",
                       "--other", "bundled:iso_translate", "--format", "json")
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    code, out, _ = run(capsys, "iso", "--scene", "bundled:translations",
                       "--other", "bundled:iso_half_shift", "--format", "json")
    assert code == 0
    assert json.loads(out)["isomorphic"] is False


def test_order_n_matches_unit_order(capsys):
    for name, order in [("order4", 4), ("order6", 6), ("order2", 2)]:
        code, out, _ = run(capsys, "order-n", "--scene", f"bundled:{name}",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == order


def test_verify_forms_table(capsys):
    code, out, _ = run(capsys, "verify-forms", "--scene", "bundled:order6",
                       "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "96 of 96 identities hold"
    assert all(l.startswith("pass  ") for l in lines[:-1])


def test_missing_lift_is_a_scene_error(capsys):
    for argv in (("fixed-locus", "--lift", "nope"),
                 ("compose", "--lift", "involution", "--lift", "nope")):
        code, _, err = run(capsys, *argv, "--scene", "bundled:fixed_locus")
        assert code == 2
        assert "nope" in err and "scene has: " in err


def test_ambiguous_lift_default_is_a_scene_error(capsys):
    # fixed_locus ships several lifts, so --lift is required there
    code, _, err = run(capsys, "check-lift", "--scene", "bundled:fixed_locus")
    assert code == 2
    # while a single-lift scene picks its lift automatically
    code, out, _ = run(capsys, "check-lift", "--scene", "bundled:bundle_action",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["class"] == "Automorphism"


def test_malformed_scene_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "scene", "--scene", str(bad))
    assert code == 2 and "error:" in err

    extra = tmp_path / "extra.json"
    doc = bundled_scene("translations")
    doc["unknown"] = 1
    extra.write_text(json.dumps(doc))
    code, _, err = run(capsys, "scene", "--scene", str(extra))
    assert code == 2 and "unknown" in err

    missing = tmp_path / "missing.json"
    doc = bundled_scene("translations")
    del doc["surface"]["c"]
    missing.write_text(json.dumps(doc))
    code, _, err = run(capsys, "scene", "--scene", str(missing))
    assert code == 2


def _drop(*keys):
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    return edit


def _put(*keys, value):
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [doc], "{path}: top level must be an object"),
    (_put("colour", value=1), "{path}: unknown keys ['colour']"),
    (_drop("surface"), "{path}: missing 'surface'"),
    (_put("ring", value={"name": "i"}), "ring: expected a list of symbols"),
    (_put("ring", value=[{"d": 1}]), "ring[0]: expected an object with a 'name'"),
    (_put("ring", value=["i"]), "ring[0]: expected an object with a 'name'"),
    (_put("ring", value=[{"name": "i", "x": 1}]), "ring[0]: unknown keys ['x']"),
    (_put("surface", value=[]), "surface: expected an object"),
    (_drop("surface", "c"), "surface: missing ['c']"),
    (_put("surface", "z", value=[]), "surface: unknown keys ['z']"),
    (_put("lifts", value=[]), "lifts: expected an object"),
    (_put("lifts", "half_period", value=[]), "lifts.half_period: expected an object"),
    (_drop("lifts", "half_period", "v"), "lifts.half_period: missing ['v']"),
    (_put("lifts", "half_period", "w", value=[]), "lifts.half_period: unknown keys ['w']"),
    (_put("options", value=[]), "options: expected an object"),
    (_put("options", value={"colour": "red"}), "options: unknown keys ['colour']"),
    (_put("options", value={"format": "yaml"}), "options.format: expected 'json' or 'table'"),
    (_put("options", value={"precision": 0}), "options.precision: expected a positive integer"),
    (_put("options", value={"precision": "3"}), "options.precision: expected a positive integer"),
])
def test_structural_scene_errors(tmp_path, capsys, edit, message):
    doc = bundled_scene("translations")
    doc = edit(doc) or doc
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-lift", "--scene", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(path=path)}\n"


def test_unreadable_scene_file(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    code, out, err = run(capsys, "nk", "--scene", str(absent))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read {absent}: [Errno 2] No such file or directory: "
                   f"'{absent}'\n")


@pytest.mark.parametrize("raw,reason", [
    (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 "
                   "(char 1)"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[" * 200000 + b"]" * 200000, "maximum recursion depth exceeded while decoding a "
                                    "JSON array from a unicode string"),
    (b'{"ring": ' + b"7" * 5000 + b"}", "Exceeds the limit (4300 digits) for integer "
                                       "string conversion"),
])
def test_undecodable_scene_files_are_scene_errors(tmp_path, capsys, raw, reason):
    path = tmp_path / "scene.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "nk", "--scene", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: {reason}")


@pytest.mark.parametrize("path,payload,message", [
    ("surface.c", [[[], "1/0"]], "coefficient '1/0' has a zero denominator"),
    ("surface.c", [[[], "x"]], "coefficient 'x' is not an integer or a fraction p/q"),
    ("surface.c", [[[["z", 1]], "1/1"]], "unknown symbol 'z'"),
    ("surface.c", [[[[["i"], 1]], "1/1"]], "unknown symbol ['i']"),
    ("surface.c", [[[["i", 1.5]], "1/1"]], "exponent 1.5 of symbol 'i' is not an integer"),
    ("lifts.half_period.alpha", [[[], "1/2/3"]], "coefficient '1/2/3' is not an integer"),
    ("surface.c", [[["i"], "1/1"]], "monomial entry 'i' is not a [name, exponent] pair"),
    ("surface.c", [[[], "1/1", 2]], "term [[], '1/1', 2] is not a [monomial, coefficient] pair"),
    ("surface.c", [[[["i", 1, 2]], "1/1"]],
     "monomial entry ['i', 1, 2] is not a [name, exponent] pair"),
    ("surface.c", [["i", "1/1"]], "monomial 'i' of term ['i', '1/1'] is not a list"),
    ("surface.c", [3], "term 3 is not a [monomial, coefficient] pair"),
])
def test_payload_errors_name_the_field_and_value(tmp_path, capsys, path, payload, message):
    doc = bundled_scene("translations")
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = payload
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-lift", "--scene", str(scene))
    assert code == 2 and out == ""
    assert f"{path}: {message}" in err and "Traceback" not in err


def test_domain_errors_exit_one(tmp_path, capsys):
    doc = bundled_scene("translations")
    doc["lifts"]["bad"] = {
        "alpha": to_payload(R.one()),
        "beta": to_payload(R.value(Fraction(1, 7))),
        "sigma10": [],
        "v": [],
    }
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    code, _, err = run(capsys, "fixed-locus", "--scene", str(scene), "--lift", "bad")
    assert code == 1
    assert "error:" in err
    # the same lift is still reportable, just not an automorphism
    code, out, _ = run(capsys, "check-lift", "--scene", str(scene), "--lift", "bad",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["class"] == "NotDescending"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["power", "--scene", "bundled:order4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_bundled_scene_lists_the_available_ones(capsys):
    # a path to a shipped scene, relative or absolute, is not a name
    for name in ("nope", "../scenes/order4", str(resources.files("kodaira") / "scenes" / "order4")):
        code, out, err = run(capsys, "nk", "--scene", f"bundled:{name}")
        assert code == 2 and out == ""
        assert err == (f"error: no bundled scene {name!r}; available: "
                       f"{', '.join(bundled_scene_names())}\n")


# --- repeated calls in one process ----------------------------------------


def test_parser_is_built_once_across_calls(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    commands = [("scenes",), ("nk", "--scene", "bundled:nk_rank1"),
                ("pi1", "--scene", "bundled:order4", "abelianization", "--format", "json")]
    for k in range(102):
        assert run(capsys, *commands[k % len(commands)])[0] == 0
        if k == 0:
            first = len(built)
    assert first > 1 and len(built) == first
    assert cli._parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = (
        "import argparse\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **k):\n"
        "    built.append(1)\n"
        "    real_init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import kodaira.cli\n"
        "print(len(built), kodaira.cli._parser.cache_info().currsize)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0\n"


def test_append_does_not_accumulate_lifts(capsys):
    argv = ("compose", "--scene", "bundled:fixed_locus", "--lift", "involution",
            "--lift", "fibre_shift", "--format", "json")
    first = run(capsys, *argv)
    assert first[0] == 0 and first[2] == ""
    assert run(capsys, *argv) == first


def test_format_does_not_leak_between_calls(capsys, tmp_path):
    argv = ("nk", "--scene", "bundled:nk_rank1")
    table = run(capsys, *argv)
    as_json = run(capsys, *argv, "--format", "json")
    assert json.loads(as_json[1])["free_rank"] == 1
    assert run(capsys, *argv) == table
    assert table[1].startswith("free_rank: 1\n")
    doc = bundled_scene("nk_rank1")
    doc["options"] = {"format": "json"}
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    assert run(capsys, "nk", "--scene", str(scene), "--format", "table") == table
    assert run(capsys, "nk", "--scene", str(scene)) == as_json


def test_usage_error_leaves_the_next_call_intact(capsys):
    argv = ("power", "--scene", "bundled:translations", "-n", "3", "--format", "json")
    before = run(capsys, *argv)
    assert before[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["power", "--scene", "bundled:translations", "--lift", "half_period"])
    assert exc.value.code == 2
    assert "--exponent" in capsys.readouterr().err
    assert run(capsys, *argv) == before


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr()


def test_help_is_the_same_on_the_first_and_later_calls(capsys):
    cli._parser.cache_clear()
    first = [_help(capsys), _help(capsys, "power")]
    assert first[0].out.startswith("usage: kodaira ")
    assert first[1].out.startswith("usage: kodaira power ")
    run(capsys, "power", "--scene", "bundled:translations", "-n", "2")
    run(capsys, "scenes")
    with pytest.raises(SystemExit):
        cli.main(["power"])
    capsys.readouterr()
    assert [_help(capsys), _help(capsys, "power")] == first


def test_selftest_command_reports_all_checks(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 13
    assert all(" PASS " in l for l in lines)


def test_a_failed_acceptance_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "run_all",
                        lambda verbose: [(1, "law", True), (2, "torsion", False)])
    code, out, err = run(capsys, "selftest")
    assert (code, out) == (1, "")
    assert err == "error: 1 acceptance checks failed: torsion\n"


def test_repeated_monomials_add_up(capsys, tmp_path):
    doc = bundled_scene("translations")
    doc["surface"]["c"] = [[[], "1/1"], [[], "1/1"]]
    assert parse_scene(doc).data.c == R.value(2)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "normalize", "--scene", str(scene), "--format", "json")
    assert code == 0
    assert json.loads(out)["torsion_m"] == 2


def test_huge_quadratic_d_is_a_scene_error(capsys, tmp_path):
    doc = bundled_scene("translations")
    doc["ring"].append({"name": "big", "d": 10**40 + 1})
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    code, _, err = run(capsys, "normalize", "--scene", str(scene))
    assert code == 2
    assert "'big'" in err
    doc["ring"][-1]["d"] = "3"
    scene.write_text(json.dumps(doc))
    code, _, err = run(capsys, "normalize", "--scene", str(scene))
    assert code == 2 and "'big'" in err
    # JSON true is not the integer 1
    for ring in (doc["ring"][:-1] + [{"name": "big", "d": True}], [{"name": "i", "d": True}]):
        doc["ring"] = ring
        scene.write_text(json.dumps(doc))
        code, out, err = run(capsys, "scene", "--scene", str(scene))
        assert (code, out) == (2, "")
        assert err == f"error: ring[{len(ring) - 1}]: quadratic symbol {ring[-1]['name']!r} " \
                      f"needs an integer d, got True\n"


def _gaussian_scene(tau_b, tau_e=None, ring=()):
    """A plain scene over Q(i) plus ring, with c = 1 and delta = 0."""
    i = [[[["i", 1]], "1/1"]]
    return {"ring": [{"name": "i", "d": 1}, *ring],
            "surface": {"tau_b": tau_b, "tau_e": tau_e or i, "c": [[[], "1/1"]], "delta": []}}


@pytest.mark.parametrize("doc, coordinate", [
    (_gaussian_scene([[[["i", 1]], "113/1"]]), "j(tau_B)"),
    (_gaussian_scene([[[["i", 1]], "120/1"]]), "j(tau_B)"),
    (_gaussian_scene([[[["i", 1]], "1/1"]], [[[["i", 1]], "1/1"], [[["t", 2]], "1/1"]],
                     [{"name": "t", "approx": 1e300}]), "q(tau_E)"),
], ids=["im-113", "im-120", "approx-overflow"])
def test_moduli_out_of_float_range_is_a_domain_error(capsys, tmp_path, doc, coordinate):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    for fmt in ("json", "table"):
        code, out, err = run(capsys, "moduli", "--scene", str(scene), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: {coordinate} is not a finite float on this surface\n"


@pytest.mark.parametrize("exponent", [1000000000, 20000, 65, -65])
def test_large_quadratic_exponents_are_scene_errors(tmp_path, exponent):
    doc = _gaussian_scene([[[["i", 1]], "1/1"]], ring=[{"name": "r3", "d": 3}])
    doc["surface"]["delta"] = [[[["r3", exponent]], "1/1"]]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # a subprocess with a timeout, so that a hang fails the test
    done = subprocess.run([sys.executable, "-m", "kodaira", "normalize", "--scene", str(scene)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"error: surface.delta: exponent {exponent} of quadratic symbol "
                           f"'r3' exceeds the limit {MAX_QUADRATIC_EXPONENT}\n")


def test_quadratic_exponents_up_to_the_limit_and_laurent_exponents_load():
    doc = _gaussian_scene([[[["i", 1]], "1/1"]],
                          ring=[{"name": "r3", "d": 3}, {"name": "t", "approx": 2.0}])
    for mono, want in (([["r3", MAX_QUADRATIC_EXPONENT]], 3 ** (MAX_QUADRATIC_EXPONENT // 2)),
                       ([["r3", 40], ["r3", -40]], 1)):
        doc["surface"]["delta"] = [[mono, "1/1"]]
        assert parse_scene(doc).data.delta.rational() == want
    doc["surface"]["delta"] = [[[["t", 10**9]], "1/1"], [[["t", -10**9]], "1/1"]]
    assert len(parse_scene(doc).data.delta.monomials()) == 2


def test_bad_symbol_approx_is_a_scene_error(capsys, tmp_path):
    doc = bundled_scene("infinite_translations")
    doc["ring"][1]["approx"] = "x"
    with pytest.raises(SceneError, match=r"ring\[1\].*'t'.*'x'"):
        parse_scene(doc)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    code, out, err = run(capsys, "moduli", "--scene", str(scene))
    assert code == 2 and out == ""
    assert "'t'" in err and "'x'" in err and "Traceback" not in err


def test_unknown_kernel_class_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "classify_kernel", lambda l, d: object())
    code, _, err = run(capsys, "kernel-class", "--scene", "bundled:bundle_action",
                       "--lift", "gauge")
    assert code == 1 and "unknown kernel class" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "kodaira", "scenes"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.splitlines() == bundled_scene_names()
    done = subprocess.run([sys.executable, "-m", "kodaira", "scene", "--scene",
                           str(tmp_path / "absent.json")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "error:" in done.stderr
