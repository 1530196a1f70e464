"""Byte-for-byte CLI transcript over every bundled scene and lift.

Every ``kodaira`` command runs on every bundled scene (and every lift of it)
in both output formats; stdout and the exit code must match the recorded
transcript exactly.  Regenerate the transcript only for an intended output
change:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from kodaira import cli

GOLDEN = Path(__file__).with_name("golden") / "cli_transcript.json"
FORMATS = ("table", "json")
SCENE_COMMANDS = ("normalize", "moduli", "order-n", "nk", "verify-forms", "scene")
LIFT_COMMANDS = ("check-lift", "semidirect", "kernel-class", "cohomology", "fixed-locus")
ISO_PAIRS = (("translations", "iso_translate"), ("translations", "iso_half_shift"),
             ("order6", "order6"))
# fixed fundamental-group elements, cycled over the scenes
ELEMENTS = ("1,-2,3,-1", "-3,2,0,4", "0,1,-4,2", "2,2,-1,-3", "-1,0,1,0")


def commands():
    """The argv lists of the transcript, in a fixed order."""
    out = []

    def add(cmd, scene, *extra):
        for fmt in FORMATS:
            out.append([cmd, "--scene", f"bundled:{scene}", "--format", fmt, *extra])

    for k, name in enumerate(cli.bundled_scene_names()):
        for cmd in SCENE_COMMANDS:
            add(cmd, name)
        e1, e2 = ELEMENTS[k % len(ELEMENTS)], ELEMENTS[(k + 2) % len(ELEMENTS)]
        add("pi1", name, "--", "star", e1, e2)
        add("pi1", name, "--", "inverse", e1)
        add("pi1", name, "abelianization")
        lifts = sorted(cli.bundled_scene(name).get("lifts", {}))
        for j, lift in enumerate(lifts):
            for cmd in LIFT_COMMANDS:
                add(cmd, name, "--lift", lift)
            add("power", name, "--lift", lift, "-n", "4")
            add("compose", name, "--lift", lift, "--lift", lifts[(j + 1) % len(lifts)])
    for a, b in ISO_PAIRS:
        add("iso", a, "--other", f"bundled:{b}")
    out.append(["scenes"])
    return out


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": buf.getvalue()}


def transcript():
    return [run(argv) for argv in commands()]


def dump(entries):
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def test_cli_transcript_is_unchanged():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = transcript()
    assert [e["argv"] for e in got] == [e["argv"] for e in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(w["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = transcript()
    GOLDEN.write_text(dump(entries), encoding="utf-8")
    print(f"wrote {len(entries)} commands to {GOLDEN}")
