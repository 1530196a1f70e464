"""Acceptance suite: one test per numbered library guarantee.

Each test delegates to the corresponding check in kodaira.selftest (the same
code behind `kodaira selftest`) and prints its one-line verdict, so a plain
`pytest tests/test_acceptance.py -s` shows the thirteen pass/fail lines.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from kodaira import selftest

VERDICTS = []


@pytest.mark.parametrize(
    "num, name, check",
    selftest.CHECKS,
    ids=[f"{num:02d}-{name.replace('_', '-')}" for num, name, _ in selftest.CHECKS],
)
def test_criterion(num, name, check):
    try:
        ok, detail = check()
    except AssertionError as exc:
        line = f"criterion {num:02d} FAIL  {name}  ({exc})"
        VERDICTS.append(line)
        print(line)
        raise
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {name}  ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_every_criterion_is_covered():
    assert [num for num, _, _ in selftest.CHECKS] == list(range(1, 14))


def test_the_acceptance_module_does_not_load_the_cli():
    src = str(pathlib.Path(selftest.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, kodaira.selftest\nprint('kodaira.cli' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
