"""The benchmark of ``kodaira``: one workload per call, run from the repo root.

    python3 perfbench/run.py --workload lift_group --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a separate traced run.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program comes from ``src/`` of the current directory; without it the
benchmark exits with code 2.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cli_session", "lift_group", "forms_cohomology")
DEADLINE_S = 170

UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env():
    """The worker and its children import ``src/`` with bytecode cached
    under out/, as an installed package would have it, whatever the
    caller's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    return env


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "kodaira", "__init__.py")):
        print("run.py: no src/kodaira here; run it from the root of a kodaira checkout",
              file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd + ["--started", repr(perf_counter())], env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        import layers
        units = dict(layers.metric_names())
    else:
        units = UNITS
    metrics = result["metrics"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
