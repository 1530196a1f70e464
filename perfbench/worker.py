"""One workload in one fresh process: set up, run whole passes, check.

Started by ``run.py``; prints one JSON line.  The timed phase is a closed
loop with one client: each operation starts when the previous one has
returned.  Between passes, outside the timed phase, the worker checks the
pass's answers, generates the next pass's inputs and starts its share of the
set-up-only processes that sample ``setup_s``.  Spreading those over the
whole run, rather than taking them in one burst, keeps their median from
landing in one fast or slow stretch of a shared machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

MIN_OPS = 100          # so that the 90th percentile has ten samples beyond it
SETUP_PROBES = 12      # plus this process's own set-up


def make_workload(name, seed, scratch):
    import workloads
    if name == "cli_session":
        return workloads.CliSession(seed, scratch)
    if name == "lift_group":
        return workloads.LiftGroup(seed)
    return workloads.FormsCohomology(seed)


class SetupProbes:
    """Set-up-only processes, a few at a time between passes."""

    def __init__(self, args):
        self.args = args
        self.samples = []

    def take(self, share):
        """Probe until `share` (0..1) of the planned count is done."""
        while len(self.samples) < SETUP_PROBES * share:
            a = self.args
            argv = [sys.executable, os.path.abspath(__file__), "--workload", a.workload,
                    "--seed", str(a.seed), "--seconds", str(a.seconds),
                    "--scratch", os.path.join(a.scratch, "probe"),  # not this run's scenes
                    "--setup-only", "--started", repr(perf_counter())]
            out = subprocess.run(argv, stdout=subprocess.PIPE, check=True, timeout=60,
                                 text=True).stdout
            self.samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--started", type=float, required=True,
                   help="perf_counter of the parent when it launched this process")
    p.add_argument("--scratch", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    os.makedirs(args.scratch, exist_ok=True)
    t0 = perf_counter()
    import kodaira.cli  # noqa: F401  (the import a user of the command pays)
    import_s = perf_counter() - t0
    wl = make_workload(args.workload, args.seed, args.scratch)
    ops = wl.inputs(0)
    setup_s = perf_counter() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = probes = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    else:
        probes = SetupProbes(args)

    latencies, timed, attempted, failed, wrong = [], 0.0, 0, 0, None
    pass_no = 0
    while timed < args.seconds or attempted < MIN_OPS:
        answers, ran = [], []
        if tracer:
            tracer.on = True
        start = perf_counter()
        for op in ops:
            t = perf_counter()
            try:
                ans = wl.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"{args.workload}: operation failed: {exc!r}", file=sys.stderr)
                failed += 1
            else:
                latencies.append(perf_counter() - t)
                answers.append(ans)
                ran.append(op)
        timed += perf_counter() - start
        if tracer:
            tracer.on = False
        attempted += len(ops)
        known, why = wl.check(ran, answers)
        failed += known
        wrong = wrong or why
        pass_no += 1
        ops = wl.inputs(pass_no)
        if probes:
            probes.take(min(1.0, timed / args.seconds))

    if tracer:
        metrics = tracer.metrics(attempted, import_s)
    else:
        probes.take(1.0)
        metrics = {
            "throughput_ops_s": len(latencies) / timed,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "setup_s": statistics.median(probes.samples + [setup_s]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if wrong:
        print(f"{args.workload}: wrong answer: {wrong}", file=sys.stderr)
    print(json.dumps({"correct": wrong is None, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
