"""Benchmark of the moddata toolkit.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: the next request is sent
only when the previous one has finished and been checked against its
golden.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs half its time untraced and half traced, and
reports the per-layer metrics.  Human-readable lines come first, then an
``env:`` stamp, and the last line of standard output is the result as
one JSON object.  Without ``--workload`` every workload runs, each in
its own process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import workloads
from workloads import WORKLOADS

OUT_DIR = os.path.join(workloads.ROOT, ".perfbench")
# A run goes on, a whole pass at a time, until it has this many requests,
# so that p90 has at least ten samples beyond it.
MIN_REQUESTS = 100
# Set-up is measured at least this many times per run, and until the
# fresh-process set-ups have taken SETUP_MIN_S (once in the run itself,
# the rest in fresh processes); the median is reported.
SETUP_RUNS = 5
SETUP_MIN_S = 1.5
SETUP_TIMEOUT_S = 120
# The host's speed changes by up to 2x, in phases that last from seconds
# to minutes and can outlast a run.  So every timed span is paired with a
# host-speed probe (see ``host_probe``) taken right before it, and is
# reported scaled by PROBE_REF_S / probe: the time it would take on a host
# where the probe takes PROBE_REF_S.  The raw times are printed beside.
PROBE_REF_S = 0.00125

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
LAYER_UNITS = {
    "cyclo.mul_max_conductor": "conductor",
    "extension.factor_check_witness_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_self_s"):
        return "s"
    if name.endswith("_per_op"):
        return "ratio"
    return "count"


def environment() -> dict:
    from moddata import cyclo

    return {
        "python": ".".join(str(x) for x in sys.version_info[:3]),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": type(cyclo.rational(1)).__name__,
    }


def host_probe() -> float:
    """Seconds a fixed loop of stdlib ``Fraction`` arithmetic takes now.
    It uses no moddata code, so a change to the program cannot move it."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return time.perf_counter() - start


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


@dataclass
class Phase:
    """The requests of one measured phase."""

    samples: list  # (latency s, host probe s) per request
    failed: int
    passes: int
    window_s: float
    stdout_bytes: int

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def scaled(self) -> list:
        """Latency of each request at the reference host speed, sorted."""
        return sorted(latency * PROBE_REF_S / probe for latency, probe in self.samples)

    @property
    def ops_per_s(self) -> float:
        """Verified requests per second of busy time at the reference
        host speed."""
        return (self.attempted - self.failed) / sum(self.scaled())

    @property
    def window_ops_per_s(self) -> float:
        """Verified requests per second of the whole timed window."""
        return (self.attempted - self.failed) / self.window_s


class Runner:
    """Runs the requests of one workload in a scratch directory."""

    def __init__(self, workload, work: str, goldens: dict):
        self.workload = workload
        self.work = work
        self.goldens = goldens
        self.inputs = {}
        self.bad_inputs = []
        self.reported = 0

    def setup(self, rng) -> None:
        """Write and check the inputs; warm workloads then make one
        untimed pass so that caches are filled before timing."""
        self.inputs = workloads.write_inputs(self.workload, self.work)
        self.bad_inputs = [
            name
            for name, data in self.inputs.items()
            if workloads.sha256(data) != self.goldens["inputs"].get(name)
        ]
        for name in self.bad_inputs:
            print(f"input {name} differs from its golden", file=sys.stderr)
        if not self.workload.cold:
            self.measure(rng, 0.0, 1)

    def _report(self, request, message: str) -> None:
        if self.reported < 5:
            print(f"FAILED {request.key}: {message}", file=sys.stderr)
        self.reported += 1

    def execute(self, request, tracer):
        """Run and check one request; returns (latency s, passed, stdout
        bytes)."""
        trace_file = None
        if tracer is not None and self.workload.cold:
            trace_file = os.path.join(self.work, "trace.json")
        start = time.perf_counter()
        try:
            if tracer is None:
                code, stdout = self._run(request, None)
                latency = time.perf_counter() - start
            else:
                with tracer.request(request.key) as request_id:
                    code, stdout = self._run(request, trace_file)
                latency = time.perf_counter() - start
                if trace_file is not None:
                    with open(trace_file, encoding="utf-8") as handle:
                        tracer.merge(json.load(handle), request_id)
                    os.remove(trace_file)
        except Exception:  # a failed request is counted, the run goes on
            self._report(request, traceback.format_exc())
            workloads.take_output(request, self.work)
            return time.perf_counter() - start, False, 0
        written = workloads.take_output(request, self.work)
        got = workloads.outcome(code, stdout, written)
        passed = got == self.goldens["requests"].get(request.key)
        if request.argv[0] == "read":
            passed = passed and stdout == self.inputs[request.inputs[0]]
        if not passed:
            self._report(request, f"got {got}")
        return latency, passed, len(stdout)

    def _run(self, request, trace_file):
        if self.workload.cold:
            return workloads.run_cold(request, self.work, trace_file)
        return workloads.run_warm(request, self.work)

    def measure(self, rng, seconds: float, min_requests: int, tracer=None) -> Phase:
        """Whole passes until both ``seconds`` and ``min_requests`` are
        reached."""
        phase = Phase([], 0, 0, 0.0, 0)
        start = time.perf_counter()
        while True:
            for request in self.workload.make_pass(rng):
                probe = host_probe()
                latency, passed, nbytes = self.execute(request, tracer)
                phase.samples.append((latency, probe))
                phase.failed += not passed
                phase.stdout_bytes += nbytes
            phase.passes += 1
            phase.window_s = time.perf_counter() - start
            if phase.window_s >= seconds and phase.attempted >= min_requests:
                return phase


def fresh_setup(args):
    """(scaled, raw) set-up time of a fresh process running the same
    workload and seed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return tuple(json.loads(proc.stdout.decode().splitlines()[-1]))


def end_to_end(phase: Phase, setups, peak_kib) -> dict:
    scaled = phase.scaled()
    raw = sorted(latency for latency, _ in phase.samples)
    probes = [probe for _, probe in phase.samples]
    n = phase.attempted
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": 1000 * percentile(scaled, 0.5),
        "op_p90_ms": 1000 * percentile(scaled, 0.9),
        "peak_rss_mib": peak_kib / 1024,
    }
    print(f"host probe    {1000 * min(probes):.3f} to {1000 * max(probes):.3f} ms, "
          f"median {1000 * statistics.median(probes):.3f} ms; times below are scaled "
          f"to {1000 * PROBE_REF_S:g} ms")
    print(f"setup_s       {values['setup_s']:.4f} s    (median of {len(setups)} "
          f"set-ups; raw {min(r for _, r in setups):.4f} to {max(r for _, r in setups):.4f} s)")
    print(f"ops_per_s     {values['ops_per_s']:.3f} 1/s  ({n - phase.failed} verified; raw "
          f"{phase.window_ops_per_s:.3f} 1/s over the {phase.window_s:.2f} s window, "
          f"{phase.passes} passes)")
    for q, name in ((0.5, "op_p50_ms"), (0.9, "op_p90_ms")):
        print(f"{name}     {values[name]:.3f} ms   (n={n}; raw {1000 * percentile(raw, q):.3f} ms)")
    print(f"peak_rss_mib  {values['peak_rss_mib']:.2f} MiB")
    print(f"error_rate    {phase.failed / n:.4f}      (failed {phase.failed} / attempted {n})")
    return values


def run_workload(args) -> int:
    probes = [host_probe() for _ in range(3)]
    start = time.perf_counter()
    try:
        workloads.import_moddata()
        with open(workloads.GOLDENS, encoding="utf-8") as handle:
            goldens = json.load(handle)
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        runner = Runner(workload, work, goldens)
        runner.setup(rng)
        setup_raw = time.perf_counter() - start
        probes += [host_probe() for _ in range(3)]
        setup = (setup_raw * PROBE_REF_S / statistics.median(probes), setup_raw)
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        if args.trace:
            base = runner.measure(rng, args.seconds / 2, 1)
            tracer = Tracer()
            if not workload.cold:
                tracer.install()
            try:
                traced = runner.measure(rng, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            phases = (base, traced)
            values = tracer.layer_metrics(
                traced.passes, traced.attempted, traced.stdout_bytes,
                base.ops_per_s / traced.ops_per_s,
            )
            spans = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
            tracer.write_spans(spans)
            print(f"untraced {base.ops_per_s:.3f} 1/s, traced {traced.ops_per_s:.3f} 1/s "
                  f"over {traced.passes} passes; {len(tracer.spans)} spans in {spans}")
            units = {name: layer_unit(name) for name in values}
            for name, value in values.items():
                print(f"{name:40s} {value:.6g} {units[name]}")
        else:
            phase = runner.measure(rng, args.seconds, MIN_REQUESTS)
            usage = resource.RUSAGE_CHILDREN if workload.cold else resource.RUSAGE_SELF
            peak_kib = resource.getrusage(usage).ru_maxrss
            setups = [setup]
            started = time.perf_counter()
            while len(setups) < SETUP_RUNS or time.perf_counter() - started < SETUP_MIN_S:
                setups.append(fresh_setup(args))
            phases = (phase,)
            values = end_to_end(phase, setups, peak_kib)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print("env: " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0 and not runner.bad_inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; the last line maps each
    workload to its result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
        )
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
