"""Tests of the benchmark itself (they take a few minutes):

    python3 -m pytest perfbench
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

import compare
import run
import workloads
from tracer import Tracer
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def goldens():
    workloads.import_moddata()
    return load_json(workloads.GOLDENS)


@pytest.fixture(scope="module")
def bench_json():
    return load_json(os.path.join(workloads.ROOT, "BENCHMARK.json"))


@pytest.fixture
def work():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR)
    yield path
    shutil.rmtree(path)


def test_goldens_cover_every_catalogue_entry(goldens):
    requests = [r for w in WORKLOADS.values() for r in w.requests()]
    assert {r.key for r in requests} == set(goldens["requests"])
    # one key per distinct request (wire lists its reads twice)
    assert len({r.key for r in requests}) == len(set(requests))
    inputs = {name for w in WORKLOADS.values() for name in w.inputs()}
    assert inputs == set(goldens["inputs"])
    for request in WORKLOADS["wire"].requests():
        if request.argv[0] == "read":
            # the round trip reproduces its input byte for byte
            assert goldens["requests"][request.key]["stdout"] == goldens["inputs"][request.inputs[0]]


def test_failed_projective_check_is_a_verdict(goldens):
    for level in (2, 6):
        assert goldens["requests"][f"congruence congruence semion {level}"]["exit"] == 1


def outcomes(workload, requests, work, tracer=None):
    """Golden-comparable outcome of each request, traced or not."""
    got = {}
    for request in requests:
        trace_file = None
        if workload.cold:
            if tracer is not None:
                trace_file = os.path.join(work, "trace.json")
            code, stdout = workloads.run_cold(request, work, trace_file)
            if trace_file is not None:
                tracer.merge(load_json(trace_file), 0)
        else:
            code, stdout = workloads.run_warm(request, work)
        written = workloads.take_output(request, work)
        got[request.key] = workloads.outcome(code, stdout, written)
    return got


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outcomes_are_identical(name, goldens, work):
    workload = WORKLOADS[name]
    workloads.write_inputs(workload, work)
    requests = workload.make_pass(random.Random(11))
    plain = outcomes(workload, requests, work)
    tracer = Tracer()
    if not workload.cold:
        tracer.install()
    try:
        traced = outcomes(workload, requests, work, tracer)
    finally:
        tracer.uninstall()
    assert tracer.calls["cyclo.mul"][0] > 0
    assert traced == plain
    assert plain == {r.key: goldens["requests"][r.key] for r in requests}


def test_uninstall_restores_every_function(goldens):
    from moddata import cli, cyclo, datum, fusion

    before = (cli.main, datum.basic_stats, fusion.basic_stats, cyclo.CycloNum.__mul__)
    tracer = Tracer()
    tracer.install()
    assert fusion.basic_stats is datum.basic_stats is not before[1]
    tracer.uninstall()
    assert (cli.main, datum.basic_stats, fusion.basic_stats, cyclo.CycloNum.__mul__) == before


@pytest.fixture(scope="module")
def results():
    """Last-line results of short runs on seeds other than those used
    while tuning, keyed by (workload, trace)."""
    out = {}
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, run.__file__, "--workload", name, "--seed", str(2 + trace),
                 "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, check=True, timeout=170,
            )
            lines = proc.stdout.decode().splitlines()
            assert lines[-2].startswith("env: ")
            out[name, trace] = json.loads(lines[-1])
    return out


def test_other_seeds_run_without_errors(results):
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in WORKLOADS:
        assert results[name, 0]["attempted"] >= run.MIN_REQUESTS


def test_printed_metrics_match_benchmark_json(results, bench_json):
    for (name, trace), result in results.items():
        listed = bench_json["per_layer" if trace else "end_to_end"]
        assert {m["name"]: m["unit"] for m in listed} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }
    for metric in bench_json["end_to_end"]:
        assert all(results[name, 0]["metrics"][metric["name"]]["value"] > 0 for name in WORKLOADS)


def test_metric_and_workload_names(bench_json):
    names = [m["name"] for m in bench_json["end_to_end"] + bench_json["per_layer"]]
    names += [w["name"] for w in bench_json["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench_json["workloads"]] == list(WORKLOADS)


def test_compare_refuses_different_backends(tmp_path):
    line = '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n'
    for backend in ("Fraction", "mpq"):
        (tmp_path / backend).write_text(
            "perfbench wire seed=1 seconds=1 trace=0\n"
            f'env: {{"python": "3.11.7", "nproc": 2, "backend": "{backend}"}}\n' + line
        )
    assert compare.main([str(tmp_path / "Fraction"), str(tmp_path / "mpq")]) == 2
    assert compare.main([str(tmp_path / "Fraction"), str(tmp_path / "Fraction")]) == 0
