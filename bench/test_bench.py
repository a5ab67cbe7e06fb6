"""Tests of the benchmark itself, on the smoke mode's tiny inputs.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from inputs import describe_graph, make_graph  # noqa: E402
from oracle import GraphOracle, close  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DESCRIPTOR = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--smoke",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = DESCRIPTOR["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_descriptor_names_the_workloads():
    assert [w["name"] for w in DESCRIPTOR["workloads"]] == list(WORKLOADS)


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "kcore-powerlaw", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_seeded_and_simple(workload):
    kind, params = WORKLOADS[workload]["smoke_graph"]
    a, b = make_graph(kind, params, 7), make_graph(kind, params, 7)
    assert (a == b).all()
    assert (a[:, 0] < a[:, 1]).all()            # no self-loops, canonical
    assert len({tuple(e) for e in a.tolist()}) == len(a)


def test_triangle_oracle_matches_networkx():
    kind, params = WORKLOADS["share-spectral-powerlaw"]["smoke_graph"]
    oracle = GraphOracle(make_graph(kind, params, 3))
    for k in [0] + oracle.shells:
        ours, theirs = oracle.features()[k], oracle.nx_features(k)
        assert ours[0] == theirs[0]
        assert all(close(a, b) for a, b in zip(ours[1:], theirs[1:]))


def test_accepted_make_up():
    kind, params = WORKLOADS["share-line1-er"]["graph"]
    made = describe_graph(make_graph(kind, params, 2))
    lo, hi = params["accept"]["core"]
    assert made["shells"] == params["accept"]["shells"]
    assert lo <= made["core_size"] <= hi
