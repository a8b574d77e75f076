"""Smoke test of the benchmark: every workload at minimal length, both modes.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import warmup  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in spans.LAYER_METRICS]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


class _FakeRunner:
    """Stands in for `workloads.Runner`: instance seed 1 gives a different
    query count on every run after its first."""

    def __init__(self):
        self.runs = {}

    def run(self, inst):
        n = self.runs[inst.seed] = self.runs.get(inst.seed, 0) + 1
        queries = 10 + (n if inst.seed == 1 else 0)
        return workloads.Outcome(inst, ok=inst.seed != 2, queries=queries)


def test_loop_completes_a_pass_counts_each_instance_once_and_checks_repeats():
    pool = [(workloads.Instance((2, 2), s),) for s in range(3)]
    order = [0, 1, 2, 2, 1, 0, 0, 0]
    once = run.run_loop(_FakeRunner(), pool, iter(order), 0.0)
    assert once.order == order[:3] and once.problems == []
    every = run.run_loop(_FakeRunner(), pool, iter(order), float("inf"))
    assert every.order == order
    assert [o.instance.seed for o in every.outcomes] == [0, 1, 2]
    assert sum(not o.ok for o in every.outcomes) == 1
    assert len(every.problems) == 1 and "--seed 1 " in every.problems[0]
    assert {i: len(t) for i, t in every.raw.items()} == {0: 4, 1: 2, 2: 2}


def test_tracer_replaces_every_reference_and_restores_them():
    warmup.import_package()
    import netpeel.cli
    import netpeel.extract2
    import netpeel.extract3
    from netpeel.oracle.query import QueryOracle

    originals = (netpeel.extract2.extract_two_layer, QueryOracle.query,
                 netpeel.oracle.generate.linprog)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = netpeel.extract2.extract_two_layer
        assert wrapped is not originals[0]
        assert netpeel.cli.extract_two_layer is wrapped
        assert netpeel.extract3.extract_two_layer is wrapped
        assert QueryOracle.query is not originals[1]
        assert netpeel.oracle.generate.linprog is not netpeel.verify.linprog
    finally:
        tracer.uninstall()
    assert (netpeel.extract2.extract_two_layer, QueryOracle.query,
            netpeel.oracle.generate.linprog) == originals
    assert netpeel.cli.extract_two_layer is originals[0]


def test_run_refuses_a_checkout_without_the_package():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        copy = Path(bare) / "perfbench"
        copy.mkdir()
        for f in [*BENCH.glob("*.py"), BENCH / "orthant_hits.json"]:
            (copy / f.name).write_text(f.read_text())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "d2-wide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
