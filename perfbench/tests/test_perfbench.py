"""The benchmark's own tests: reduced-size runs pass, planted faults fail.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import ROOT, CheckFailed, ensure_program, measure

ensure_program()

from perfbench.checks import check_key_setup  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import QueryWorkload, SetupWorkload, SoakWorkload, deploy  # noqa: E402


def small(name: str, seed: int = 0):
    """A reduced-size instance of each workload."""
    if name == "setup":
        return SetupWorkload(seed, n=300)
    if name == "soak":
        return SoakWorkload(seed, n=120)
    workload = QueryWorkload(seed, n=60)
    workload.SETUPS = 1
    return workload


@pytest.mark.parametrize("name", ["setup", "soak", "query"])
def test_reduced_run_passes_its_checks(name):
    report = measure(small(name), seconds=0.2)
    assert report.rounds >= 1
    assert report.attempted >= 1 and report.failed == 0
    metrics = report.end_to_end()
    assert all(value > 0 for value, _unit in metrics.values())


@pytest.mark.parametrize("name", ["setup", "soak", "query"])
def test_traced_run_reports_every_layer(name):
    workload = small(name)
    workload.tracer = tracer = Tracer()
    report = measure(workload, seconds=0.2, tracer=tracer)
    assert report.rounds >= 2
    assert "tracing.overhead_pct" in report.per_layer
    layers = report.per_layer
    if name == "setup":
        assert layers["crypto.open_calls"][0] > 0
        assert layers["messages.decode_data_calls"][0] == 0
    elif name == "soak":
        assert layers["messages.decodes_per_data_rx"][0] > 0
        assert layers["faults.injected"][0] > 0
    else:
        assert layers["api.handle_calls"][0] == 1
        assert layers["crypto.open_calls"][0] == 0
    assert not tracer.installed


def test_behaviour_counters_repeat_for_a_seed():
    first = measure(small("soak", seed=3), seconds=0.2).counters
    second = measure(small("soak", seed=3), seconds=0.2).counters
    assert first == second and first["round1"]["frames_sent"] > 0


def test_setup_check_rejects_head_out_of_range():
    deployed = deploy(200, 5, {"topology": [], "key_setup": []})
    check_key_setup(deployed)
    agents = deployed.agents
    position = deployed.network.node
    member = min(agents)
    heads = {a.state.cid for a in agents.values()}
    far = max(
        heads,
        key=lambda h: float(((position(h).position - position(member).position) ** 2).sum()),
    )
    agents[member].state.cid = far
    with pytest.raises(CheckFailed, match="not its neighbour"):
        check_key_setup(deployed)


def test_soak_check_rejects_tampered_payload():
    workload = small("soak")
    workload.prepare()
    workload.run_round()
    source, payload = workload._accepted[0]
    workload._accepted[0] = (source, payload[:-1] + bytes([payload[-1] ^ 1]))
    with pytest.raises(CheckFailed, match="never offered"):
        workload.finish()


def test_soak_check_counts_a_lost_reading():
    workload = small("soak")
    workload.prepare()
    workload.run_round()
    workload._offered[(workload.sources[0], b"never sent")] = 0.0
    assert workload.finish() == 1


def test_query_check_rejects_store_disagreeing_with_model():
    workload = small("query")
    workload.prepare()
    try:
        workload.run_round()
        workload.store.ingest(workload._pool[-1])  # behind the model's back
        with pytest.raises(CheckFailed):
            workload.run_round()
    finally:
        workload.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_cli_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for metric in declared["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
