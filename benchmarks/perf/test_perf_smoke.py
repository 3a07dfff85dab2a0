"""Smoke test of the layered serving benchmark (tiny horizons, < 30 s).

Keeps the instrument honest between the timed sets: every workload still
emits every end-to-end metric, ``BENCHMARK.json`` stays inside the
contract's limits, the decision digest is a function of the seed, and a
probe whose target vanished is skipped — and the run marked not correct —
instead of raising.
Writes only under ``tmp_path``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import perfbench
import pytest
import run as perf_run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: ``Workload.sized`` floors this at warm + 5 slots.
TINY = 0.01


def tiny_run(name: str, seed: int) -> dict:
    return perfbench.run_end_to_end(
        perfbench.WORKLOADS[name], seed, scale=TINY, setup_reps=1
    )


@pytest.fixture(scope="module")
def greedy_run() -> dict:
    return tiny_run("large_greedy", 0)


@pytest.mark.parametrize("name", list(perfbench.WORKLOADS))
def test_workload_emits_every_end_to_end_metric(name, greedy_run):
    run = greedy_run if name == "large_greedy" else tiny_run(name, 0)
    assert run["correct"], run["checks"]
    assert run["failed"] == 0 and run["attempted"] > 0
    assert run["latency_samples"] > 0 and run["bulk_offers"] > 0
    assert [(n, m["unit"]) for n, m in run["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]
    assert all(m["value"] >= 0.0 for m in run["metrics"].values())


def test_benchmark_json_stays_inside_the_contract():
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["end_to_end"]) <= 16
    assert len(BENCHMARK["per_layer"]) <= 128
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(perfbench.WORKLOADS)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0.0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(
        set(part.split("/")) <= {"benchmarks", "perf", "python3", "run.py"}
        for part in BENCHMARK["command"]
    )


def run_main(tmp_path, capsys, workload: str, trace: int) -> tuple[dict, dict]:
    """One run through the command line: its last stdout line and its file."""
    code = perf_run.main(
        [
            "--workload", workload, "--seed", "0", "--seconds", "0.1",
            "--trace", str(trace), "--results-dir", str(tmp_path),
        ]
    )
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    saved = json.loads(perf_run.run_file(tmp_path, workload, 0, trace).read_text())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
    return last, saved


def test_driver_protocol_end_to_end(tmp_path, capsys):
    last, saved = run_main(tmp_path, capsys, "large_greedy", 0)
    assert set(last["metrics"]) == set(perfbench.END_TO_END)
    assert last["metrics"] == saved["metrics"]


def test_driver_protocol_traced(tmp_path, capsys):
    # small_planned: a 30-node session snapshots in milliseconds.
    last, saved = run_main(tmp_path, capsys, "small_planned", 1)
    assert set(last["metrics"]) == set(perfbench.PER_LAYER)
    assert set(saved["metrics"]) <= set(perfbench.PER_LAYER)
    assert not saved["skipped"]
    assert len(set(saved["digests"].values())) == 1
    assert saved["spans"]["serve"]


def test_digest_is_a_function_of_the_seed(greedy_run):
    assert tiny_run("large_greedy", 0)["digest"] == greedy_run["digest"]
    assert tiny_run("large_greedy", 1)["digest"] != greedy_run["digest"]


def test_probe_of_a_missing_function_is_skipped_not_raised():
    targets = dict(
        perfbench.PROBE_TARGETS,
        make_topology="repro.substrate.topologies:no_such_function",
    )
    run = perfbench.run_traced(
        perfbench.WORKLOADS["small_planned"], 0, TINY, targets
    )
    assert "no_such_function" in run["skipped"]["substrate.build_s"]
    assert "substrate.build_s" not in run["metrics"]
    assert "serve.offer_many_s" in run["metrics"]
    # 0 on the driver's line would read as a perfect set-up time
    assert run["checks"]["no_probe_skipped"] is False and not run["correct"]
