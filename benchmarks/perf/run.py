"""Command line of the layered serving benchmark (see README.md).

Two ways to call it::

    # one run, the driver's protocol: last stdout line is the result
    python benchmarks/perf/run.py --workload large_greedy --seed 0 \\
        --seconds 12 --trace 0

    # a set: --check at 1/10 horizon, then N fresh-process runs per
    # workload on seeds S, S+1, ... (and one traced run on seed S with
    # --traced); prints every metric by name with its unit and writes
    # results/<label>.json
    python benchmarks/perf/run.py [--workload W] [--seed S] [--runs N] \\
        [--traced] [--check] [--scenario-seed C] [--label NAME]

``--seed`` orders the offers within each slot; ``--scenario-seed`` moves
every workload to another scenario (1 is the held-out one).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import perfbench
from compare import quartiles

HERE = Path(__file__).resolve().parent
DEFAULT_RESULTS = HERE / "results"
#: The driver's hard limit on one run.
RUN_TIMEOUT_S = 180


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(perfbench.WORKLOADS),
                        help="one workload (default: all)")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="offer order within each slot; run i of a set uses seed S+i",
    )
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="scenario of every workload (default: its own)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time the run is sized for (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="one run in this process: 0 end-to-end, 1 per-layer",
    )
    parser.add_argument("--runs", type=int, default=3, help="runs per set")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--check", action="store_true",
                        help="only the correctness gate")
    parser.add_argument("--label", default=None, help="name of the set file")
    parser.add_argument("--results-dir", type=Path, default=DEFAULT_RESULTS)
    return parser.parse_args(argv)


def workload_of(args: argparse.Namespace, name: str) -> "perfbench.Workload":
    """The named workload, on ``--scenario-seed`` when one was given."""
    workload = perfbench.WORKLOADS[name]
    if args.scenario_seed is not None:
        workload = dataclasses.replace(workload, scenario_seed=args.scenario_seed)
    return workload


# -- one run in this process --------------------------------------------------


def single_run(args: argparse.Namespace) -> int:
    if args.workload is None:
        print("--trace needs --workload", file=sys.stderr)
        return 2
    workload = workload_of(args, args.workload)
    seconds = perfbench.RUN_SECONDS if args.seconds is None else args.seconds
    scale = seconds / perfbench.RUN_SECONDS
    if args.trace:
        run = perfbench.run_traced(workload, args.seed, scale)
        # The driver wants every per-layer metric on the line. One that
        # does not exist on this workload (``shard.*`` unsharded) reads 0
        # here on every commit alike; one a broken probe skipped reads 0
        # too, and ``run_traced`` has marked that run not correct.
        metrics = {
            name: run["metrics"].get(name, {"value": 0.0, "unit": unit})
            for name, unit in perfbench.PER_LAYER.items()
        }
    else:
        run = perfbench.run_end_to_end(workload, args.seed, scale)
        metrics = run["metrics"]
    args.results_dir.mkdir(parents=True, exist_ok=True)
    run_file(args.results_dir, args.workload, args.seed, args.trace).write_text(
        json.dumps(run, indent=1)
    )
    for name, metric in run["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name, reason in run.get("skipped", {}).items():
        print(f"{name:32s} skipped: {reason}")
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics,
    }))
    return 0


def run_file(results_dir: Path, workload: str, seed: int, trace: int) -> Path:
    return results_dir / f"run_{workload}_seed{seed}_trace{trace}.json"


# -- a set of fresh-process runs ----------------------------------------------


def child_run(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict:
    """One run in a fresh interpreter; returns its results file."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
        "--results-dir", str(args.results_dir),
    ]
    if args.scenario_seed is not None:
        command += ["--scenario-seed", str(args.scenario_seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited "
            f"{done.returncode}:\n{done.stderr[-2000:]}"
        )
    run = json.loads(run_file(args.results_dir, workload, seed, trace).read_text())
    run.pop("spans", None)
    return run


def print_end_to_end(workload: str, runs: list[dict]) -> None:
    print(f"\n{workload}: {len(runs)} runs, seeds "
          f"{[r['seed'] for r in runs]}, {runs[0]['slots']} slots "
          f"(warm {runs[0]['warm']})")
    print(f"  {'metric':16s} {'unit':9s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/median':>10s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        print(f"  {name:16s} {runs[0]['metrics'][name]['unit']:9s} "
              f"{median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / median:10.4f}")
    print(f"  offers_attempted {[r['attempted'] for r in runs]}  "
          f"offers_failed {[r['failed'] for r in runs]}  "
          f"latency_samples {[r['latency_samples'] for r in runs]}  "
          f"correct {[r['correct'] for r in runs]}")


def print_layers(workload: str, run: dict) -> None:
    print(f"\n{workload}: traced run, seed {run['seed']}")
    for name, metric in run["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name, reason in run["skipped"].items():
        print(f"  {name:32s} skipped: {reason}")
    if run["not_applicable"]:
        print(f"  not applicable here: {', '.join(run['not_applicable'])}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "not a git checkout",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "REPRO_BATCH_BACKEND": os.environ.get("REPRO_BATCH_BACKEND", "auto"),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_check(args: argparse.Namespace, workloads: list[str]) -> list[dict]:
    rows = []
    for name in workloads:
        rows.extend(perfbench.check_workload(workload_of(args, name), args.seed))
    print("\n--check (1/10 horizon)")
    for row in rows:
        detail = f"  [{row['detail']}]" if row["detail"] else ""
        print(f"  {'ok  ' if row['ok'] else 'FAIL'} {row['workload']:14s} "
              f"{row['check']}{detail}")
    return rows


def run_set(args: argparse.Namespace, workloads: list[str]) -> int:
    rows = run_check(args, workloads)
    if not all(row["ok"] for row in rows):
        print("\n--check failed; nothing was timed", file=sys.stderr)
        return 1
    if args.check:
        return 0
    out = {
        "environment": environment(), "check": rows,
        "runs": {workload: [] for workload in workloads}, "traced": {},
    }
    # Round by round, not workload by workload: the box runs a fifth
    # slower for minutes at a time, and a spell should cost every
    # workload a run or two, which a median shrugs off, not one workload
    # all ten.
    for i in range(args.runs):
        for workload in workloads:
            out["runs"][workload].append(
                child_run(args, workload, args.seed + i, 0)
            )
    for workload in workloads:
        print_end_to_end(workload, out["runs"][workload])
        if args.traced:
            out["traced"][workload] = child_run(args, workload, args.seed, 1)
            print_layers(workload, out["traced"][workload])
    label = args.label or time.strftime("set_%Y%m%d_%H%M%S")
    path = args.results_dir / f"{label}.json"
    path.write_text(json.dumps(out, indent=1))
    print(f"\nwrote {path}")
    failed = [
        (w, r["seed"]) for w, runs in out["runs"].items() for r in runs
        if not r["correct"]
    ] + [(w, "traced") for w, r in out["traced"].items() if not r["correct"]]
    if failed:
        print(f"incorrect runs: {failed}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.trace is not None:
        return single_run(args)
    workloads = [args.workload] if args.workload else list(perfbench.WORKLOADS)
    args.results_dir.mkdir(parents=True, exist_ok=True)
    return run_set(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
