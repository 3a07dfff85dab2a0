"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two same-code sets), B
the candidate; both are set files written by ``run.py``. One row per
(end-to-end metric, workload) prints both medians with their quartiles,
the bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

``worse``
    B's median is worse than A's by more than the bound — for
    ``rejection_rate``, by more than the bound or by more than 0.005 in
    absolute terms, whichever is less (``ABSOLUTE_BOUND``).
``unresolved``
    not ``worse``, but either set's interquartile spread is wider than
    the bound and the runs overlap — the sets cannot tell "unchanged"
    from "changed by the bound". Not reported when every run of B reads
    better than every run of A.
``better``
    B wins at least nine tenths of the run-by-run pairs (run *i* of A
    against run *i* of B, ties counting for neither) and the medians
    differ by more than A's own interquartile spread.
``same``
    none of the above: no worse than the bound, spread tight enough to
    say so.

The last line counts, per workload, the seeds both sets ran whose
decision digests are equal: a change that only makes the system faster
decides every offer as before. The count is information, not a verdict:
a change may decide differently as long as it does not reject more.

Exits 1 when any row is ``worse`` (2 on unusable input). Two sets of one
commit agree when no row is ``worse`` or ``unresolved`` and every digest
is equal.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

#: Bounds in the metric's own unit, on top of BENCHMARK.json's relative
#: ones (its schema has no absolute bound). ``rejection_rate`` is exact
#: for a given seed, so between two sets on the same seeds a difference
#: is never noise; its relative bound has to be wide enough for the
#: driver's sets, which run on other seeds, and is 0.0175 on the 0.35 of
#: ``large_greedy``. +0.005 is what a speed-up may cost in rejections.
ABSOLUTE_BOUND = {"rejection_rate": 0.005}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    base: list[float], candidate: list[float], bound: float, better: str,
    absolute_bound: float = float("inf"),
) -> str:
    """Classify one (metric, workload) pair of value lists."""
    sign = 1.0 if better == "higher" else -1.0  # gain = sign * (b - a)
    a_q1, a_med, a_q3 = quartiles(base)
    b_q1, b_med, b_q3 = quartiles(candidate)
    allowed = min(bound * abs(a_med), absolute_bound)
    gain = sign * (b_med - a_med)
    if gain < -allowed:
        return "worse"
    if better == "higher":
        all_better = min(candidate) > max(base)
    else:
        all_better = max(candidate) < min(base)
    if max(a_q3 - a_q1, b_q3 - b_q1) > allowed and not all_better:
        return "unresolved"
    pairs = list(zip(base, candidate))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if gain > a_q3 - a_q1 and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def compare(base: dict, candidate: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per (metric, workload) present in both sets."""
    rows = []
    for workload, base_runs in base["runs"].items():
        candidate_runs = candidate["runs"].get(workload)
        if not candidate_runs:
            continue
        for metric in end_to_end:
            name = metric["name"]
            a = metric_values(base_runs, name)
            b = metric_values(candidate_runs, name)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "verdict": verdict(
                        a, b, metric["bound"], metric["better"],
                        ABSOLUTE_BOUND.get(name, float("inf")),
                    ),
                }
            )
    return rows


def equal_digests(base_runs: list[dict], candidate_runs: list[dict]) -> str:
    """``"equal/shared"`` over the seeds both lists ran."""
    base = {run["seed"]: run["digest"] for run in base_runs}
    shared = [run for run in candidate_runs if run["seed"] in base]
    equal = sum(1 for run in shared if run["digest"] == base[run["seed"]])
    return f"{equal}/{len(shared)}"


def print_rows(rows: list[dict]) -> None:
    print(
        f"{'workload':14s} {'metric':15s} {'unit':9s} "
        f"{'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
        f"{'B/A':>7s} {'bound':>6s}  verdict"
    )
    for row in rows:
        cells = [
            f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
            for q1, med, q3 in (row["a"], row["b"])
        ]
        ratio = row["b"][1] / row["a"][1] if row["a"][1] else float("nan")
        print(
            f"{row['workload']:14s} {row['metric']:15s} {row['unit']:9s} "
            f"{cells[0]:>36s} {cells[1]:>36s} {ratio:7.3f} "
            f"{row['bound']:6.2f}  {row['verdict']}"
        )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in argv)
    end_to_end = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    rows = compare(base, candidate, end_to_end)
    if not rows:
        print("the two sets share no workload", file=sys.stderr)
        return 2
    print(f"A = {argv[0]}  ({base['environment'].get('git_sha', '?')})")
    print(f"B = {argv[1]}  ({candidate['environment'].get('git_sha', '?')})")
    print_rows(rows)
    counts = {
        name: sum(1 for row in rows if row["verdict"] == name)
        for name in ("worse", "unresolved", "better", "same")
    }
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    print(
        "equal decision digests, seed by seed: "
        + ", ".join(
            f"{workload} {equal_digests(runs, candidate['runs'][workload])}"
            for workload, runs in base["runs"].items()
            if candidate["runs"].get(workload)
        )
    )
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
