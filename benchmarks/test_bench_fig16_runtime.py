"""Fig. 16: runtime scalability.

(a) Runtime vs request arrival rate on Iris @100 % — both OLIVE and QUICKG
process requests serially, so runtime grows linearly with the rate.
(b–e) Runtime vs utilization per topology — the paper reports OLIVE faster
than QUICKG by 1.2–7.8×, with OLIVE's runtime growing and QUICKG's falling
as utilization rises (QUICKG rejects more, skipping work).
"""

import numpy as np
import pytest

from _bench_utils import FAST, UTILIZATIONS, bench_config, record
from repro.experiments.figures import run_runtime_scaling

ARRIVAL_RATES = (5.0, 20.0) if FAST else (2.0, 5.0, 10.0, 20.0)
RUNTIME_TOPOLOGIES = ("CittaStudi",) if FAST else ("Iris", "CittaStudi")


# The cyclic collector stays off while the runs are timed, as timeit does:
# late in a suite the process holds a large heap, and one full collection
# landing inside a 0.1 s run reads as a 2–3× slower algorithm at that point.
@pytest.mark.benchmark(disable_gc=True)
def test_fig16_runtime_scalability(benchmark):
    def run_all():
        results = {}
        for topology in RUNTIME_TOPOLOGIES:
            config = bench_config(topology=topology, repetitions=1)
            results[topology] = run_runtime_scaling(
                config, ARRIVAL_RATES, UTILIZATIONS
            )
        return results

    data = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = []
    for topology, result in data.items():
        lines.append(f"[{topology}] runtime vs arrival rate (per-node λ)")
        for rate, summary in result["by_rate"].items():
            lines.append(
                f"  λ={rate:>4.0f}  OLIVE={summary['OLIVE'].mean:7.3f}s  "
                f"QUICKG={summary['QUICKG'].mean:7.3f}s"
            )
        lines.append(f"[{topology}] runtime vs utilization")
        for utilization, summary in result["by_utilization"].items():
            speedup = summary["QUICKG"].mean / max(summary["OLIVE"].mean, 1e-9)
            lines.append(
                f"  u={utilization:>4.0%}  OLIVE={summary['OLIVE'].mean:7.3f}s  "
                f"QUICKG={summary['QUICKG'].mean:7.3f}s  speedup={speedup:4.1f}x"
            )
        lines.append("")
    record("fig16_runtime", lines)

    for topology, result in data.items():
        rates = sorted(result["by_rate"])
        olive_times = [result["by_rate"][r]["OLIVE"].mean for r in rates]
        # Paper shape 1: runtime grows with the arrival rate, roughly
        # linearly — the highest rate costs more than the lowest, and the
        # growth factor is within 4× of the rate ratio.
        assert olive_times[-1] > olive_times[0]
        ratio = olive_times[-1] / max(olive_times[0], 1e-9)
        rate_ratio = rates[-1] / rates[0]
        assert ratio < 4 * rate_ratio
        # Paper shape 2: OLIVE is faster than QUICKG at every utilization.
        for utilization, summary in result["by_utilization"].items():
            assert (
                summary["OLIVE"].mean <= summary["QUICKG"].mean * 1.2
            ), (topology, utilization)
