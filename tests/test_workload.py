"""Unit tests for repro.workload: requests, arrivals, popularity, traces."""

import numpy as np
import pytest

from repro.apps.catalog import make_chain
from repro.errors import WorkloadError
from repro.utils.rng import make_rng
from repro.workload.adversarial import (
    generate_capacity_probe_trace,
    generate_ingress_hotspot_trace,
    generate_pareto_burst_trace,
    hotspot_probabilities,
    pareto_burst_counts,
)
from repro.workload.arrivals import MMPPProcess, PoissonProcess
from repro.workload.popularity import assign_node_popularity, zipf_weights
from repro.workload.request import Request
from repro.workload.trace import (
    TraceConfig,
    demand_mean_for_utilization,
    generate_caida_like_trace,
    generate_mmpp_trace,
    mean_application_footprint,
)


def all_requests(trace):
    """Every request of ``trace`` as handed out: history, then online."""
    return trace.history_requests() + trace.online_requests()


class TestRequest:
    def test_activity_interval_is_half_open(self):
        request = Request(
            arrival=5, id=1, app_index=0, ingress="a", demand=1.0, duration=3
        )
        assert request.departure == 8
        assert request.active_at(5)
        assert request.active_at(7)
        assert not request.active_at(8)
        assert not request.active_at(4)

    def test_ordering_is_by_arrival_then_id(self):
        early = Request(arrival=1, id=9, app_index=0, ingress="a", demand=1, duration=1)
        late = Request(arrival=2, id=1, app_index=0, ingress="a", demand=1, duration=1)
        tie = Request(arrival=1, id=10, app_index=0, ingress="a", demand=1, duration=1)
        assert sorted([late, tie, early]) == [early, tie, late]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(demand=0.0),
            dict(demand=-1.0),
            dict(demand=float("nan")),
            dict(demand=float("inf")),
            dict(duration=0),
            dict(arrival=-1),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            arrival=0, id=1, app_index=0, ingress="a", demand=1.0, duration=1
        )
        base.update(kwargs)
        with pytest.raises(WorkloadError):
            Request(**base)

    def test_class_key(self):
        request = Request(
            arrival=0, id=1, app_index=2, ingress="edge-7", demand=1, duration=1
        )
        assert request.class_key() == (2, "edge-7")


class TestArrivalProcesses:
    def test_poisson_mean(self, rng):
        counts = PoissonProcess(rate=10.0).counts(5000, rng)
        assert counts.mean() == pytest.approx(10.0, rel=0.05)

    def test_poisson_rejects_negative_rate(self):
        with pytest.raises(WorkloadError):
            PoissonProcess(rate=-1.0)

    def test_mmpp_long_run_mean(self, rng):
        process = MMPPProcess(mean_rate=10.0, burstiness=0.5)
        counts = process.counts(20000, rng)
        assert counts.mean() == pytest.approx(10.0, rel=0.1)

    def test_mmpp_rates_alternate_between_two_levels(self, rng):
        process = MMPPProcess(mean_rate=10.0, burstiness=0.5)
        rates = process.rates(1000, rng)
        assert set(np.unique(rates)) == {5.0, 15.0}

    def test_mmpp_is_overdispersed_relative_to_poisson(self, rng):
        # Burstiness should push variance well above the Poisson variance.
        process = MMPPProcess(
            mean_rate=20.0, burstiness=0.8, switch_probability=0.05
        )
        counts = process.counts(20000, rng)
        assert counts.var() > 1.5 * counts.mean()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean_rate=-1.0),
            dict(mean_rate=1.0, burstiness=1.0),
            dict(mean_rate=1.0, burstiness=-0.1),
            dict(mean_rate=1.0, switch_probability=0.0),
        ],
    )
    def test_mmpp_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            MMPPProcess(**kwargs)


class TestPopularity:
    def test_zipf_weights_normalized_and_decreasing(self):
        weights = zipf_weights(10, alpha=1.0)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(9))
        assert weights[0] / weights[9] == pytest.approx(10.0)

    def test_zipf_rejects_empty(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0)

    def test_assignment_covers_all_nodes(self, rng):
        nodes = [f"n{i}" for i in range(7)]
        popularity = assign_node_popularity(nodes, rng)
        assert set(popularity) == set(nodes)
        assert sum(popularity.values()) == pytest.approx(1.0)

    def test_assignment_permutation_depends_on_rng(self):
        nodes = [f"n{i}" for i in range(20)]
        a = assign_node_popularity(nodes, make_rng(1))
        b = assign_node_popularity(nodes, make_rng(2))
        assert a != b


class TestTrace:
    def _config(self, **overrides):
        defaults = dict(history_slots=50, online_slots=20, arrivals_per_node=2.0)
        defaults.update(overrides)
        return TraceConfig(**defaults)

    def test_split_rebases_online_arrivals(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        trace = generate_mmpp_trace(line_substrate, apps, self._config(), rng)
        for request in trace.online_requests():
            assert 0 <= request.arrival < 20
        for request in trace.history_requests():
            assert request.arrival < 50

    def test_split_preserves_request_count(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        trace = generate_mmpp_trace(line_substrate, apps, self._config(), rng)
        assert (
            len(trace.history_requests()) + len(trace.online_requests())
            == trace.num_requests
        )

    def test_ingress_only_from_edge_nodes(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        trace = generate_mmpp_trace(line_substrate, apps, self._config(), rng)
        edge = set(line_substrate.edge_nodes)
        assert all(r.ingress in edge for r in all_requests(trace))

    def test_demands_positive_durations_at_least_one(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        trace = generate_mmpp_trace(line_substrate, apps, self._config(), rng)
        assert all(r.demand > 0 for r in all_requests(trace))
        assert all(r.duration >= 1 for r in all_requests(trace))

    def test_trace_is_deterministic_per_seed(self, line_substrate):
        apps = [make_chain(make_rng(0), num_vnfs=3)]
        a = generate_mmpp_trace(line_substrate, apps, self._config(), make_rng(5))
        b = generate_mmpp_trace(line_substrate, apps, self._config(), make_rng(5))
        assert all_requests(a) == all_requests(b)

    def test_caida_trace_basic_properties(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        trace = generate_caida_like_trace(
            line_substrate, apps, self._config(), rng
        )
        assert trace.num_requests > 0
        edge = set(line_substrate.edge_nodes)
        assert all(r.ingress in edge for r in all_requests(trace))

    def test_trace_config_validation(self):
        with pytest.raises(WorkloadError):
            TraceConfig(history_slots=0)
        with pytest.raises(WorkloadError):
            TraceConfig(demand_mean=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("demand_floor", 0.0),
            ("demand_floor", -1.0),
            ("demand_floor", float("nan")),
            ("demand_mean", float("nan")),
            ("duration_mean", float("inf")),
            ("demand_std", -1.0),
            ("arrivals_per_node", -1.0),
            ("arrivals_per_node", float("nan")),
        ],
    )
    def test_trace_config_refuses_what_the_draws_cannot_take(
        self, name, value
    ):
        # Each of these once came out of generation as a request with a
        # non-positive or NaN demand, a negative duration, or a raw numpy
        # ValueError.
        with pytest.raises(WorkloadError, match=name):
            TraceConfig(**{name: value})

    def test_online_requests_are_built_once(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        trace = generate_mmpp_trace(line_substrate, apps, self._config(), rng)
        assert trace.online_requests() is trace.online_requests()
        assert trace.history_requests() is trace.history_requests()

    @pytest.mark.parametrize("algorithm", ["QUICKG", "OLIVE"])
    def test_serve_builds_no_request(self, monkeypatch, algorithm):
        from repro.api import Experiment
        from repro.experiments.config import ExperimentConfig

        built = []
        trusted, init = Request.trusted.__func__, Request.__init__

        def counted_trusted(cls, *args, **kwargs):
            built.append(args)
            return trusted(cls, *args, **kwargs)

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Request, "trusted", classmethod(counted_trusted))
        monkeypatch.setattr(Request, "__init__", counted_init)
        experiment = Experiment(ExperimentConfig.test()).algorithms(algorithm)
        service = experiment.serve()
        assert service.scenario.trace.num_requests > 0
        assert (algorithm == "OLIVE") == (not service.scenario.plan.is_empty)
        assert built == []
        # The counters see a Request as soon as one is asked for.
        service.scenario.online_requests()
        assert built


class TestAdversarialTraces:
    def _config(self, **overrides):
        defaults = dict(
            history_slots=120, online_slots=40, arrivals_per_node=2.0
        )
        defaults.update(overrides)
        return TraceConfig(**defaults)

    def _apps(self, rng):
        return [make_chain(rng, num_vnfs=3)]

    @pytest.mark.parametrize(
        "generate",
        [
            generate_pareto_burst_trace,
            generate_ingress_hotspot_trace,
            generate_capacity_probe_trace,
        ],
        ids=["pareto-burst", "ingress-hotspot", "capacity-probe"],
    )
    def test_basic_invariants_and_determinism(self, line_substrate, generate):
        apps = self._apps(make_rng(0))
        a = generate(line_substrate, apps, self._config(), make_rng(7))
        b = generate(line_substrate, apps, self._config(), make_rng(7))
        assert all_requests(a) == all_requests(b)
        assert a.num_requests > 0
        edge = set(line_substrate.edge_nodes)
        assert all(r.ingress in edge for r in all_requests(a))
        assert all(r.demand > 0 and r.duration >= 1 for r in all_requests(a))
        assert (a.columns.arrival < self._config().total_slots).all()

    def test_pareto_burst_is_heavier_tailed_than_poisson(self):
        rng = make_rng(3)
        counts = pareto_burst_counts(20000, 10.0, rng, shape=1.8)
        assert counts.mean() == pytest.approx(10.0, rel=0.25)
        # Heavy modulation: variance far above the Poisson variance (=mean).
        assert counts.var() > 5.0 * counts.mean()

    def test_pareto_burst_rejects_infinite_mean_shape(self):
        with pytest.raises(WorkloadError, match="exceed 1"):
            pareto_burst_counts(10, 1.0, make_rng(0), shape=1.0)

    def test_hotspot_rotates_between_phases(self, line_substrate):
        apps = self._apps(make_rng(0))
        config = self._config()
        trace = generate_ingress_hotspot_trace(
            line_substrate, apps, config, make_rng(11), concentration=0.9
        )

        def top_ingress(requests):
            share = {}
            for r in requests:
                share[r.ingress] = share.get(r.ingress, 0) + 1
            return max(share, key=share.get)

        history_hot = top_ingress(trace.history_requests())
        online_hot = top_ingress(trace.online_requests())
        assert history_hot != online_hot

    def test_hotspot_concentration_observed(self, line_substrate):
        apps = self._apps(make_rng(0))
        trace = generate_ingress_hotspot_trace(
            line_substrate, apps, self._config(), make_rng(11),
            concentration=0.8,
        )
        history = trace.history_requests()
        share = {}
        for r in history:
            share[r.ingress] = share.get(r.ingress, 0) + 1
        assert max(share.values()) / len(history) == pytest.approx(
            0.8, abs=0.1
        )

    def test_hotspot_probabilities_validation(self):
        with pytest.raises(WorkloadError, match="strict non-empty subset"):
            hotspot_probabilities(4, np.arange(4), 0.8)
        with pytest.raises(WorkloadError, match="strict non-empty subset"):
            hotspot_probabilities(4, np.arange(0), 0.8)

    def test_hotspot_parameter_validation(self, line_substrate, rng):
        apps = self._apps(rng)
        with pytest.raises(WorkloadError, match="hotspot_fraction"):
            generate_ingress_hotspot_trace(
                line_substrate, apps, self._config(), rng,
                hotspot_fraction=0.9,
            )
        with pytest.raises(WorkloadError, match="concentration"):
            generate_ingress_hotspot_trace(
                line_substrate, apps, self._config(), rng, concentration=1.0
            )

    def test_capacity_probe_demands_are_bimodal(self, line_substrate):
        apps = self._apps(make_rng(0))
        config = self._config(demand_mean=10.0, demand_floor=0.1)
        trace = generate_capacity_probe_trace(
            line_substrate, apps, config, make_rng(13),
            probe_fraction=0.9, spike_multiplier=8.0,
        )
        demands = trace.columns.demand
        probes = demands <= config.demand_floor + 1e-9
        assert probes.mean() == pytest.approx(0.9, abs=0.05)
        # Spikes sit around 8× the configured mean, far above the probes.
        assert demands[~probes].mean() > 4 * config.demand_mean
        assert set(trace.columns.duration[probes].tolist()) == {1}

    def test_capacity_probe_parameter_validation(self, line_substrate, rng):
        apps = self._apps(rng)
        with pytest.raises(WorkloadError, match="probe_fraction"):
            generate_capacity_probe_trace(
                line_substrate, apps, self._config(), rng, probe_fraction=1.0
            )
        with pytest.raises(WorkloadError, match="amplify"):
            generate_capacity_probe_trace(
                line_substrate, apps, self._config(), rng, spike_multiplier=0.5
            )

    def test_registry_dispatch(self, line_substrate, rng):
        from repro.registry import trace_registry

        assert {
            "pareto-burst", "ingress-hotspot", "capacity-probe"
        } <= set(trace_registry.names())
        trace = trace_registry.create(
            "pareto-burst", line_substrate, self._apps(rng),
            self._config(), rng,
        )
        assert trace.num_requests > 0


class TestUtilizationCalibration:
    def test_footprint_is_mean_of_node_sizes(self, rng):
        apps = [make_chain(rng, num_vnfs=3), make_chain(rng, num_vnfs=4)]
        expected = np.mean([a.total_node_size() for a in apps])
        assert mean_application_footprint(apps) == pytest.approx(expected)

    def test_demand_mean_scales_linearly_with_utilization(
        self, line_substrate, rng
    ):
        apps = [make_chain(rng, num_vnfs=3)]
        d60 = demand_mean_for_utilization(0.6, line_substrate, apps)
        d120 = demand_mean_for_utilization(1.2, line_substrate, apps)
        assert d120 == pytest.approx(2 * d60)

    def test_calibration_closes_the_loop(self, line_substrate, rng):
        """Generated load should land near the requested utilization."""
        apps = [make_chain(rng, num_vnfs=3)]
        target = 1.0
        demand_mean = demand_mean_for_utilization(
            target, line_substrate, apps, arrivals_per_node=5.0
        )
        config = TraceConfig(
            history_slots=400,
            online_slots=10,
            arrivals_per_node=5.0,
            demand_mean=demand_mean,
            demand_std=0.0001,
        )
        trace = generate_mmpp_trace(line_substrate, apps, config, rng)
        # Mean active node-footprint over steady-state slots vs edge capacity.
        series = np.zeros(400)
        footprint = apps[0].total_node_size()
        for request in trace.history_requests():
            stop = min(request.departure, 400)
            series[request.arrival:stop] += request.demand * footprint
        observed = series[50:].mean() / line_substrate.total_edge_capacity()
        assert observed == pytest.approx(target, rel=0.15)

    def test_rejects_bad_inputs(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        with pytest.raises(WorkloadError):
            demand_mean_for_utilization(0.0, line_substrate, apps)
        with pytest.raises(WorkloadError):
            mean_application_footprint([])
