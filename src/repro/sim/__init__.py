"""Discrete-time simulation engine, sessions, metrics, and the runner."""

from repro.sim.engine import SimulationResult, simulate
from repro.sim.metrics import (
    NodeTimeline,
    balance_index,
    cost_breakdown,
    demand_series,
    rejection_rate,
)
from repro.sim.runner import (
    ConfidenceInterval,
    ParallelRunner,
    confidence_interval,
    get_default_runner,
    set_default_runner,
)
from repro.sim.session import SessionSnapshot, SimulationSession, SlotReport

__all__ = [
    "SimulationResult",
    "SimulationSession",
    "SessionSnapshot",
    "SlotReport",
    "simulate",
    "rejection_rate",
    "cost_breakdown",
    "balance_index",
    "demand_series",
    "NodeTimeline",
    "ConfidenceInterval",
    "ParallelRunner",
    "confidence_interval",
    "get_default_runner",
    "set_default_runner",
]
