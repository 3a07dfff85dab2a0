"""Dynamic-scenario machinery: substrate events, disruption policies,
and the registered event-profile presets.

The paper's evaluation (Sec. IV-B) only exercises well-behaved planned
demand; this package opens the chaos-scenario workload family — link
failures, node drains, capacity degradations, flash crowds, ingress
migrations — consumed slot-by-slot by the simulation engine.
"""

from repro.scenarios.events import (
    DISRUPTION_POLICIES,
    CapacityDegradation,
    Event,
    EventSchedule,
    FlashCrowd,
    IngressMigration,
    LinkFailure,
    LinkRecovery,
    NodeDrain,
    NodeRestore,
    apply_capacity_events,
    resolve_disruptions,
)

__all__ = [
    "CapacityDegradation",
    "DISRUPTION_POLICIES",
    "Event",
    "EventSchedule",
    "FlashCrowd",
    "IngressMigration",
    "LinkFailure",
    "LinkRecovery",
    "NodeDrain",
    "NodeRestore",
    "apply_capacity_events",
    "resolve_disruptions",
]
