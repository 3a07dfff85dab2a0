"""Pluggable component registries — the library's extension points.

Every string-dispatched component family (algorithms, topologies, trace
kinds, application mixes, efficiency models) is backed by one
:class:`Registry`. The built-in entries are registered by the modules
that define them; third-party code extends the system the same way,
without touching any core file::

    from repro.registry import register_algorithm

    @register_algorithm("MYALG", needs_plan=False,
                        description="my custom embedder")
    def _make_myalg(scenario):
        return MyAlgorithm(scenario.substrate, scenario.apps)

After that, ``"MYALG"`` works everywhere a built-in name does: in
``Experiment(...).algorithms("MYALG")``, in ``make_algorithm``, in the
CLI's ``--algo`` flag, and in ``python -m repro.experiments list``.

Lookup errors raise each registry's domain exception (so existing
``except TopologyError`` call sites keep working) and always name the
registry and its known keys. Duplicate registrations raise
:class:`~repro.errors.RegistryError` — shadowing a built-in silently is
never allowed; use :meth:`Registry.unregister` first if replacement is
intended (tests do this in a ``finally`` block).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, TypeVar

from repro.errors import (
    ApplicationError,
    RegistryError,
    ReproError,
    SimulationError,
    TopologyError,
)

__all__ = [
    "Registry",
    "RegistryEntry",
    "algorithm_registry",
    "topology_registry",
    "trace_registry",
    "app_mix_registry",
    "efficiency_registry",
    "event_profile_registry",
    "admission_policy_registry",
    "shard_policy_registry",
    "register_algorithm",
    "register_topology",
    "register_trace",
    "register_app_mix",
    "register_efficiency",
    "register_event_profile",
    "register_admission_policy",
    "register_shard_policy",
]

#: A registered component factory (call signatures vary per family).
Factory = Callable[..., Any]

_F = TypeVar("_F", bound=Factory)


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its factory plus per-entry metadata."""

    name: str
    factory: Factory
    description: str = ""
    metadata: Mapping[str, object] = field(
        default_factory=lambda: MappingProxyType({})
    )

    @property
    def needs_plan(self) -> bool:
        """Whether this component requires an offline plan (algorithms)."""
        return bool(self.metadata.get("needs_plan", False))

    @property
    def metrics(self) -> tuple[str, ...]:
        """The metric names this component reports per run (algorithms)."""
        return tuple(self.metadata.get("metrics", ()))


class Registry:
    """A named factory table with decorator-based registration.

    ``kind`` is the human-readable component family ("algorithm",
    "topology", ...) used in error messages; ``error`` is the exception
    class raised on unknown-name lookups, so each family keeps its
    domain exception.
    """

    def __init__(
        self, kind: str, error: type[ReproError] = RegistryError
    ) -> None:
        self.kind = kind
        self.error = error
        self._entries: dict[str, RegistryEntry] = {}

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str | None = None,
        *,
        description: str = "",
        **metadata: object,
    ) -> Callable[[_F], _F]:
        """Decorator registering a factory under ``name``.

        Without ``name`` the factory's ``__name__`` is used. Extra
        keyword arguments become the entry's metadata (``needs_plan``,
        ``metrics``, ...).
        """

        def decorator(factory: _F) -> _F:
            key = name if name is not None else factory.__name__
            if key in self._entries:
                raise RegistryError(
                    f"{self.kind} {key!r} is already registered in the "
                    f"{self.kind} registry; unregister it first to replace"
                )
            self._entries[key] = RegistryEntry(
                name=key,
                factory=factory,
                description=description or (factory.__doc__ or "").strip().split("\n")[0],
                metadata=MappingProxyType(dict(metadata)),
            )
            return factory

        return decorator

    def unregister(self, name: str) -> None:
        """Remove one entry (primarily for tests and hot replacement)."""
        if name not in self._entries:
            raise RegistryError(
                f"cannot unregister unknown {self.kind} {name!r}"
            )
        del self._entries[name]

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> RegistryEntry:
        """The entry for ``name``; unknown names raise the domain error."""
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; the {self.kind} registry "
                f"knows: {sorted(self._entries)}"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate ``name``'s component via its factory."""
        return self.get(name).factory(*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entries(self) -> tuple[RegistryEntry, ...]:
        return tuple(self._entries[name] for name in sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


#: Online embedding algorithms: ``factory(scenario) -> algorithm``.
algorithm_registry = Registry("algorithm", error=SimulationError)
#: Substrate topologies: ``factory() -> SubstrateNetwork``.
topology_registry = Registry("topology", error=TopologyError)
#: Trace generators: ``factory(substrate, apps, trace_config, rng) -> Trace``.
trace_registry = Registry("trace kind", error=SimulationError)
#: Application mixes: ``factory(rng) -> list[Application]``.
app_mix_registry = Registry("app mix", error=ApplicationError)
#: Efficiency models: ``factory() -> EfficiencyModel``.
efficiency_registry = Registry("efficiency model", error=SimulationError)
#: Dynamic-event profiles: ``factory(scenario, rng) -> EventSchedule``.
event_profile_registry = Registry("event profile", error=SimulationError)
#: Service admission policies: ``factory(**params) -> AdmissionPolicy``.
admission_policy_registry = Registry("admission policy", error=SimulationError)
#: Substrate shard policies:
#: ``factory(substrate, num_shards, rng) -> {NodeId: shard}``.
shard_policy_registry = Registry("shard policy", error=SimulationError)

register_algorithm = algorithm_registry.register
register_topology = topology_registry.register
register_trace = trace_registry.register
register_app_mix = app_mix_registry.register
register_efficiency = efficiency_registry.register
register_event_profile = event_profile_registry.register
register_admission_policy = admission_policy_registry.register
register_shard_policy = shard_policy_registry.register
