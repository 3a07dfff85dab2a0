"""RPR006 corpus: frozen-record mutation and registry internals."""

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkFailure:
    slot: int
    link: str


def retarget_event_wrong(event: LinkFailure, new_slot: int) -> LinkFailure:
    object.__setattr__(event, "slot", new_slot)  # BAD: mutates a frozen record
    return event


def retarget_event_right(event: LinkFailure, new_slot: int) -> LinkFailure:
    return dataclasses.replace(event, slot=new_slot)  # OK: rebuild


@dataclass(frozen=True)
class CachedView:
    source: str

    def __post_init__(self) -> None:
        # OK: the owning class finishing its own construction is the one
        # sanctioned use of object.__setattr__ on a frozen dataclass.
        object.__setattr__(self, "source", self.source.strip())


def hot_swap_algorithm(registry, name, factory):
    registry._entries[name] = factory  # BAD: bypasses duplicate policy
    return registry


def peek_registry(registry):
    return list(registry._entries)  # BAD: reaching into the table


def sanctioned_registry_use(registry, name):
    entry = registry.get(name)  # OK: public lookup
    return entry, registry.names()  # OK: read-only view


EXPECTED = {
    "RPR006": [14, 33, 38],
}
