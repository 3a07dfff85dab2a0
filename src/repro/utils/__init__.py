"""Shared low-level utilities: seeding, filesystem roots, path helpers."""

from repro.utils.paths import data_root, default_cache_root
from repro.utils.rng import child_rng, make_rng, spawn_rngs

__all__ = [
    "make_rng",
    "child_rng",
    "spawn_rngs",
    "data_root",
    "default_cache_root",
]
