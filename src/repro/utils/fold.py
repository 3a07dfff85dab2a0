"""One summation order for floats, on every interpreter."""

from __future__ import annotations

from collections.abc import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + x0) + x1) + …``, left to right.

    Built-in ``sum()`` of floats compensates from CPython 3.12 on, so it
    gives other last bits there than on 3.10/3.11. What feeds a decision,
    a plan, an LP coefficient or an admission check is added up here.
    """
    total = 0.0
    for value in values:
        total += value
    return total
