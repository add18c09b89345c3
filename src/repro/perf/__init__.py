"""Performance accounting: simulated clock, counters, Table-3 model."""

from repro.perf.timeline import SimClock
from repro.perf.counters import OpCounter
from repro.perf.analytical import (
    UpdateCost,
    als_iteration_cost,
    batch_solve_cost,
    get_hermitian_cost,
    memory_footprint_floats,
)

__all__ = [
    "SimClock",
    "OpCounter",
    "UpdateCost",
    "get_hermitian_cost",
    "batch_solve_cost",
    "als_iteration_cost",
    "memory_footprint_floats",
]
