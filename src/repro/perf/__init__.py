"""``repro.perf`` — shared performance floors and regression gates.

One place for every performance constant the repo asserts on, so the
smoke script, the comparison gate and the acceptance benchmark can
never drift apart again (they did once: the smoke docstring claimed
2x/3x floors while the code enforced 1.5x/2x).

* :mod:`repro.perf.gates` holds the floors themselves plus the
  pure-dict comparison logic used by ``scripts/perf_compare.py``.
"""

from repro.perf.gates import (
    ACCEPTANCE_KERNEL_FLOOR,
    ACCEPTANCE_SCALING_FLOOR,
    DEFAULT_TOLERANCE,
    JOIN_POOL_KEY,
    JOIN_POOL_WORKERS,
    SCALING_BEAT_FLOOR,
    SCALING_MIN_ROWS,
    SCALING_WORKERS,
    SERVE_THREADS_KEY,
    SERVE_THREADS_MIN_CPUS,
    SERVE_THREADS_WORKERS,
    SMOKE_EXECUTOR_FLOOR,
    SMOKE_FLOORS,
    SMOKE_KERNEL_FLOOR,
    check_floors,
    compare,
    join_pool_enforced,
    scaling_enforced,
    serve_threads_enforced,
)

__all__ = [
    "ACCEPTANCE_KERNEL_FLOOR",
    "ACCEPTANCE_SCALING_FLOOR",
    "DEFAULT_TOLERANCE",
    "JOIN_POOL_KEY",
    "JOIN_POOL_WORKERS",
    "SCALING_BEAT_FLOOR",
    "SCALING_MIN_ROWS",
    "SCALING_WORKERS",
    "SERVE_THREADS_KEY",
    "SERVE_THREADS_MIN_CPUS",
    "SERVE_THREADS_WORKERS",
    "SMOKE_EXECUTOR_FLOOR",
    "SMOKE_FLOORS",
    "SMOKE_KERNEL_FLOOR",
    "check_floors",
    "compare",
    "join_pool_enforced",
    "scaling_enforced",
    "serve_threads_enforced",
]
