"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import gc
import math
import os
import time


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_mean(values, share: float = 0.05) -> float:
    """Mean of the largest ``share`` of ``values`` (at least one value).

    Unlike a percentile it moves with every value in the tail, so it does not
    sit on one of the few levels a quantised model produces.
    """
    ordered = sorted(values, reverse=True)
    if not ordered:
        raise ValueError("tail mean of an empty sample")
    count = max(1, round(len(ordered) * share))
    return sum(ordered[:count]) / count


def calmest_window_percentile(values, q: float, windows: int) -> float:
    """Lowest ``q``-th percentile among ``windows`` consecutive slices of ``values``.

    On a shared machine whole seconds run slow; the calmest slice measures
    the system rather than its neighbours.
    """
    values = list(values)
    size = max(1, len(values) // windows)
    slices = [values[i : i + size] for i in range(0, size * windows, size)]
    return min(percentile(part, q) for part in slices if part)


#: Hardware-model counters reported as exact per-layer counts.
HW_COUNTERS = (
    "edges_scanned",
    "cover_cells_updated",
    "instr_find_obstacle",
    "bus_words",
    "conflicts_reported",
)


def hw_counter_metrics(counters) -> dict:
    """``hw.*`` per-layer metrics from summed outcome counters."""
    metrics = {f"hw.{key}": (counters.get(key, 0), "count") for key in HW_COUNTERS}
    loaded = counters.get("defects_loaded", 0)
    metrics["hw.prematch_ratio"] = (
        counters.get("prematched_defects", 0) / loaded if loaded else 0.0,
        "ratio",
    )
    return metrics


#: Seconds :func:`probe_seconds` takes on the reference machine (a calm
#: 2-vCPU VM, Python 3.11); it sets the scale of every normalised timing.
PROBE_REFERENCE_S = 80e-6


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def probe_seconds() -> float:
    """Wall time of a fixed pure-Python routine of about 0.1 ms.

    On a shared host the same code runs up to twice as slow for seconds or
    minutes at a time.  Run beside a timed step, the probe slows with it, so
    ``step * PROBE_REFERENCE_S / probe`` is the step's time at the reference
    speed.  The collector is held off so that no collection of the program's
    objects is charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    table, values = {}, []
    for key in range(300):
        cell = _Cell(key, key * 7 % 13)
        table[key & 127] = cell
        values.append(cell.key + cell.value)
    values.sort()
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def machine_probe_seconds() -> float:
    """:func:`probe_seconds` on every CPU this thread may use, averaged.

    For work spread over several processes, which run on any CPU: the probe
    pins itself to each CPU in turn, then the thread may run anywhere again.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(probe_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)
