"""Statistics and host/process probes shared by every workload."""

from __future__ import annotations

import os
import resource
import time
from typing import Iterable, Sequence

import numpy as np

#: Percentile reported as the tail: 99 needs >= 1000 samples so that at
#: least ten lie beyond it; every full-size workload records more.
TAIL_PCT = 99.0
#: Percentile reported as the tail of write visibility. Its samples are
#: ops, and up to 64 ops share one ``apply_batch`` call, so the op-weighted
#: p99 of engine-churn is set by its ~20 slowest calls: the same calls in
#: every run of one seed, other calls under another seed. It moved 21-32
#: ms across seeds (spread 0.20-0.23) and 21-23 ms across runs of one
#: seed; the p95, over ~100 calls, spread 0.07.
WRITE_TAIL_PCT = 95.0


def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def weighted_percentile(values: Sequence[float], weights: Sequence[int],
                        q: float) -> float:
    """Percentile of samples where ``weights[i]`` repeats ``values[i]``."""
    if len(values) == 0:
        return 0.0
    vals = np.asarray(values, dtype=float)
    wts = np.asarray(weights, dtype=np.int64)
    return float(np.percentile(np.repeat(vals, wts), q))


def weighted_mean(values: Sequence[float], weights: Sequence[int]) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.average(np.asarray(values, dtype=float),
                            weights=np.asarray(weights, dtype=float)))


def segments(events: Iterable[tuple[float, int]], segment_ops: int,
             start: float = 0.0) -> list[tuple[float, float, int]]:
    """Consecutive ``(t0, t1, ops)`` segments of at least ``segment_ops``.

    ``events`` are ``(timestamp, ops)`` pairs in time order; a segment
    runs from the previous segment's end (or ``start``) to the event that
    completes it. A trailing partial segment is dropped.
    """
    out = []
    t_prev, acc = start, 0
    for t, ops in events:
        acc += ops
        if acc >= segment_ops:
            if t > t_prev:
                out.append((t_prev, t, acc))
            t_prev, acc = t, 0
    return out


def duration_rates(calls: Iterable[tuple[int, float]],
                   segment_ops: int) -> list[float]:
    """Ops/s of segments built from ``(ops, seconds)`` call records."""
    rates = []
    acc_ops, acc_s = 0, 0.0
    for ops, seconds in calls:
        acc_ops += ops
        acc_s += seconds
        if acc_ops >= segment_ops:
            if acc_s > 0:
                rates.append(acc_ops / acc_s)
            acc_ops, acc_s = 0, 0.0
    return rates


def mean(values: Sequence[float]) -> float:
    return float(np.mean(np.asarray(values, dtype=float))) \
        if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float))) \
        if len(values) else 0.0


# -- host and process probes (Linux /proc) --------------------------------

_TICK = float(os.sysconf("SC_CLK_TCK"))


def host_steal_s() -> float:
    """Cumulative CPU steal of the host, summed over all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return float(fields[8]) / _TICK if len(fields) > 8 else 0.0


#: What a corrected timing assumes the probe kernel took next to it.
PROBE_REF_S = 1e-3
#: Least time between two probes of one run (about 2% of the window).
PROBE_EVERY_S = 0.05


def probe_kernel() -> None:
    """Fixed interpreter + small-array work, about 1 ms on a 2-vCPU Xeon."""
    table: dict[int, int] = {}
    for i in range(8000):
        table[i & 255] = table.get(i & 255, 0) + i
    row = np.arange(32, dtype=float)
    for _ in range(300):
        row = row * 1.0000001


class HostSpeed:
    """Host-speed probes of one run: between the timed calls inline, in
    the client while the server works when served.

    On a shared VM the same work runs up to twice as slow for seconds or
    minutes at a time, often with no CPU steal to show for it (load from
    outside the guest on the cores it shares). The run times a fixed kernel
    (``probe_kernel``, the benchmark's own code, so no change to the
    program under test moves it) at least every ``PROBE_EVERY_S``,
    and scales a timing over ``[t0, t1]`` by
    ``PROBE_REF_S`` over the probes' mean time in that interval (or,
    when none fell inside it, their time interpolated at its middle).
    A corrected timing reads as if the host ran the kernel in exactly
    ``PROBE_REF_S``.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> float:
        """Time the kernel once; returns the wall seconds it took."""
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        return t1 - t0

    def due(self, now: float) -> bool:
        return not self.at or now - self.at[-1] >= PROBE_EVERY_S

    def factors(self, t0: Sequence[float], t1: Sequence[float]
                ) -> np.ndarray:
        """Correction factor of each interval ``[t0[i], t1[i]]``."""
        at = np.asarray(self.at, dtype=float)
        took = np.asarray(self.took, dtype=float)
        lo = np.asarray(t0, dtype=float)
        hi = np.asarray(t1, dtype=float)
        if took.size == 0:
            return np.ones_like(lo)
        csum = np.concatenate(([0.0], np.cumsum(took)))
        i0 = np.searchsorted(at, lo, side="left")
        i1 = np.searchsorted(at, hi, side="right")
        inside = i1 > i0
        mean_in = (csum[i1] - csum[i0]) / np.maximum(i1 - i0, 1)
        around = np.interp(0.5 * (lo + hi), at, took)
        return PROBE_REF_S / np.where(inside, mean_in, around)

    def summary(self) -> dict[str, float]:
        took = 1e3 * np.asarray(self.took or [0.0])
        return {"count": len(self.took), "median": float(np.median(took)),
                "min": float(took.min()), "max": float(took.max())}


#: What a corrected read assumes ``read_kernel`` took next to it.
READ_REF_S = 8e-6
#: Reads whose reference times make up one read's local median.
READ_WINDOW = 21

_READ_KERNEL_SET = frozenset(range(0, 900, 37))


def read_kernel() -> float:
    """Time a fixed read-sized kernel once (about 8 us on a 2-vCPU Xeon).

    The ~1 ms ``probe_kernel`` tracks a host's speed over tens of
    milliseconds but not what a call of a few microseconds sees: a
    neighbour's load on a shared core moved inline ``read_p50_ms`` by
    about 10% between runs after that correction. This kernel has a
    read's shape (builtin calls that copy and sort a small set, the
    benchmark's own code, so no change to the program under test moves
    it) and runs right after every timed read; returns its wall seconds.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        sorted(set(_READ_KERNEL_SET))
    return time.perf_counter() - t0


def read_factors(kernel_s: Sequence[float]) -> np.ndarray:
    """Correction factor of each read from the ``read_kernel`` times
    taken after it: ``READ_REF_S`` over their median in a window of
    ``READ_WINDOW`` reads centred on it."""
    took = np.asarray(kernel_s, dtype=float)
    if took.size == 0:
        return took
    half = READ_WINDOW // 2
    padded = np.pad(took, half, mode="reflect" if took.size > half
                    else "edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, READ_WINDOW)
    return READ_REF_S / np.median(windows, axis=1)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        rest = handle.read().rsplit(")", 1)[1].split()
    return (float(rest[11]) + float(rest[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def max_regret_k1(points: np.ndarray, result: np.ndarray,
                  utilities: np.ndarray) -> float:
    """Maximum 1-regret ratio of ``result`` over ``points``.

    The same quantity as ``repro.core.regret.max_k_regret_ratio_sampled``
    at ``k=1`` (the best score is the exact top-1 score), computed with
    row-major maxima instead of a partition along the strided axis.
    """
    if result.shape[0] == 0 or points.shape[0] == 0:
        return 0.0
    best = (utilities @ points.T).max(axis=1)
    got = (utilities @ result.T).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(best > 0, 1.0 - got / best, 0.0)
    return float(max(0.0, ratio.max(initial=0.0)))
