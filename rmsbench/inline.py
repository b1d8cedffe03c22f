"""Inline workloads: closed-loop replays through the public Session API.

One pass takes the workload's compiled traces, and for each opens a
session with ``open_session`` (timed: ``setup_s``), replays the trace
slice by slice with one ``Session.apply_batch`` call in flight and a
``Session.result()`` after every call, and ends with the engine's deep
self-check ``FDRMS.verify(deep=True)``. Regret at the trace's snapshot
marks, the deep check, the host-speed probes that correct every
timing (``measure.HostSpeed``) and the read-sized kernel timed after
every read (``measure.read_kernel``) run outside the timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import measure
from config import InlineConfig

from repro.api.session import open_session
from repro.core.regret import RegretEvaluator
from repro.scenarios import get_scenario
from repro.scenarios.replay import EVAL_SEED, batch_slices, floor_r


def compile_traces(scenario: str, n: int, seeds: list[int]) -> list[Any]:
    spec = get_scenario(scenario)
    return [spec.compile(seed=s, n=n) for s in seeds]


@dataclass
class PassRecord:
    """Everything one pass over a workload's traces measured."""

    speed: measure.HostSpeed = field(default_factory=measure.HostSpeed)
    #: (t0, t1) of every timed ``open_session``.
    setups: list[tuple[float, float]] = field(default_factory=list)
    #: (ops, t0, t1, t2): ``apply_batch`` ran over [t0, t1] and the
    #: ``result()`` read after it over [t1, t2].
    calls: list[tuple[int, float, float, float]] = field(
        default_factory=list)
    #: ``measure.read_kernel`` seconds taken right after each read.
    read_ref: list[float] = field(default_factory=list)
    #: (t0, t1, wall_s, cpu_s) of every trace's replay loop; wall and
    #: CPU seconds exclude the probes and regret evaluation in it.
    loops: list[tuple[float, float, float, float]] = field(
        default_factory=list)
    mrr_max: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    window_s: float = 0.0
    deltas: int = 0
    stabilize_steps: int = 0
    m_final: list[int] = field(default_factory=list)
    result_size: list[int] = field(default_factory=list)


def replay_pass(cfg: InlineConfig, traces: list[Any],
                check=lambda session: session.engine.verify(deep=True),
                tracer: Any = None) -> PassRecord:
    """Replay every trace once; ``check`` is the per-trace correctness
    gate (raises on failure). A ``tracer`` records spans only inside
    the measured window (opens and the replay loop); host-speed probes,
    regret evaluation and the check run outside it."""

    def window(on: bool) -> None:
        if tracer is not None:
            tracer.enabled = on

    def timed_open(workload: Any, r: int, seed: int) -> Any:
        rec.speed.probe()
        window(True)
        t0 = time.perf_counter()
        session = open_session(workload.initial, r, algo="fd-rms",
                               seed=seed, eps=cfg.eps, m_max=cfg.m_max)
        t1 = time.perf_counter()
        window(False)
        rec.setups.append((t0, t1))
        rec.window_s += t1 - t0
        rec.speed.probe()
        return session

    rec = PassRecord()
    speed = rec.speed
    utilities = RegretEvaluator(traces[0].d, n_samples=cfg.eval_samples,
                                seed=EVAL_SEED).utilities
    for trace in traces:
        workload = trace.workload
        ops = workload.operations
        r = floor_r(cfg.r, trace.d)
        marks = set(workload.snapshots)
        trace_mrr = 0.0
        session = None
        try:
            for _ in range(cfg.extra_opens):
                timed_open(workload, r, trace.seed).close()
            session = timed_open(workload, r, trace.seed)
            window(True)
            c0 = time.process_time()
            loop_start = time.perf_counter()
            paused = paused_cpu = 0.0
            for start, stop in batch_slices(trace):
                batch = ops[start:stop]
                t0 = time.perf_counter()
                session.apply_batch(batch)
                t1 = time.perf_counter()
                session.result()
                t2 = time.perf_counter()
                read_ref = measure.read_kernel()
                paused += read_ref
                paused_cpu += read_ref
                rec.calls.append((stop - start, t0, t1, t2))
                rec.read_ref.append(read_ref)
                if stop in marks or speed.due(t2):
                    window(False)
                    pc0 = time.process_time()
                    if stop in marks:
                        trace_mrr = max(trace_mrr, measure.max_regret_k1(
                            session.db.points(), session.result_points(),
                            utilities))
                    if speed.due(t2):
                        speed.probe()
                    paused += time.perf_counter() - t2
                    paused_cpu += time.process_time() - pc0
                    window(True)
            loop_end = time.perf_counter()
            cpu = time.process_time() - c0 - paused_cpu
            wall = loop_end - loop_start - paused
            window(False)
            speed.probe()
            rec.loops.append((loop_start, loop_end, wall, cpu))
            rec.cpu_s += cpu
            rec.window_s += wall
            stats = session.stats()
            rec.deltas += int(stats["deltas"])
            rec.stabilize_steps += int(stats["stabilize_steps"])
            rec.m_final.append(int(stats["m"]))
            rec.result_size.append(len(session.result()))
            check(session)
        except Exception as exc:  # a failed trace counts its operations
            rec.failed += len(ops)
            rec.errors.append(f"{trace.scenario}/seed={trace.seed}: "
                              f"{type(exc).__name__}: {exc}")
        finally:
            window(False)
            if session is not None:
                session.close()
        rec.ops += len(ops)
        rec.mrr_max.append(trace_mrr)
    return rec


def end_to_end(cfg: InlineConfig, rec: PassRecord, *,
               corrected: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``corrected`` scales every timing to the
    reference host speed (``measure.HostSpeed``; reads by
    ``measure.read_factors``)."""
    def factors(t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        return rec.speed.factors(t0, t1) if corrected else np.ones_like(t0)

    calls = np.asarray(rec.calls, dtype=float).reshape(-1, 4)
    n_ops, t0, t1, t2 = calls.T
    write_s = (t1 - t0) * factors(t0, t1)
    read_s = (t2 - t1) * (measure.read_factors(rec.read_ref) if corrected
                          else 1.0)
    opens = np.asarray(rec.setups, dtype=float).reshape(-1, 2)
    setups = (opens[:, 1] - opens[:, 0]) * factors(opens[:, 0], opens[:, 1])
    loops = np.asarray(rec.loops, dtype=float).reshape(-1, 4)
    cpu_s = float(np.sum(loops[:, 3] * factors(loops[:, 0], loops[:, 1])))
    weights = n_ops.astype(np.int64)
    rates = measure.duration_rates(zip(weights, write_s + read_s),
                                   cfg.segment_ops)
    return {
        "setup_s": measure.median(setups),
        "ops_per_s": measure.median(rates),
        "write_visible_mean_ms": measure.weighted_mean(1e3 * write_s,
                                                       weights),
        "write_visible_p95_ms": measure.weighted_percentile(
            1e3 * write_s, weights, measure.WRITE_TAIL_PCT),
        "read_p50_ms": measure.percentile(1e3 * read_s, 50),
        "read_p99_ms": measure.percentile(1e3 * read_s, measure.TAIL_PCT),
        "cpu_ms_per_op": 1e3 * cpu_s / max(1, rec.ops),
        "fresh_read_ratio": 1.0,
        "mrr_max": measure.mean(rec.mrr_max),
        "peak_rss_mb": measure.self_peak_rss_mb(),
    }


def corrected_window_s(rec: PassRecord) -> float:
    """``rec.window_s`` (opens plus replay loops) at reference host speed."""
    opens = np.asarray(rec.setups, dtype=float).reshape(-1, 2)
    loops = np.asarray(rec.loops, dtype=float).reshape(-1, 4)
    return float(
        np.sum((opens[:, 1] - opens[:, 0])
               * rec.speed.factors(opens[:, 0], opens[:, 1]))
        + np.sum(loops[:, 2] * rec.speed.factors(loops[:, 0], loops[:, 1])))
