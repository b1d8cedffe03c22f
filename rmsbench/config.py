"""Workload definitions: fixed work per run, at full and smoke size.

A run's length is a number of operations, not a number of seconds:
every run of a workload replays the same traces, in the same order,
derived from the workload seed. Full sizes are chosen so one run's
measured window lasts roughly ``run_seconds`` on a 2-core x86 VM.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class InlineConfig:
    scenario: str
    n: int
    traces: int
    r: int
    eps: float
    m_max: int
    segment_ops: int
    extra_opens: int = 0
    eval_samples: int = 1000


@dataclass(frozen=True)
class ServeConfig:
    scenario: str
    n: int
    passes: int
    r: int
    eps: float
    m_max: int
    segment_ops: int
    window: int
    read_every: int
    deadline_ms: float
    extra_opens: int = 0
    eval_samples: int = 1000
    #: Supervisor knobs sent in each tenant's ``open`` (the scenario's
    #: service hints).
    supervisor: tuple[tuple[str, float], ...] = ()


WORKLOADS: dict[str, InlineConfig | ServeConfig] = {
    "engine-churn": InlineConfig(
        scenario="mixed-batch", n=8000, traces=16, r=20, eps=0.02,
        m_max=1024, segment_ops=500),
    "cover-storm": InlineConfig(
        scenario="skyline-churn", n=600, traces=10, r=10, eps=0.1,
        m_max=128, segment_ops=100, extra_opens=1),
    "serve-saturated": ServeConfig(
        scenario="overload-multitenant", n=4000, passes=10, r=10, eps=0.1,
        m_max=128, segment_ops=1000, window=32, read_every=2,
        deadline_ms=10.0, extra_opens=3,
        supervisor=(("max_wave", 32), ("wave_budget_s", 0.002),
                    ("pump_budget_s", 0.004),
                    ("read_deadline_s", 0.002))),
}

#: Smoke sizes for the benchmark's own tests: seconds, not minutes.
SMOKE: dict[str, dict[str, int]] = {
    "engine-churn": {"n": 600, "traces": 2, "segment_ops": 100,
                     "eval_samples": 200},
    "cover-storm": {"n": 200, "traces": 2, "segment_ops": 40,
                    "extra_opens": 1, "eval_samples": 200},
    "serve-saturated": {"n": 300, "passes": 1, "segment_ops": 50,
                        "extra_opens": 1, "eval_samples": 200},
}


def workload_config(name: str, *, smoke: bool = False
                    ) -> InlineConfig | ServeConfig:
    cfg = WORKLOADS[name]
    return replace(cfg, **SMOKE[name]) if smoke else cfg


def trace_seeds(seed: int, count: int) -> list[int]:
    """Trace seeds of one run: a pure function of the workload seed."""
    return [seed * 1000 + i for i in range(count)]
