"""Tests of the benchmark itself, at smoke size.

Run from the repository root: ``python -m pytest rmsbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import config  # noqa: E402
import inline  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "rmsbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _metrics_match(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for metric in declared:
        entry = got[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload: str, trace: int) -> None:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    witness = json.loads(lines[-2])["witness"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    _metrics_match(result, declared)
    assert result["correct"] and result["failed"] == 0, witness["errors"]
    assert result["attempted"] > 0
    assert witness["nproc"] >= 1 and witness["blas_threads"] == "1"
    assert witness["host_probe_ms"]["median"] > 0
    if trace:
        assert "remainder" in proc.stdout
        assert "tracing overhead" in proc.stdout
    elif workload == "serve-saturated":
        assert 0.0 < witness["server_busy_share"] <= 1.5
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0


def test_same_seed_same_inputs() -> None:
    cfg = config.workload_config("engine-churn", smoke=True)
    seeds = config.trace_seeds(5, cfg.traces)
    a = inline.compile_traces(cfg.scenario, cfg.n, seeds)
    b = inline.compile_traces(cfg.scenario, cfg.n, seeds)
    assert [t.content_hash for t in a] == [t.content_hash for t in b]


def test_failed_verify_counts_the_pass_operations() -> None:
    cfg = config.workload_config("cover-storm", smoke=True)
    traces = inline.compile_traces(cfg.scenario, cfg.n,
                                   config.trace_seeds(0, cfg.traces))

    def broken(session):
        raise AssertionError("forced verify failure")

    rec = inline.replay_pass(cfg, traces, check=broken)
    assert rec.failed == rec.ops == sum(t.n_operations for t in traces)
    assert "forced verify failure" in rec.errors[0]


def test_digest_mismatch_counts_the_tenant_operations(monkeypatch) -> None:
    real = serve.inline_reference
    calls = []

    def wrong_first(cfg, trace, utilities):
        ref = real(cfg, trace, utilities)
        calls.append(trace)
        if len(calls) == 1:
            ref.digest = "sha256:not-the-served-digest"
        return ref

    monkeypatch.setattr(serve, "inline_reference", wrong_first)
    cfg = config.workload_config("serve-saturated", smoke=True)
    result, witness, errors = run.run_served(cfg, 2, trace=False)
    assert result["failed"] == calls[0].n_operations
    assert not result["correct"]
    assert any("digest mismatch" in e for e in errors)


def test_error_envelope_counts_the_tenant_operations(monkeypatch) -> None:
    real = serve.wire_ops
    calls = []

    def one_bad_request(ops):
        out = real(ops)
        calls.append(len(out))
        if len(calls) == 3:  # third slice of tenant t0
            out = [{"kind": "insert", "point": [0.5]}]
        return out

    monkeypatch.setattr(serve, "wire_ops", one_bad_request)
    cfg = config.workload_config("serve-saturated", smoke=True)
    traces = inline.compile_traces(cfg.scenario, cfg.n,
                                   config.trace_seeds(2, 2 * cfg.passes))
    result, witness, errors = run.run_served(cfg, 2, trace=False)
    assert result["failed"] == traces[0].n_operations
    assert any("validation_failed" in e for e in errors)


def test_dead_server_fails_every_pass_quickly(monkeypatch) -> None:
    real_start = serve.ServerProcess.start

    def start_then_kill(self, timeout_s=60.0):
        port = real_start(self, timeout_s)
        self.proc.kill()
        self.proc.wait()
        return port

    monkeypatch.setattr(serve.ServerProcess, "start", start_then_kill)
    cfg = config.workload_config("serve-saturated", smoke=True)
    result, witness, errors = run.run_served(cfg, 4, trace=False)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert errors


def test_without_a_checkout_the_run_fails_without_a_result(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "rmsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "engine-churn", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_max_regret_matches_the_library() -> None:
    from repro.core.regret import max_k_regret_ratio_sampled

    rng = np.random.default_rng(0)
    points = rng.random((500, 4))
    result = points[rng.choice(500, 7, replace=False)]
    utilities = np.abs(rng.normal(size=(300, 4)))
    utilities /= np.linalg.norm(utilities, axis=1, keepdims=True)
    expect = max_k_regret_ratio_sampled(points, result, 1,
                                        utilities=utilities)
    assert measure.max_regret_k1(points, result, utilities) == \
        pytest.approx(expect, abs=1e-12)


def test_segments_drop_the_partial_tail() -> None:
    events = [(1.0, 5), (2.0, 5), (3.0, 10), (4.0, 3)]
    assert measure.segments(events, 10, start=0.0) == \
        [(0.0, 2.0, 10), (2.0, 3.0, 10)]
    assert measure.duration_rates([(5, 1.0), (5, 1.0), (4, 1.0)], 10) == \
        [5.0]


def test_host_speed_scales_timings_to_the_reference_probe() -> None:
    speed = measure.HostSpeed()
    speed.at, speed.took = [0.0, 1.0, 2.0], [1e-3, 2e-3, 4e-3]
    ref = measure.PROBE_REF_S
    # Probes inside the interval: their mean; none: interpolated.
    got = speed.factors([0.5, 0.2, 0.0], [1.5, 0.3, 2.0])
    assert got == pytest.approx([ref / 2e-3, ref / 1.25e-3,
                                 ref / (7e-3 / 3)])
    assert measure.HostSpeed().factors([0.0], [1.0]) == pytest.approx([1.0])
    assert speed.probe() > 0 and len(speed.took) == 4


def test_read_factors_use_the_local_median_of_the_read_kernel() -> None:
    ref, half = measure.READ_REF_S, measure.READ_WINDOW // 2
    # A slow stretch longer than half the window moves the factor; a
    # lone spike does not.
    took = [1e-5] * 40 + [2e-5] * 40
    took[5] = 1.0
    got = measure.read_factors(took)
    assert got[:40 - half - 1] == pytest.approx(ref / 1e-5)
    assert got[40 + half + 1:] == pytest.approx(ref / 2e-5)
    assert measure.read_factors([4e-6, 4e-6]) == pytest.approx([2.0, 2.0])
    assert measure.read_kernel() > 0


def test_served_timings_scale_by_the_probes_during_the_passes() -> None:
    cfg = replace(config.workload_config("serve-saturated", smoke=True),
                  segment_ops=2)
    tenant = serve.TenantRecord("t0-p0", 4, requests=[
        ("w", 0.0, 2, serve.Reply(1.0, True, {})),
        ("w", 1.0, 2, serve.Reply(2.0, True, {})),
        ("r", 2.0, 0, serve.Reply(3.0, True, {"stale": False})),
        ("f", 3.0, 0, serve.Reply(4.0, True, {}))])
    rec = serve.PassRecord(setups=[(-1.0, 0.0)], tenants=[tenant],
                           window_start=0.0, window_s=4.0,
                           server_cpu_s=2.0)
    speed = measure.HostSpeed()
    speed.at, speed.took = [0.5, 3.5], [2 * measure.PROBE_REF_S] * 2
    run_ = serve.ServedRun([rec], [], 0.0, speed)
    fast, _ = serve.end_to_end(cfg, run_)
    raw, samples = serve.end_to_end(cfg, run_, corrected=False)
    assert samples == {"setups": 1, "segments": 2,
                       "write_visible_ops": 4, "reads": 1}
    for name in ("setup_s", "write_visible_mean_ms", "read_p50_ms",
                 "cpu_ms_per_op"):
        assert fast[name] == pytest.approx(raw[name] / 2), name
    assert fast["ops_per_s"] == pytest.approx(2 * raw["ops_per_s"])
