"""FD-RMS benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout::

    python3 rmsbench/run.py --workload engine-churn --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` replays the
same traces untraced and then under the span tracer, and prints every
per-layer metric plus the per-layer self-time table. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the run's noise witnesses (host
steal, ``nproc``, BLAS threads, client CPU, server busy share).

The work per run is fixed by the workload and the seed (see
``config.py``); ``--seconds`` is the nominal length of the measured
window and is recorded, not used to cut the run short. Exit status is 0
when the run completed (correct or not), 2 on a usage error or when the
checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".rmsbench"
# Single-threaded BLAS everywhere: steadier on small hosts, and the
# served workload's server runs with the same setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "write_visible_mean_ms": "ms",
    "write_visible_p95_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "fresh_read_ratio": "ratio",
    "mrr_max": "ratio",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"rmsbench: {message}", file=sys.stderr)
    return 2


def _result(attempted: int, failed: int, values: dict[str, float],
            units: dict[str, str]) -> dict:
    return {"correct": failed == 0, "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}


def run_inline(cfg, seed: int, trace: bool) -> tuple[dict, dict, list[str]]:
    import inline
    import layers
    import measure
    from config import trace_seeds
    from tracer import Tracer

    traces = inline.compile_traces(cfg.scenario, cfg.n,
                                   trace_seeds(seed, cfg.traces))
    steal0 = measure.host_steal_s()
    rec = inline.replay_pass(cfg, traces)
    attempted, failed, errors = rec.ops, rec.failed, list(rec.errors)
    witness = {"window_s": rec.window_s, "client_cpu_s": rec.cpu_s,
               "host_probe_ms": rec.speed.summary(),
               "samples": {"setups": len(rec.setups),
                           "calls": len(rec.calls),
                           "write_visible_ops": sum(c[0] for c in rec.calls),
                           "reads": len(rec.calls)}}
    if not trace:
        values = inline.end_to_end(cfg, rec)
        witness["uncorrected"] = inline.end_to_end(cfg, rec, corrected=False)
        witness["host_steal_s"] = measure.host_steal_s() - steal0
        return _result(attempted, failed, values, END_TO_END_UNITS), \
            witness, errors
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = inline.replay_pass(cfg, traces, tracer=tracer)
    finally:
        tracer.unpatch()
    attempted += traced.ops
    failed += traced.failed
    errors += traced.errors
    snap = tracer.snapshot()
    values = {name: 0.0 for name in layers.PER_LAYER_UNITS}
    values.update(layers.layer_metrics(snap))
    values.update({
        "core.set_cover.stabilize_steps_per_op":
            traced.stabilize_steps / max(1, traced.ops),
        "core.fdrms.deltas_per_op": traced.deltas / max(1, traced.ops),
        "core.fdrms.m_final": measure.median(traced.m_final),
        "core.fdrms.result_size": measure.median(traced.result_size),
        "client.cpu_s": rec.cpu_s,
        "host.steal_s": measure.host_steal_s() - steal0,
        "trace.remainder_s": layers.remainder_s(snap, traced.window_s),
    })
    # Both windows at reference host speed, like the inline metrics.
    witness["traced_window_s"] = inline.corrected_window_s(traced)
    witness["untraced_window_s"] = inline.corrected_window_s(rec)
    values["trace.overhead"] = witness["traced_window_s"] \
        / max(1e-9, witness["untraced_window_s"])
    witness["layer_table"] = layers.layer_table(snap, traced.window_s)
    return _result(attempted, failed, values, layers.PER_LAYER_UNITS), \
        witness, errors


def run_served(cfg, seed: int, trace: bool) -> tuple[dict, dict, list[str]]:
    import inline
    import layers
    import measure
    import serve
    from config import trace_seeds
    from repro.core.regret import RegretEvaluator
    from repro.scenarios.replay import EVAL_SEED

    traces = inline.compile_traces(cfg.scenario, cfg.n,
                                   trace_seeds(seed, 2 * cfg.passes))
    steal0 = measure.host_steal_s()
    utilities = RegretEvaluator(traces[0].d, n_samples=cfg.eval_samples,
                                seed=EVAL_SEED).utilities
    refs = [serve.inline_reference(cfg, t, utilities) for t in traces]

    def served(spans_out=None) -> serve.ServedRun:
        speed = measure.HostSpeed()
        passes, peak = serve.serve_passes(cfg, traces, ROOT, OUT_DIR, speed,
                                          spans_out=spans_out)
        run = serve.ServedRun(passes, refs, peak, speed)
        serve.check_digests(run)
        return run

    def tally(run: serve.ServedRun) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        errors = []
        for rec in run.passes:
            for tenant in rec.tenants:
                attempted += tenant.ops
                if tenant.failed:
                    failed += tenant.ops
                    errors += [f"{tenant.tenant}: {e}"
                               for e in tenant.errors[:3]]
        return attempted, failed, errors

    run = served()
    attempted, failed, errors = tally(run)
    values, witness = serve.summarize(cfg, run)
    if not trace:
        witness["host_steal_s"] = measure.host_steal_s() - steal0
        return _result(attempted, failed, values, END_TO_END_UNITS), \
            witness, errors
    spans_out = OUT_DIR / "server-spans.json"
    if spans_out.exists():
        spans_out.unlink()
    traced = served(spans_out)
    more = tally(traced)
    attempted, failed, errors = attempted + more[0], failed + more[1], \
        errors + more[2]
    _, traced_witness = serve.summarize(cfg, traced)
    snap = json.loads(spans_out.read_text(encoding="utf-8"))
    per = {name: 0.0 for name in layers.PER_LAYER_UNITS}
    per.update(layers.layer_metrics(snap))
    per.update(serve.tenant_counters(traced))
    per.update({
        "service.supervisor.queue_wait_ms_p50": snap["queue_wait_ms_p50"],
        "server.wire.bytes_in_per_op": traced_witness["bytes_in_per_op"],
        "server.idle_s": snap["idle_s"],
        "server.busy_share": witness["server_busy_share"],
        "serve.edge_overhead_vs_inline": witness["edge_overhead_vs_inline"],
        "client.cpu_s": witness["client_cpu_s"],
        "host.steal_s": measure.host_steal_s() - steal0,
        "trace.remainder_s": layers.remainder_s(
            snap, snap["lifetime_s"], snap["idle_s"]),
        "trace.overhead": traced_witness["window_s"]
        / max(1e-9, witness["window_s"]),
    })
    witness["layer_table"] = layers.layer_table(snap, snap["lifetime_s"],
                                                snap["idle_s"])
    witness["traced_window_s"] = traced_witness["window_s"]
    witness["untraced_window_s"] = witness["window_s"]
    return _result(attempted, failed, per, layers.PER_LAYER_UNITS), \
        witness, errors


def print_layer_table(rows: list[dict]) -> None:
    total = sum(row["self_s"] for row in rows) or 1.0
    print(f"{'layer':<22} {'calls':>10} {'self_s':>10} {'share':>7}")
    for row in rows:
        print(f"{row['layer']:<22} {row['calls']:>10} "
              f"{row['self_s']:>10.4f} {row['self_s'] / total:>7.1%}")


def main(argv: list[str] | None = None) -> int:
    from config import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no src/repro under {ROOT}: run from a checkout "
                     f"of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    # SIGTERM unwinds like Ctrl-C, so the served workload's finally
    # blocks stop and reap the server process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from config import ServeConfig, workload_config

    cfg = workload_config(args.workload, smoke=args.smoke)
    started = time.perf_counter()
    runner = run_served if isinstance(cfg, ServeConfig) else run_inline
    result, witness, errors = runner(cfg, args.seed, bool(args.trace))
    witness.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nominal_seconds": args.seconds, "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "run_wall_s": time.perf_counter() - started,
        "errors": errors[:10]})
    if args.trace:
        print_layer_table(witness["layer_table"])
        overhead = result["metrics"]["trace.overhead"]["value"]
        print(f"tracing overhead: {overhead:.2f}x (traced window "
              f"{witness['traced_window_s']:.2f}s vs untraced "
              f"{witness['untraced_window_s']:.2f}s)")
    print(json.dumps({"witness": witness}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
