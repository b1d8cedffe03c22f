"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``     dataset statistics (Table I style) for a named dataset.
``run``       replay a dynamic workload with one algorithm; report
              average update time and mrr at snapshots.
``compare``   run several algorithms on the same workload side by side.
``minsize``   print the ε ↦ |Q| trade-off curve.
``algorithms``  list every registered algorithm with its capabilities.
``scenarios``   list the built-in dynamic-workload scenarios.
``replay``    compile a scenario (or all of them) into a deterministic
              operation trace and replay it with one or more algorithms,
              reporting per-op latency percentiles and regret over time.
              ``--supervised`` routes batches through the service-layer
              :class:`~repro.service.SessionSupervisor`; ``--chaos``
              adds seeded runtime fault injection (final state digests
              stay byte-identical to a fault-free run).
``serve-sim`` simulate a multi-tenant service over a scenario trace:
              supervised admission, deadline-bounded per-tenant reads
              (stale-marked under overload), optional chaos; prints an
              SLO summary.
``serve``     run the real multi-tenant network service: an asyncio
              HTTP + WebSocket front-end where each tenant maps to one
              :class:`~repro.service.SessionSupervisor` (admission
              coalescing, quotas, LRU eviction with
              checkpoint-on-evict). Wire protocol: docs/SERVICE.md.
``serve-load`` drive a running ``repro serve`` (or a self-hosted one)
              with concurrent per-tenant scenario traffic and check
              per-tenant result-digest parity against an inline replay
              plus the p99 admission SLO — the CI ``serve-smoke`` gate.

All commands generate their data via :mod:`repro.data` (named datasets:
BB, AQ, CT, Movie, Indep, AntiCor) so no files are required; ``--n``
controls the scale. Algorithm names are resolved through
:mod:`repro.api.registry`, so ``--algorithm`` accepts any registered
name or alias, case-insensitively; unknown names (and datasets) exit
with a one-line error listing the valid choices.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


class CLIError(Exception):
    """User-facing one-line error; ``main`` prints it and returns 2."""


def _dataset_names() -> list[str]:
    from repro.data import DATASET_SPECS
    return sorted(DATASET_SPECS) + ["Indep", "AntiCor"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help="BB | AQ | CT | Movie | Indep | AntiCor")
    p.add_argument("--n", type=int, default=2000, help="dataset size")
    p.add_argument("--seed", type=int, default=0)


def _load(args) -> np.ndarray:
    from repro.data import make_dataset
    try:
        return make_dataset(args.dataset, n=args.n, seed=args.seed)
    except KeyError:
        raise CLIError(f"unknown dataset {args.dataset!r}; valid choices: "
                       f"{', '.join(_dataset_names())}") from None


def _resolve_specs(names: list[str]):
    """Map user-supplied algorithm names to registry specs."""
    from repro.api.registry import UnknownAlgorithmError, get_algorithm
    specs = []
    for name in names:
        try:
            specs.append(get_algorithm(name))
        except UnknownAlgorithmError as exc:
            raise CLIError(str(exc)) from None
    return specs


def cmd_stats(args) -> int:
    from repro.skyline import skyline_indices
    pts = _load(args)
    sky = skyline_indices(pts).size
    print(f"dataset={args.dataset} n={pts.shape[0]} d={pts.shape[1]} "
          f"#skyline={sky} ({sky / pts.shape[0]:.2%})")
    return 0


def cmd_algorithms(args) -> int:
    from repro.api.registry import list_algorithms
    flag_names = ("supports_k", "dynamic", "min_size", "d2_only", "exact",
                  "randomized", "skyline_pool")
    header = (f"{'name':>12} {'key':>12} "
              + " ".join(f"{f:>12}" for f in flag_names))
    print(header)
    print("-" * len(header))
    for spec in list_algorithms():
        flags = spec.capabilities.flags()
        cells = " ".join(f"{'yes' if flags[f] else '-':>12}"
                         for f in flag_names)
        print(f"{spec.display_name:>12} {spec.name:>12} {cells}")
    return 0


def _run_algorithms(args, names: list[str]) -> int:
    from repro.api.registry import CapabilityError
    from repro.bench import adapter_for, run_workload
    from repro.core.regret import RegretEvaluator
    from repro.data import make_paper_workload
    specs = _resolve_specs(names)
    pts = _load(args)
    try:
        for spec in specs:
            spec.check_request(k=args.k, d=pts.shape[1])
    except CapabilityError as exc:
        raise CLIError(str(exc)) from None
    workload = make_paper_workload(pts, seed=args.seed + 1,
                                   n_snapshots=args.snapshots)
    evaluator = RegretEvaluator(pts.shape[1], n_samples=args.eval_samples,
                                seed=args.seed + 2)
    print(f"workload: {workload.n_operations} ops on {args.dataset} "
          f"(n={pts.shape[0]}, d={pts.shape[1]}), RMS(k={args.k}, r={args.r})")
    print(f"{'algorithm':>12} {'avg update (ms)':>16} {'mean mrr':>10} "
          f"{'max mrr':>10}")
    results = []
    for spec in specs:
        # One shared option bag; adapter_for routes each key to the
        # algorithms that understand it (eps/m_max reach FD-RMS only).
        adapter = adapter_for(spec.name, workload.initial, args.k, args.r,
                              seed=args.seed + 3, eps=args.eps,
                              m_max=args.m_max)
        res = run_workload(adapter, workload, evaluator, args.k)
        results.append(res)
        print(f"{res.algorithm:>12} {res.avg_update_ms:>16.3f} "
              f"{res.mean_mrr:>10.4f} {res.max_mrr:>10.4f}")
    report_path = getattr(args, "report", None)
    if report_path:
        from repro.bench.report import full_report
        context = {"dataset": args.dataset, "n": pts.shape[0],
                   "d": pts.shape[1], "k": args.k, "r": args.r,
                   "operations": workload.n_operations,
                   "evaluation utilities": args.eval_samples}
        text = full_report(results, title=f"k-RMS comparison on "
                                          f"{args.dataset}", context=context)
        from pathlib import Path
        Path(report_path).write_text(text)
        print(f"\nmarkdown report written to {report_path}")
    return 0


def cmd_run(args) -> int:
    return _run_algorithms(args, [args.algorithm])


def cmd_compare(args) -> int:
    return _run_algorithms(args, args.algorithms)


def cmd_scenarios(args) -> int:
    from repro.scenarios import list_scenarios
    print(f"{'name':>16} {'dataset':>8} {'n':>6} {'arrival':>16} "
          f"{'snaps':>5}  summary")
    for sc in list_scenarios():
        summary = (sc.summary if len(sc.summary) <= 60
                   else sc.summary[:57] + "...")
        print(f"{sc.name:>16} {sc.dataset:>8} {sc.n:>6} {sc.arrival:>16} "
              f"{sc.n_snapshots:>5}  {summary}")
    return 0


def _service_options(scenario, args):
    """Build ServiceOptions from scenario hints + CLI chaos flags."""
    from repro.service.chaos import parse_chaos
    from repro.service.driver import ServiceOptions
    from repro.service.policy import SupervisorConfig
    hints = dict(scenario.service)
    for item in getattr(args, "service_hints", None) or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise CLIError(f"bad --service-hint {item!r}: "
                           "expected KEY=VALUE")
        try:
            hints[key] = json.loads(value)
        except json.JSONDecodeError:
            raise CLIError(f"bad --service-hint value {value!r} "
                           f"for {key!r}") from None
    read_every = int(hints.pop("read_every", 0))
    tenants = int(hints.pop("tenants", 4))
    if getattr(args, "tenants", None) is not None:
        tenants = int(args.tenants)
    try:
        config = SupervisorConfig(**hints)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"bad service hints for scenario "
                       f"{scenario.name!r}: {exc}") from None
    chaos = None
    if getattr(args, "chaos", None):
        try:
            chaos = parse_chaos(args.chaos, seed=args.chaos_seed)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    return ServiceOptions(config=config, chaos=chaos,
                          read_every=read_every, tenants=tenants)


def _print_service_summary(report: dict) -> None:
    adm = report.get("admission_latency_ms", {})
    line = (f"service: waves={report.get('waves', 0)} "
            f"admission p50={adm.get('p50', 0.0):.3f}ms "
            f"p99={adm.get('p99', 0.0):.3f}ms "
            f"stale={report.get('stale_serves', 0)} "
            f"fresh={report.get('fresh_serves', 0)} "
            f"retries={report.get('retries', 0)} "
            f"breaker_trips={report.get('breaker', {}).get('trips', 0)}")
    print(line)
    for tag, tally in (report.get("per_tenant") or {}).items():
        print(f"  {tag}: reads={tally['reads']} "
              f"fresh={tally['fresh']} stale={tally['stale']} "
              f"max_lag_ops={tally['max_lag_ops']}")
    if "chaos" in report:
        injected = ", ".join(f"{key}={value}" for key, value
                             in sorted(report["chaos"].items()) if value)
        print(f"chaos [{','.join(report.get('chaos_active', []))}]: "
              f"{injected or 'no faults drawn'}")
    if "final_state_digest" in report:
        print(f"final state digest: {report['final_state_digest']}")
    if "result_digest" in report:
        print(f"result digest: {report['result_digest']}")


def cmd_replay(args) -> int:
    from pathlib import Path

    from repro.api.registry import CapabilityError
    from repro.core.regret import RegretEvaluator
    from repro.scenarios import (
        UnknownArrivalError,
        UnknownScenarioError,
        get_scenario,
        hash_key,
        replay_trace,
        save_trace,
        scenario_names,
    )
    from repro.scenarios.replay import EVAL_SEED, floor_r

    replay_all = args.scenario.strip().lower() == "all"
    names = scenario_names() if replay_all else [args.scenario]
    specs = _resolve_specs(args.algorithms)
    options = {"eps": args.eps, "m_max": args.m_max}
    if args.workers is not None:
        # Execution backend only — replay digests are worker-count
        # invariant, which the CI scenario matrix checks explicitly.
        options["parallel"] = args.workers
    expected = None
    if args.expect_hashes:
        expected = json.loads(Path(args.expect_hashes).read_text())
    payload = []
    for name in names:
        try:
            scenario = get_scenario(name)
            trace = scenario.compile(seed=args.seed, n=args.n)
        except (UnknownScenarioError, UnknownArrivalError) as exc:
            raise CLIError(str(exc)) from None
        n_used = args.n if args.n is not None else scenario.n
        try:
            for spec in specs:
                spec.check_request(k=args.k, d=trace.d)
        except CapabilityError as exc:
            raise CLIError(str(exc)) from None
        if args.check_determinism:
            again = scenario.compile(seed=args.seed, n=args.n)
            if again.content_hash != trace.content_hash:
                raise CLIError(
                    f"scenario {scenario.name!r} compiled to different "
                    f"traces for seed {args.seed}: {trace.content_hash} "
                    f"vs {again.content_hash}")
        if expected is not None:
            key = hash_key(scenario.name, n_used, args.seed)
            want = expected.get(key)
            if want is None:
                raise CLIError(f"no expected hash for {key!r} in "
                               f"{args.expect_hashes}")
            if want != trace.content_hash:
                raise CLIError(f"trace hash drift for {key!r}: expected "
                               f"{want}, compiled {trace.content_hash}")
        print(f"scenario {scenario.name}: {trace.n_operations} ops on "
              f"{scenario.dataset} (n={n_used}, d={trace.d}), "
              f"{len(trace.workload.snapshots)} snapshots, "
              f"{trace.content_hash}")
        if args.trace_out:
            if replay_all:
                out_dir = Path(args.trace_out)
                out_dir.mkdir(parents=True, exist_ok=True)
                out_path = out_dir / f"{scenario.name}.jsonl"
            else:
                out_path = Path(args.trace_out)
            save_trace(trace, out_path)
            print(f"trace written to {out_path}")
        evaluator = RegretEvaluator(trace.d, n_samples=args.eval_samples,
                                    seed=EVAL_SEED)
        r_eff = floor_r(args.r, trace.d)
        if r_eff != args.r:
            print(f"(r raised to {r_eff} = d for this scenario)")
        service = None
        if args.supervised or args.chaos:
            service = _service_options(scenario, args)
        print(f"{'algorithm':>12} {'p50 ms':>9} {'p99 ms':>9} "
              f"{'mean mrr':>9} {'max mrr':>9} {'final |Q|':>9}")
        for spec in specs:
            res = replay_trace(trace, spec.name, r=r_eff, k=args.k,
                               seed=args.seed, evaluator=evaluator,
                               options=options, service=service)
            if args.check_determinism:
                res2 = replay_trace(trace, spec.name, r=r_eff, k=args.k,
                                    seed=args.seed, evaluator=evaluator,
                                    options=options)
                if res2.determinism_digest() != res.determinism_digest():
                    # With --supervised, res2 is a *plain* replay: this
                    # doubles as the supervised-vs-inline parity check.
                    mode = ("supervised replay diverged from the plain "
                            "replay" if service is not None
                            else "replay is not deterministic")
                    raise CLIError(f"{scenario.name!r} with "
                                   f"{spec.display_name}: {mode}")
            lat = res.latency_percentiles()
            final_q = res.snapshots[-1].result_size if res.snapshots else 0
            print(f"{res.algorithm:>12} {lat['p50']:>9.3f} "
                  f"{lat['p99']:>9.3f} {res.mean_mrr:>9.4f} "
                  f"{res.max_mrr:>9.4f} {final_q:>9}")
            if res.service:
                _print_service_summary(res.service)
            payload.append(res.to_dict())
    if args.check_determinism:
        print("determinism OK: stable trace hashes and replay digests")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"metrics written to {args.json_out}")
    return 0


def cmd_serve_sim(args) -> int:
    from pathlib import Path

    from repro.scenarios import (
        UnknownArrivalError,
        UnknownScenarioError,
        get_scenario,
    )
    from repro.scenarios.replay import floor_r
    from repro.service.driver import simulate_service
    try:
        scenario = get_scenario(args.scenario)
        trace = scenario.compile(seed=args.seed, n=args.n)
    except (UnknownScenarioError, UnknownArrivalError) as exc:
        raise CLIError(str(exc)) from None
    service = _service_options(scenario, args)
    r_eff = floor_r(args.r, trace.d)
    options = {"eps": args.eps, "m_max": args.m_max}
    if args.workers is not None:
        options["parallel"] = args.workers
    summary = simulate_service(trace, args.algorithm, r=r_eff, k=args.k,
                               seed=args.seed, options=options,
                               service=service)
    print(f"serve-sim {summary['scenario']} ({summary['algorithm']}): "
          f"{summary['n_operations']} ops over {summary['ticks']} ticks, "
          f"{summary['tenants']} tenants")
    print(f"stale tenant serves: {summary['stale_tenant_serves']} "
          f"(result |Q| = {summary['result_size']})")
    _print_service_summary(summary["service"])
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"summary written to {args.json_out}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.server import ReproServer, TenantQuota
    quota = TenantQuota(max_ops_per_request=args.max_ops_per_request,
                        max_pending_ops=args.max_pending_ops,
                        max_tuples=args.max_tuples)
    server = ReproServer(host=args.host, port=args.port,
                         max_tenants=args.max_tenants, quota=quota,
                         checkpoint_root=args.checkpoint_root)

    async def _run() -> None:
        host, port = await server.start()
        print(f"repro serve listening on http://{host}:{port} "
              f"(max_tenants={args.max_tenants}, "
              f"checkpoint_root={args.checkpoint_root}); Ctrl-C stops",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: shut down")
    for tenant_id, error in server.registry.drain_errors:
        print(f"repro serve: tenant {tenant_id!r}: drain failed at "
              f"shutdown, admitted ops may be lost: {error}", file=sys.stderr)
    return 0


def _print_load_summary(summary: dict) -> None:
    print(f"serve-load {summary['scenario']}: {summary['tenants']} "
          f"tenants, n={summary['n']}, seed={summary['seed']}, "
          f"wall {summary['wall_seconds']:.2f}s")
    print(f"{'tenant':>10} {'wire':>5} {'ops':>6} {'reqs':>6} "
          f"{'stale':>6} {'fresh':>6} {'maxlag':>7} {'p99 ms':>8} "
          f"{'parity':>7}")
    for row in summary["per_tenant"]:
        adm = row.get("admission_ms", {}) or {}
        parity = row.get("parity_ok")
        parity_s = "-" if parity is None else ("ok" if parity else "FAIL")
        print(f"{row['tenant']:>10} {row['transport']:>5} "
              f"{row['ops']:>6} {row['requests']:>6} "
              f"{row['stale_reads']:>6} {row['fresh_reads']:>6} "
              f"{row['max_lag_ops']:>7} "
              f"{float(adm.get('p99', 0.0)):>8.3f} {parity_s:>7}")
    registry = summary.get("server", {}).get("registry", {})
    counters = registry.get("counters", {})
    print(f"registry: opened={counters.get('opened', 0)} "
          f"evicted={counters.get('evicted', 0)} "
          f"quota_rejections={counters.get('quota_rejections', 0)}")


def cmd_serve_load(args) -> int:
    import asyncio
    from pathlib import Path

    from repro.scenarios import UnknownScenarioError
    from repro.server import ReproServer
    from repro.server.loadgen import run_load, wait_ready

    host, port = "127.0.0.1", 0
    if args.connect:
        host, sep, port_raw = args.connect.rpartition(":")
        try:
            port = int(port_raw)
        except ValueError:
            port = -1
        if not sep or not host or port <= 0:
            raise CLIError(f"bad --connect {args.connect!r}: "
                           "expected HOST:PORT")

    async def _run() -> dict:
        server = None
        if args.connect:
            await wait_ready(host, port, timeout_s=args.connect_timeout)
            bound = (host, port)
        else:
            server = ReproServer(host="127.0.0.1", port=0,
                                 max_tenants=max(4, args.tenants + 1))
            bound = await server.start()
        try:
            return await run_load(
                bound[0], bound[1], args.scenario, tenants=args.tenants,
                n=args.n, seed=args.seed, r=args.r, k=args.k,
                eps=args.eps, m_max=args.m_max,
                read_every=args.read_every, deadline_ms=args.deadline_ms,
                chaos_tenant=args.chaos_tenant,
                chaos_spec=args.chaos or "all",
                chaos_seed=args.chaos_seed,
                check_parity=not args.no_parity)
        finally:
            if server is not None:
                await server.close()

    try:
        summary = asyncio.run(_run())
    except UnknownScenarioError as exc:
        raise CLIError(str(exc)) from None
    except TimeoutError as exc:
        raise CLIError(str(exc)) from None
    _print_load_summary(summary)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(summary, indent=2)
                                       + "\n")
        print(f"summary written to {args.json_out}")
    failed = False
    if summary["parity_checked"] and not summary["parity_ok"]:
        print("FAIL: served result digests diverged from the inline "
              "replay", file=sys.stderr)
        failed = True
    if args.slo_p99_ms is not None and \
            summary["admission_p99_ms"] > args.slo_p99_ms:
        print(f"FAIL: admission p99 {summary['admission_p99_ms']:.3f}ms "
              f"exceeds the {args.slo_p99_ms}ms SLO", file=sys.stderr)
        failed = True
    if not failed and summary["parity_checked"]:
        print("parity OK: every tenant's served digest matches its "
              "inline replay")
    return 1 if failed else 0


def cmd_snapshot_save(args) -> int:
    from repro.api import open_session
    from repro.scenarios import (
        UnknownArrivalError,
        UnknownScenarioError,
        get_scenario,
    )
    from repro.scenarios.replay import floor_r
    try:
        scenario = get_scenario(args.scenario)
        trace = scenario.compile(seed=args.seed, n=args.n)
    except (UnknownScenarioError, UnknownArrivalError) as exc:
        raise CLIError(str(exc)) from None
    r_eff = floor_r(args.r, trace.d)
    session = open_session(trace.workload.initial, r_eff, args.k,
                           algo="fd-rms", seed=args.seed, eps=args.eps,
                           m_max=args.m_max, wal=args.wal)
    session.apply_batch(list(trace.workload.operations))
    manifest = session.checkpoint(args.out)
    session.close()
    print(f"checkpoint written to {args.out} "
          f"({trace.n_operations} ops applied)")
    print(f"state digest: {manifest['state_digest']}")
    print(f"wal position: {manifest['wal_position']}")
    return 0


def cmd_snapshot_load(args) -> int:
    from repro.persist import CheckpointError, WALError, restore_engine
    try:
        engine, info = restore_engine(args.directory, wal=args.wal)
    except (CheckpointError, WALError) as exc:
        raise CLIError(str(exc)) from None
    print(f"restored: k={engine.k} r={engine.r} eps={engine.eps} "
          f"m_max={engine.m_max} n={len(engine.database)}")
    print(f"replayed ops: {info['replayed_ops']}")
    print(f"state digest: {info['state_digest']}")
    return 0


def cmd_snapshot_verify(args) -> int:
    from repro.persist import CheckpointError, verify_checkpoint
    try:
        manifest = verify_checkpoint(args.directory)
    except CheckpointError as exc:
        raise CLIError(str(exc)) from None
    print(f"checkpoint OK: {len(manifest['arrays'])} arrays verified")
    print(f"state digest: {manifest['state_digest']}")
    return 0


def cmd_minsize(args) -> int:
    from repro.core.minsize import min_size_curve
    pts = _load(args)
    eps_values = [float(x) for x in args.eps_values.split(",")]
    curve = min_size_curve(pts, eps_values, k=args.k,
                           n_samples=args.eval_samples, seed=args.seed + 2)
    print(f"{'eps':>8} {'|Q|':>6}")
    for eps in sorted(curve, reverse=True):
        print(f"{eps:>8.4f} {curve[eps]:>6}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FD-RMS reproduction CLI (ICDE 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset statistics (Table I)")
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_algos = sub.add_parser(
        "algorithms", help="list registered algorithms and capabilities")
    p_algos.set_defaults(func=cmd_algorithms)

    def add_run_opts(p):
        _add_common(p)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--r", type=int, default=20)
        p.add_argument("--eps", type=float, default=0.02,
                       help="FD-RMS top-k approximation factor")
        p.add_argument("--m-max", type=int, default=1024, dest="m_max")
        p.add_argument("--snapshots", type=int, default=5)
        p.add_argument("--eval-samples", type=int, default=10_000,
                       dest="eval_samples")
        p.add_argument("--report", default=None,
                       help="write a markdown report to this path")

    p_run = sub.add_parser("run", help="replay one algorithm on a workload")
    add_run_opts(p_run)
    p_run.add_argument("--algorithm", default="FD-RMS",
                       help="any registered algorithm or alias "
                            "(see `repro algorithms`)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare algorithms side by side")
    add_run_opts(p_cmp)
    p_cmp.add_argument("--algorithms", nargs="+",
                       default=["FD-RMS", "Sphere", "HS"])
    p_cmp.set_defaults(func=cmd_compare)

    p_sc = sub.add_parser(
        "scenarios", help="list the built-in dynamic-workload scenarios")
    p_sc.set_defaults(func=cmd_scenarios)

    p_rp = sub.add_parser(
        "replay", help="compile a scenario to a trace and replay it")
    p_rp.add_argument("scenario",
                      help="scenario name (see `repro scenarios`) or 'all'")
    p_rp.add_argument("--algorithms", nargs="+", default=["FD-RMS"],
                      help="algorithms to replay the trace with")
    p_rp.add_argument("--n", type=int, default=None,
                      help="dataset size (default: the scenario's)")
    p_rp.add_argument("--seed", type=int, default=0)
    p_rp.add_argument("--k", type=int, default=1)
    p_rp.add_argument("--r", type=int, default=10)
    p_rp.add_argument("--eps", type=float, default=0.1,
                      help="FD-RMS top-k approximation factor")
    p_rp.add_argument("--m-max", type=int, default=128, dest="m_max")
    p_rp.add_argument("--eval-samples", type=int, default=2000,
                      dest="eval_samples")
    p_rp.add_argument("--trace-out", default=None,
                      help="write the compiled trace(s) as JSONL here "
                           "(a directory when replaying 'all')")
    p_rp.add_argument("--json", default=None, dest="json_out",
                      help="write replay metrics as JSON to this path")
    p_rp.add_argument("--workers", type=int, default=None,
                      help="FD-RMS execution backend: 0/1 = serial "
                           "canonical-block backend, N >= 2 = N "
                           "shared-memory workers (digests are "
                           "worker-count invariant); default: inline "
                           "engine")
    p_rp.add_argument("--check-determinism", action="store_true",
                      help="compile and replay twice; fail on any drift "
                           "(with --supervised the second replay is "
                           "plain, asserting supervised parity)")
    p_rp.add_argument("--expect-hashes", default=None,
                      help="JSON file of expected trace hashes "
                           "(fails on drift)")
    p_rp.add_argument("--supervised", action="store_true",
                      help="route batches through the service-layer "
                           "supervisor (admission queue, waves, "
                           "deadlines; scenario service hints apply)")
    p_rp.add_argument("--chaos", default=None,
                      help="runtime fault injection spec, e.g. 'all' or "
                           "'latency:rate=0.5,pool-kill:at=8,transient'"
                           " (implies --supervised)")
    p_rp.add_argument("--chaos-seed", type=int, default=0,
                      dest="chaos_seed")
    p_rp.add_argument("--service-hint", action="append", default=None,
                      dest="service_hints", metavar="KEY=VALUE",
                      help="override a scenario service hint (e.g. "
                           "--service-hint read_deadline_s=0); "
                           "repeatable")
    p_rp.set_defaults(func=cmd_replay, tenants=None)

    p_sim = sub.add_parser(
        "serve-sim",
        help="simulate a multi-tenant service over a scenario trace")
    p_sim.add_argument("scenario",
                       help="scenario name (see `repro scenarios`)")
    p_sim.add_argument("--algorithm", default="FD-RMS")
    p_sim.add_argument("--n", type=int, default=None,
                       help="dataset size (default: the scenario's)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--k", type=int, default=1)
    p_sim.add_argument("--r", type=int, default=10)
    p_sim.add_argument("--eps", type=float, default=0.1)
    p_sim.add_argument("--m-max", type=int, default=128, dest="m_max")
    p_sim.add_argument("--tenants", type=int, default=None,
                       help="simulated read tenants per tick "
                            "(default: the scenario's service hint)")
    p_sim.add_argument("--workers", type=int, default=None,
                       help="FD-RMS execution backend worker count")
    p_sim.add_argument("--chaos", default=None,
                       help="runtime fault injection spec (see replay)")
    p_sim.add_argument("--chaos-seed", type=int, default=0,
                       dest="chaos_seed")
    p_sim.add_argument("--service-hint", action="append", default=None,
                       dest="service_hints", metavar="KEY=VALUE",
                       help="override a scenario service hint; "
                            "repeatable")
    p_sim.add_argument("--json", default=None, dest="json_out",
                       help="write the SLO summary as JSON to this path")
    p_sim.set_defaults(func=cmd_serve_sim)

    p_srv = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP+WebSocket service "
             "(wire protocol: docs/SERVICE.md)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 = ephemeral, printed at boot)")
    p_srv.add_argument("--max-tenants", type=int, default=8,
                       dest="max_tenants",
                       help="LRU cap on concurrently open sessions")
    p_srv.add_argument("--checkpoint-root", default=None,
                       dest="checkpoint_root",
                       help="directory for per-tenant checkpoints "
                            "(enables checkpoint-on-evict and resume)")
    p_srv.add_argument("--max-ops-per-request", type=int, default=4096,
                       dest="max_ops_per_request")
    p_srv.add_argument("--max-pending-ops", type=int, default=65536,
                       dest="max_pending_ops")
    p_srv.add_argument("--max-tuples", type=int, default=1_000_000,
                       dest="max_tuples")
    p_srv.set_defaults(func=cmd_serve)

    p_sl_load = sub.add_parser(
        "serve-load",
        help="drive concurrent tenant traffic against repro serve and "
             "check digest parity vs an inline replay")
    p_sl_load.add_argument("scenario",
                           help="scenario name (see `repro scenarios`)")
    p_sl_load.add_argument("--connect", default=None, metavar="HOST:PORT",
                           help="target a running server (default: boot "
                                "an in-process one on an ephemeral port)")
    p_sl_load.add_argument("--connect-timeout", type=float, default=20.0,
                           dest="connect_timeout",
                           help="seconds to wait for /healthz readiness")
    p_sl_load.add_argument("--tenants", type=int, default=2)
    p_sl_load.add_argument("--n", type=int, default=None,
                           help="dataset size (default: the scenario's)")
    p_sl_load.add_argument("--seed", type=int, default=0,
                           help="base seed; tenant i compiles its trace "
                                "with seed+i")
    p_sl_load.add_argument("--k", type=int, default=1)
    p_sl_load.add_argument("--r", type=int, default=10)
    p_sl_load.add_argument("--eps", type=float, default=0.1)
    p_sl_load.add_argument("--m-max", type=int, default=128,
                           dest="m_max")
    p_sl_load.add_argument("--read-every", type=int, default=4,
                           dest="read_every",
                           help="issue a deadline-bounded read every N "
                                "write requests (0 = none)")
    p_sl_load.add_argument("--deadline-ms", type=float, default=2.0,
                           dest="deadline_ms",
                           help="read deadline; later reads may be "
                                "served stale")
    p_sl_load.add_argument("--chaos-tenant", type=int, default=None,
                           dest="chaos_tenant",
                           help="open this tenant index with server-side "
                                "chaos injection (isolation check)")
    p_sl_load.add_argument("--chaos", default=None,
                           help="chaos spec for --chaos-tenant "
                                "(default 'all')")
    p_sl_load.add_argument("--chaos-seed", type=int, default=1,
                           dest="chaos_seed")
    p_sl_load.add_argument("--no-parity", action="store_true",
                           dest="no_parity",
                           help="skip the inline-replay digest "
                                "comparison")
    p_sl_load.add_argument("--slo-p99-ms", type=float, default=None,
                           dest="slo_p99_ms",
                           help="fail (exit 1) when any tenant's p99 "
                                "admission latency exceeds this")
    p_sl_load.add_argument("--json", default=None, dest="json_out",
                           help="write the load summary as JSON here")
    p_sl_load.set_defaults(func=cmd_serve_load)

    p_snap = sub.add_parser(
        "snapshot", help="save, restore, or verify engine checkpoints")
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True)

    p_ss = snap_sub.add_parser(
        "save", help="run a scenario through FD-RMS and checkpoint it")
    p_ss.add_argument("scenario",
                      help="scenario name (see `repro scenarios`)")
    p_ss.add_argument("--out", required=True,
                      help="checkpoint directory to write")
    p_ss.add_argument("--wal", default=None,
                      help="also keep a write-ahead log in this directory")
    p_ss.add_argument("--n", type=int, default=None,
                      help="dataset size (default: the scenario's)")
    p_ss.add_argument("--seed", type=int, default=0)
    p_ss.add_argument("--k", type=int, default=1)
    p_ss.add_argument("--r", type=int, default=10)
    p_ss.add_argument("--eps", type=float, default=0.1)
    p_ss.add_argument("--m-max", type=int, default=128, dest="m_max")
    p_ss.set_defaults(func=cmd_snapshot_save)

    p_sl = snap_sub.add_parser(
        "load", help="restore a checkpoint (rolling a WAL forward)")
    p_sl.add_argument("directory", help="checkpoint directory")
    p_sl.add_argument("--wal", default=None,
                      help="replay this write-ahead log past the "
                           "checkpoint position")
    p_sl.set_defaults(func=cmd_snapshot_load)

    p_sv = snap_sub.add_parser(
        "verify", help="fully verify a checkpoint (digests + restore)")
    p_sv.add_argument("directory", help="checkpoint directory")
    p_sv.set_defaults(func=cmd_snapshot_verify)

    p_ms = sub.add_parser("minsize", help="epsilon vs |Q| trade-off curve")
    _add_common(p_ms)
    p_ms.add_argument("--k", type=int, default=1)
    p_ms.add_argument("--eps-values", default="0.2,0.1,0.05,0.02,0.01",
                      dest="eps_values")
    p_ms.add_argument("--eval-samples", type=int, default=3000,
                      dest="eval_samples")
    p_ms.set_defaults(func=cmd_minsize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
