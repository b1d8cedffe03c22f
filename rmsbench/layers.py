"""Which entry points of which layer the traced run wraps, and the
per-layer metrics computed from the resulting span aggregates."""

from __future__ import annotations

import importlib
from typing import Any

from tracer import Tracer

#: (layer, module, class or None for module functions, attributes).
#: Module functions are patched where the caller looks them up.
ENGINE_LAYERS: list[tuple[str, str, str | None, tuple[str, ...]]] = [
    ("api.session", "repro.api.session", "FDRMSSession",
     ("__init__", "apply_batch", "result", "result_points")),
    ("core.fdrms", "repro.core.fdrms", "FDRMS",
     ("__init__", "apply_batch", "insert", "delete", "delete_many",
      "result", "result_points")),
    ("core.topk", "repro.core.topk", "ApproxTopKIndex",
     ("__init__", "begin_insert_run", "begin_delete_run", "insert_log",
      "delete_log", "members_of", "member_row")),
    ("core.topk", "repro.core.topk", "_InsertRun", ("step_log",)),
    ("core.topk", "repro.core.topk", "_DeleteRun", ("step_log",)),
    ("core.set_cover", "repro.core.set_cover", "StableSetCover",
     ("build", "rebuild", "begin_batch", "end_batch", "add_to_set",
      "remove_from_set", "add_elems_to_set", "add_elem_to_sets",
      "remove_elem_from_sets", "add_element", "remove_element",
      "remove_set", "solution")),
    ("core.set_cover", "repro.core.fdrms", None, ("greedy_cover_size",)),
    ("index.kdtree", "repro.index.kdtree", "KDTree",
     ("build", "insert", "insert_many", "delete", "delete_many", "top_k",
      "range_query")),
    ("index.conetree", "repro.index.conetree", "ConeTree",
     ("__init__", "reached_by", "set_threshold", "set_thresholds",
      "activate", "activate_many", "deactivate")),
    ("data.database", "repro.data.database", "Database",
     ("__init__", "insert", "insert_many", "delete", "delete_many",
      "snapshot", "points", "point", "scores", "top_k", "kth_score")),
]

SERVICE_LAYERS: list[tuple[str, str, str | None, tuple[str, ...]]] = [
    ("service.supervisor", "repro.service.supervisor", "SessionSupervisor",
     ("submit", "pump", "drain", "serve_reads")),
    ("service.supervisor", "repro.server.app", None, ("result_digest",)),
    ("server.tenants", "repro.server.tenants", "TenantRegistry",
     ("open", "admit", "evict", "get")),
    ("server.wire", "repro.server.app", None,
     ("read_request", "write_response", "ws_read_message",
      "ws_write_message")),
    ("server.app", "repro.server.app", "ReproServer",
     ("_handle_conn", "_handle_ws", "_dispatch", "_dispatch_ws",
      "_pump_loop")),
]

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER_UNITS: dict[str, str] = {
    "core.topk.bootstrap_s": "s",
    "core.topk.update_self_s": "s",
    "core.topk.calls": "count",
    "core.set_cover.self_s": "s",
    "core.set_cover.stabilize_steps_per_op": "count",
    "index.kdtree.build_s": "s",
    "index.kdtree.self_s": "s",
    "index.conetree.self_s": "s",
    "data.database.self_s": "s",
    "core.fdrms.self_s": "s",
    "core.fdrms.deltas_per_op": "count",
    "core.fdrms.m_final": "count",
    "core.fdrms.result_size": "count",
    "api.session.apply_batch_s": "s",
    "api.session.result_s": "s",
    "api.session.calls": "count",
    "service.supervisor.pump_s": "s",
    "service.supervisor.ops_per_wave": "count",
    "service.supervisor.queue_wait_ms_p50": "ms",
    "service.supervisor.stale_serves": "count",
    "service.supervisor.backpressure_events": "count",
    "server.tenants.admit_s": "s",
    "server.tenants.open_s": "s",
    "server.wire.read_s": "s",
    "server.wire.write_s": "s",
    "server.wire.bytes_in_per_op": "B",
    "server.app.dispatch_self_s": "s",
    "server.idle_s": "s",
    "server.busy_share": "ratio",
    "serve.edge_overhead_vs_inline": "ratio",
    "client.cpu_s": "s",
    "host.steal_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead": "ratio",
}


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Patch every engine layer (and the service layers if asked)."""
    table = ENGINE_LAYERS + (SERVICE_LAYERS if service else [])
    for layer, module_name, owner_name, attrs in table:
        module = importlib.import_module(module_name)
        owner: Any = getattr(module, owner_name) if owner_name else module
        prefix = f"{layer}:{owner_name}." if owner_name else f"{layer}:"
        for attr in attrs:
            tracer.patch(owner, attr, prefix + attr)


def _sum(spans: dict[str, list[float]], prefix: str, col: int) -> float:
    return sum(stat[col] for name, stat in spans.items()
               if name.startswith(prefix))


def layer_metrics(snapshot: dict[str, Any]) -> dict[str, float]:
    """Time metrics of the layers from one tracer snapshot.

    Columns of a span aggregate are ``[calls, inclusive_s, self_s]``.
    """
    spans: dict[str, list[float]] = snapshot["spans"]

    def one(name: str, col: int) -> float:
        return float(spans.get(name, [0, 0.0, 0.0])[col])

    bootstrap = one("core.topk:ApproxTopKIndex.__init__", 2)
    return {
        "core.topk.bootstrap_s": bootstrap,
        "core.topk.update_self_s": _sum(spans, "core.topk:", 2) - bootstrap,
        "core.topk.calls": _sum(spans, "core.topk:", 0),
        "core.set_cover.self_s": _sum(spans, "core.set_cover:", 2),
        "index.kdtree.build_s": one("index.kdtree:KDTree.build", 1),
        "index.kdtree.self_s": _sum(spans, "index.kdtree:", 2),
        "index.conetree.self_s": _sum(spans, "index.conetree:", 2),
        "data.database.self_s": _sum(spans, "data.database:", 2),
        "core.fdrms.self_s": _sum(spans, "core.fdrms:", 2),
        "api.session.apply_batch_s": one(
            "api.session:FDRMSSession.apply_batch", 2),
        "api.session.result_s": one("api.session:FDRMSSession.result", 2),
        "api.session.calls": _sum(spans, "api.session:", 0),
        "service.supervisor.pump_s": (
            one("service.supervisor:SessionSupervisor.pump", 2)
            + one("service.supervisor:SessionSupervisor.drain", 2)),
        "server.tenants.admit_s": one("server.tenants:TenantRegistry.admit",
                                      2),
        "server.tenants.open_s": one("server.tenants:TenantRegistry.open",
                                     1),
        "server.wire.read_s": (one("server.wire:read_request", 1)
                               + one("server.wire:ws_read_message", 1)),
        "server.wire.write_s": (one("server.wire:write_response", 1)
                                + one("server.wire:ws_write_message", 1)),
        "server.app.dispatch_self_s": _sum(spans, "server.app:", 2),
    }


def layer_table(snapshot: dict[str, Any], window_s: float,
                idle_s: float = 0.0) -> list[dict[str, Any]]:
    """Self time per layer plus the remainder row no span covers."""
    spans: dict[str, list[float]] = snapshot["spans"]
    layers: dict[str, list[float]] = {}
    for name, (calls, _incl, self_s) in spans.items():
        row = layers.setdefault(name.split(":", 1)[0], [0, 0.0])
        row[0] += calls
        row[1] += self_s
    rows = [{"layer": layer, "calls": int(calls), "self_s": self_s}
            for layer, (calls, self_s) in sorted(layers.items())]
    if idle_s:
        rows.append({"layer": "server.idle", "calls": 0, "self_s": idle_s})
    rows.append({"layer": "remainder", "calls": 0,
                 "self_s": remainder_s(snapshot, window_s, idle_s)})
    return rows


def remainder_s(snapshot: dict[str, Any], window_s: float,
                idle_s: float = 0.0) -> float:
    return max(0.0, window_s - float(snapshot["top_level_s"]) - idle_s)
