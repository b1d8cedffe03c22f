"""Tenant registry: one supervised session per tenant, with quotas.

Each tenant of the network service owns exactly one
:class:`~repro.service.SessionSupervisor` over one streaming session.
The registry enforces:

* **admission quotas** (:class:`TenantQuota`) at the network edge —
  oversized requests and writes that would exceed the per-tenant
  pending-ops budget are rejected with ``quota_exceeded`` *before*
  touching the supervisor, so one tenant cannot monopolize the
  admission queue (the supervisor's inline-drain backpressure remains
  the second line of defense);
* **an LRU session cap** (``max_tenants``) — opening tenant N+1 evicts
  the least-recently-used tenant: its queue is drained, its session
  checkpointed to ``<checkpoint_root>/<tenant_id>`` (FD-RMS sessions
  only — the recompute baselines have no durable form), and closed.
  The evicted tenant can come back with ``{"resume": true}``, which
  restores from that checkpoint through the verified recovery path
  (any detected fault degrades to a cold start, per PR 7 semantics).

The registry is transport-agnostic and synchronous; the asyncio app
serializes access per tenant with a lock, so no method here awaits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.api.session import BatchValidationError, Session, open_session
from repro.server.protocol import ServiceError, get_field, require_field
from repro.service.chaos import ChaosInjector, parse_chaos
from repro.service.clock import Clock, MonotonicClock
from repro.service.policy import SupervisorConfig
from repro.service.supervisor import SessionSupervisor

__all__ = ["Tenant", "TenantQuota", "TenantRegistry"]

#: Tenant ids must be path- and log-safe (they name checkpoint dirs).
_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits, enforced at the network edge."""

    #: Largest single batch/delete request, in operations.
    max_ops_per_request: int = 4096
    #: Admitted-but-unapplied operations a tenant may have queued; a
    #: write pushing past this is shed with ``quota_exceeded`` (HTTP
    #: 429) instead of growing admission latency for everyone.
    max_pending_ops: int = 65536
    #: Alive tuples + queued inserts; caps per-tenant memory.
    max_tuples: int = 1_000_000

    def to_dict(self) -> dict[str, int]:
        return {"max_ops_per_request": self.max_ops_per_request,
                "max_pending_ops": self.max_pending_ops,
                "max_tuples": self.max_tuples}


class Tenant:
    """One tenant's live state: session + supervisor (+ chaos)."""

    def __init__(self, tenant_id: str, session: Session,
                 supervisor: SessionSupervisor, *,
                 injector: ChaosInjector | None = None,
                 checkpoint_dir: Path | None = None) -> None:
        self.tenant_id = tenant_id
        self.session = session
        self.supervisor = supervisor
        self.injector = injector
        self.checkpoint_dir = checkpoint_dir
        #: Coalescing pump bookkeeping, owned by the asyncio app layer.
        self.lock: Any = None
        self.pump_task: Any = None
        #: Set by evict/close_all. Handlers that awaited ``lock`` while
        #: an evict ran must re-check this before touching the
        #: supervisor — the session behind it is gone.
        self.closed = False
        #: Filled by the registry at open time (e.g. which tenants the
        #: open evicted); echoed in the open response.
        self.opened_info: dict[str, Any] = {}

    def stats(self) -> dict[str, Any]:
        """JSON-ready tenant stats: supervisor counters + engine stats."""
        out: dict[str, Any] = {
            "tenant": self.tenant_id,
            "alive_tuples": len(self.session.db),
            "service": self.supervisor.counters(),
            "session": _jsonify(self.session.stats()),
        }
        if self.injector is not None:
            out["chaos"] = dict(self.injector.counters)
        return out


def _jsonify(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays for json.dumps."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _build_points(payload: Mapping[str, Any]) -> np.ndarray:
    """Initial points from an explicit matrix or a named dataset."""
    if "points" in payload:
        points = get_field(payload, "points", list)
        try:
            matrix = np.asarray(points, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ServiceError("bad_request",
                               f"'points' is not numeric: {exc}") from None
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ServiceError(
                "bad_request",
                f"'points' must be a non-empty 2-D matrix, "
                f"got shape {matrix.shape}")
        return matrix
    if "dataset" in payload:
        from repro.data import make_dataset
        name = get_field(payload, "dataset", str)
        n = require_field(payload, "n", int)
        seed = get_field(payload, "data_seed", int, 0)
        try:
            return make_dataset(name, n=n, seed=seed)
        except (KeyError, ValueError) as exc:
            raise ServiceError("bad_request",
                               f"bad dataset spec: {exc}") from None
    raise ServiceError("bad_request",
                       "open requires either 'points' or 'dataset'+'n'")


class TenantRegistry:
    """All live tenants, LRU-ordered, quota- and cap-enforced."""

    def __init__(self, *, max_tenants: int = 8,
                 quota: TenantQuota | None = None,
                 checkpoint_root: Any = None,
                 clock: Clock | None = None) -> None:
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        self.max_tenants = max_tenants
        self.quota = quota or TenantQuota()
        self.checkpoint_root = (Path(checkpoint_root)
                                if checkpoint_root is not None else None)
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._tenants: "OrderedDict[str, Tenant]" = OrderedDict()
        self.counters: dict[str, int] = {
            "opened": 0, "resumed": 0, "evicted": 0,
            "evict_checkpoints": 0, "closed": 0, "quota_rejections": 0,
            "drain_failures": 0,
        }
        #: ``(tenant_id, repr(exc))`` of every drain that failed in
        #: :meth:`close_all`: admitted ops that shutdown could not apply.
        self.drain_errors: list[tuple[str, str]] = []

    # -- lookup --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def ids(self) -> list[str]:
        """Tenant ids, least-recently-used first."""
        return list(self._tenants)

    def get(self, tenant_id: str) -> Tenant:
        """Fetch a tenant and mark it most-recently-used."""
        tenant = self.peek(tenant_id)
        self._tenants.move_to_end(tenant_id)
        return tenant

    def peek(self, tenant_id: str) -> Tenant:
        """Fetch a tenant *without* touching LRU recency (stats paths)."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise ServiceError(
                "unknown_tenant", f"tenant {tenant_id!r} is not open",
                {"tenant": tenant_id, "open_tenants": len(self._tenants)})
        return tenant

    # -- lifecycle -----------------------------------------------------
    def _checkpoint_dir(self, tenant_id: str) -> Path | None:
        if self.checkpoint_root is None:
            return None
        directory = self.checkpoint_root / tenant_id
        # Defense in depth behind id validation: checkpoint/evict writes
        # must never land outside the configured root, no matter what
        # id slipped through ('.', '..', or a future validation bug).
        root = self.checkpoint_root.resolve()
        if root not in directory.resolve().parents:
            raise ServiceError(
                "bad_request",
                f"tenant id {tenant_id!r} escapes the checkpoint root")
        return directory

    def open(self, tenant_id: str, payload: Mapping[str, Any]) -> Tenant:
        """Open (or resume) one tenant from its ``open`` payload.

        Evicts the least-recently-used tenant first when the registry
        is full — the returned tenant is always registered and MRU.
        """
        if not tenant_id or len(tenant_id) > 64 or \
                not set(tenant_id) <= _ID_CHARS or \
                tenant_id in (".", ".."):
            raise ServiceError(
                "bad_request",
                f"tenant id {tenant_id!r} must be 1-64 characters from "
                f"[A-Za-z0-9._-], excluding the path components "
                f"'.' and '..'")
        if tenant_id in self._tenants:
            raise ServiceError(
                "tenant_exists", f"tenant {tenant_id!r} is already open",
                {"tenant": tenant_id})
        evicted = []
        while len(self._tenants) >= self.max_tenants:
            lru_id = next(iter(self._tenants))
            evicted.append(self.evict(lru_id))
        tenant = self._build_tenant(tenant_id, payload)
        self._tenants[tenant_id] = tenant
        self.counters["opened"] += 1
        tenant.opened_info = {"evicted": [e["tenant"] for e in evicted]}
        return tenant

    def _build_tenant(self, tenant_id: str,
                      payload: Mapping[str, Any]) -> Tenant:
        points = _build_points(payload)
        r = require_field(payload, "r", int)
        k = get_field(payload, "k", int, 1)
        algo = get_field(payload, "algo", str, "fd-rms")
        seed = get_field(payload, "seed", int, 0)
        options: dict[str, Any] = {}
        for key, kind in (("eps", (int, float)), ("m_max", int),
                          ("parallel", int)):
            if key in payload:
                options[key] = get_field(payload, key, kind)
        checkpoint_dir = self._checkpoint_dir(tenant_id)
        if get_field(payload, "resume", bool, False):
            if checkpoint_dir is None:
                raise ServiceError(
                    "unsupported",
                    "resume requested but the server has no "
                    "checkpoint root configured")
            self.counters["resumed"] += 1
            options["snapshot"] = checkpoint_dir
        config_raw = get_field(payload, "config", dict, None)
        try:
            config = SupervisorConfig(**(config_raw or {}))
        except TypeError as exc:
            raise ServiceError("bad_request",
                               f"bad supervisor config: {exc}") from None
        chaos_raw = get_field(payload, "chaos", dict, None)
        injector = None
        transport: Callable[[Sequence[Any]], Any] | None = None
        checkpoint_hook = None
        try:
            session = open_session(points, r, k=k, algo=algo, seed=seed,
                                   **options)
        except Exception as exc:
            raise ServiceError(
                "bad_request",
                f"could not open session: {type(exc).__name__}: {exc}"
            ) from None
        if chaos_raw is not None:
            spec = get_field(chaos_raw, "spec", str, "all")
            chaos_seed = get_field(chaos_raw, "seed", int, 0)
            try:
                chaos_config = parse_chaos(spec, seed=chaos_seed)
            except ValueError as exc:
                _close(session)
                raise ServiceError("bad_request", str(exc)) from None
            injector = ChaosInjector(chaos_config, self._clock)
            transport = injector.transport(session)
            checkpoint_hook = injector.on_checkpoint
        supervisor = SessionSupervisor(
            session, config, clock=self._clock, transport=transport,
            checkpoint_dir=checkpoint_dir, checkpoint_hook=checkpoint_hook)
        return Tenant(tenant_id, session, supervisor, injector=injector,
                      checkpoint_dir=checkpoint_dir)

    def checkpoint(self, tenant_id: str) -> dict[str, Any]:
        """Drain and checkpoint one tenant; returns manifest info."""
        tenant = self.get(tenant_id)
        checkpoint = getattr(tenant.session, "checkpoint", None)
        if tenant.checkpoint_dir is None:
            raise ServiceError(
                "unsupported",
                "the server has no checkpoint root configured")
        if not callable(checkpoint):
            raise ServiceError(
                "unsupported",
                f"tenant {tenant_id!r} runs an algorithm without a "
                f"durable checkpoint form")
        tenant.supervisor.drain()
        manifest = checkpoint(tenant.checkpoint_dir)
        return {"tenant": tenant_id,
                "directory": str(tenant.checkpoint_dir),
                "state_digest": manifest["state_digest"],
                "wal_position": manifest["wal_position"]}

    def evict(self, tenant_id: str, *,
              checkpoint: bool = True) -> dict[str, Any]:
        """Drain, optionally checkpoint, close, and forget one tenant."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise ServiceError(
                "unknown_tenant", f"tenant {tenant_id!r} is not open",
                {"tenant": tenant_id})
        tenant.supervisor.drain()
        info: dict[str, Any] = {"tenant": tenant_id, "checkpointed": False}
        saver = getattr(tenant.session, "checkpoint", None)
        if (checkpoint and tenant.checkpoint_dir is not None
                and callable(saver)):
            try:
                manifest = saver(tenant.checkpoint_dir)
            except Exception as exc:
                # Eviction must always succeed; a failed checkpoint is
                # reported, not fatal (the tenant just cannot resume).
                info["checkpoint_error"] = f"{type(exc).__name__}: {exc}"
            else:
                info["checkpointed"] = True
                info["state_digest"] = manifest["state_digest"]
                self.counters["evict_checkpoints"] += 1
        _close(tenant.session)
        tenant.closed = True
        del self._tenants[tenant_id]
        self.counters["evicted"] += 1
        return info

    def close_all(self) -> None:
        """Drain and close every tenant (server shutdown, no eviction
        checkpointing — shutdown must be fast and never raise).

        A failed drain still closes its session; it is counted in
        ``counters["drain_failures"]`` and kept in :attr:`drain_errors`.
        """
        for tenant_id in list(self._tenants):
            tenant = self._tenants.pop(tenant_id)
            try:
                tenant.supervisor.drain()
            except Exception as exc:
                self.counters["drain_failures"] += 1
                self.drain_errors.append((tenant_id, repr(exc)))
            _close(tenant.session)
            tenant.closed = True
            self.counters["closed"] += 1

    # -- admission -----------------------------------------------------
    def admit(self, tenant: Tenant,
              ops: Sequence[Any]) -> int:
        """Quota-check and submit one write request; returns ops admitted.

        Order of defenses: per-request size, pending-ops budget, and
        tuple cap are all checked *before* ``submit`` — a rejected
        request never enters the admission queue, so ``quota_exceeded``
        responses are cheap even under overload.
        """
        quota = self.quota
        if len(ops) > quota.max_ops_per_request:
            self.counters["quota_rejections"] += 1
            raise ServiceError(
                "quota_exceeded",
                f"request of {len(ops)} ops exceeds "
                f"max_ops_per_request={quota.max_ops_per_request}",
                {"tenant": tenant.tenant_id, "ops": len(ops),
                 "max_ops_per_request": quota.max_ops_per_request})
        pending = tenant.supervisor.pending_ops
        if pending + len(ops) > quota.max_pending_ops:
            self.counters["quota_rejections"] += 1
            raise ServiceError(
                "quota_exceeded",
                f"tenant {tenant.tenant_id!r} has {pending} pending ops; "
                f"admitting {len(ops)} more would exceed "
                f"max_pending_ops={quota.max_pending_ops}",
                {"tenant": tenant.tenant_id, "pending_ops": pending,
                 "max_pending_ops": quota.max_pending_ops,
                 "retry_after_ms": 50})
        inserts = sum(1 for op in ops
                      if isinstance(op, Mapping)
                      and op.get("kind") == "insert")
        if len(tenant.session.db) + pending + inserts > quota.max_tuples:
            self.counters["quota_rejections"] += 1
            raise ServiceError(
                "quota_exceeded",
                f"tenant {tenant.tenant_id!r} would exceed "
                f"max_tuples={quota.max_tuples}",
                {"tenant": tenant.tenant_id,
                 "alive_tuples": len(tenant.session.db),
                 "max_tuples": quota.max_tuples})
        try:
            return tenant.supervisor.submit(ops)
        except BatchValidationError as exc:
            raise ServiceError(
                "validation_failed", str(exc),
                {"tenant": tenant.tenant_id, "index": exc.index,
                 "reason": exc.reason}) from None

    def stats(self) -> dict[str, Any]:
        """Registry-level stats for ``GET /v1/stats``."""
        return {
            "open_tenants": len(self._tenants),
            "max_tenants": self.max_tenants,
            "lru_order": self.ids(),
            "quota": self.quota.to_dict(),
            "counters": dict(self.counters),
            "checkpoint_root": (str(self.checkpoint_root)
                                if self.checkpoint_root else None),
        }


def _close(session: Session) -> None:
    closer = getattr(session, "close", None)
    if callable(closer):
        try:
            closer()
        except Exception:
            pass
