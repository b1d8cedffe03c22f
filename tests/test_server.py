"""Multi-tenant network service: wire framing, quotas, digest parity.

The tentpole claim under test is the one the CI ``serve-smoke`` job
gates on: the network edge — admission, coalescing waves, per-tenant
quotas, LRU eviction, concurrent tenants, even chaos injected into one
tenant's transport — never changes *what* the engine computes. Every
end-to-end test here finishes with a ``result_digest`` comparison
against a plain in-process replay of the same operation stream.

All tests drive the real asyncio server over real sockets (``port=0``)
from ``asyncio.run`` inside synchronous pytest functions; no asyncio
pytest plugin is required.
"""

from __future__ import annotations

import asyncio
from typing import Any

import numpy as np
import pytest

from repro.api.session import open_session
from repro.server import ReproServer, TenantQuota, TenantRegistry
from repro.server.protocol import (
    ERROR_STATUS,
    ServiceError,
    error_envelope,
    get_field,
    require_field,
)
from repro.server.loadgen import inline_digest, run_load, wait_ready
from repro.server.wire import HttpClient, WebSocketClient, websocket_accept
from repro.service.supervisor import result_digest


def _points(seed: int = 0, n: int = 120, d: int = 4) -> list[list[float]]:
    rng = np.random.default_rng(seed)
    return [[float(x) for x in row] for row in rng.random((n, d))]


def _insert_ops(seed: int, count: int, d: int = 4) -> list[dict[str, Any]]:
    rng = np.random.default_rng(seed)
    return [{"kind": "insert", "point": [float(x) for x in rng.random(d)]}
            for _ in range(count)]


def _open_payload(points: list[list[float]], **extra: Any) -> dict[str, Any]:
    payload: dict[str, Any] = {"points": points, "r": 6, "k": 1,
                               "seed": 0, "eps": 0.1, "m_max": 32}
    payload.update(extra)
    return payload


def _reference_digest(points: list[list[float]],
                      wire_ops: list[dict[str, Any]]) -> str:
    """Plain in-process replay of the same wire stream."""
    session = open_session(np.asarray(points, dtype=float), 6, k=1,
                           algo="fd-rms", seed=0, eps=0.1, m_max=32)
    try:
        ops = [op if op["kind"] == "delete"
               else {"kind": "insert",
                     "point": np.asarray(op["point"], dtype=float)}
               for op in wire_ops]
        session.apply_batch(ops)
        return result_digest(session)
    finally:
        session.close()


async def _booted(**kwargs: Any) -> ReproServer:
    server = ReproServer(host="127.0.0.1", port=0, **kwargs)
    await server.start()
    return server


# ----------------------------------------------------------------------
# Wire + protocol primitives
# ----------------------------------------------------------------------

class TestProtocol:
    def test_websocket_accept_rfc6455_vector(self):
        # The worked example from RFC 6455 section 1.3.
        assert (websocket_accept("dGhlIHNhbXBsZSBub25jZQ==")
                == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=")

    def test_every_error_code_has_a_4xx_or_5xx_status(self):
        for code, status in ERROR_STATUS.items():
            assert 400 <= status < 600, code
            err = ServiceError(code, "boom")
            assert err.http_status == status
            assert err.envelope()["error"]["code"] == code

    def test_envelope_detail_is_optional(self):
        assert "detail" not in error_envelope("internal", "x")["error"]
        env = error_envelope("internal", "x", {"y": 1})
        assert env["error"]["detail"] == {"y": 1}

    def test_field_helpers_reject_json_type_confusion(self):
        with pytest.raises(ServiceError):
            require_field({}, "r", int)
        with pytest.raises(ServiceError):
            require_field({"r": "6"}, "r", int)
        with pytest.raises(ServiceError):
            # JSON true must not pass where an integer is expected.
            require_field({"r": True}, "r", int)
        assert get_field({}, "k", int, 7) == 7


# ----------------------------------------------------------------------
# HTTP endpoint round trips
# ----------------------------------------------------------------------

class TestHttpEndpoints:
    def test_lifecycle_and_digest_parity_over_http(self):
        points = _points()
        ops = _insert_ops(1, 24) + [{"kind": "delete", "id": i}
                                    for i in range(0, 20, 2)]

        async def run() -> None:
            server = await _booted()
            client = HttpClient(server.host, server.port)
            try:
                resp = await client.request("GET", "/healthz")
                assert resp.status == 200 and resp.json()["ok"] is True

                resp = await client.request(
                    "POST", "/v1/tenants/alpha/open", _open_payload(points))
                assert resp.status == 200
                body = resp.json()
                assert body["alive_tuples"] == len(points)
                assert body["d"] == 4

                resp = await client.request(
                    "POST", "/v1/tenants/alpha/batch", {"ops": ops})
                assert resp.status == 200
                assert resp.json()["admitted"] == len(ops)

                resp = await client.request(
                    "GET", "/v1/tenants/alpha/result?fresh=1")
                body = resp.json()
                assert resp.status == 200 and body["stale"] is False
                assert body["result_digest"] == _reference_digest(
                    points, ops)

                resp = await client.request(
                    "GET", "/v1/tenants/alpha/stats")
                stats = resp.json()
                assert stats["alive_tuples"] == len(points) + 24 - 10
                assert stats["service"]["applied_ops"] == len(ops)

                resp = await client.request("GET", "/v1/stats")
                body = resp.json()
                assert body["registry"]["open_tenants"] == 1
                assert body["server"]["http_requests"] >= 5

                resp = await client.request(
                    "DELETE", "/v1/tenants/alpha?checkpoint=0")
                assert resp.status == 200
                assert resp.json()["checkpointed"] is False
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_delete_endpoint_matches_batch_deletes(self):
        points = _points(3, n=80)

        async def run() -> None:
            server = await _booted()
            client = HttpClient(server.host, server.port)
            try:
                await client.request("POST", "/v1/tenants/t/open",
                                     _open_payload(points))
                resp = await client.request(
                    "POST", "/v1/tenants/t/delete",
                    {"ids": list(range(0, 30, 3))})
                assert resp.status == 200
                assert resp.json()["admitted"] == 10
                resp = await client.request(
                    "GET", "/v1/tenants/t/result?fresh=1")
                digest = resp.json()["result_digest"]
                assert digest == _reference_digest(
                    points, [{"kind": "delete", "id": i}
                             for i in range(0, 30, 3)])
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_typed_error_envelopes(self):
        points = _points(4, n=40)

        async def run() -> None:
            server = await _booted(
                quota=TenantQuota(max_ops_per_request=8))
            client = HttpClient(server.host, server.port)
            try:
                async def expect(status: int, code: str, method: str,
                                 target: str, payload: Any = None) -> None:
                    resp = await client.request(method, target, payload)
                    assert resp.status == status, (target, resp.json())
                    assert resp.json()["error"]["code"] == code, target

                await expect(404, "unknown_tenant", "GET",
                             "/v1/tenants/ghost/result")
                await expect(404, "not_found", "GET", "/v1/nope")
                await expect(405, "method_not_allowed", "POST", "/healthz",
                             {})
                await expect(400, "bad_request", "POST",
                             "/v1/tenants/bad!id/open",
                             _open_payload(points))
                await expect(400, "bad_request", "POST",
                             "/v1/tenants/t/open", {"points": points})

                await client.request("POST", "/v1/tenants/t/open",
                                     _open_payload(points))
                await expect(409, "tenant_exists", "POST",
                             "/v1/tenants/t/open", _open_payload(points))
                await expect(429, "quota_exceeded", "POST",
                             "/v1/tenants/t/batch",
                             {"ops": _insert_ops(0, 9)})
                # Malformed op (wrong dimensionality) must be rejected
                # atomically by the validation boundary.
                await expect(400, "validation_failed", "POST",
                             "/v1/tenants/t/batch",
                             {"ops": [{"kind": "insert",
                                       "point": [1.0, 2.0]}]})
                await expect(400, "bad_request", "GET",
                             "/v1/tenants/t/result?deadline_ms=nan-ish")
                assert server.counters["request_errors"] >= 8
                assert server.registry.counters["quota_rejections"] == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())


# ----------------------------------------------------------------------
# WebSocket transport
# ----------------------------------------------------------------------

class TestWebSocketTransport:
    def test_ws_verbs_and_digest_parity(self):
        points = _points(5, n=60)
        ops = _insert_ops(6, 16)

        async def run() -> None:
            server = await _booted()
            ws = WebSocketClient(server.host, server.port)
            try:
                await ws.connect()
                reply = await ws.round_trip(
                    {"rid": 1, "verb": "open", "tenant": "w",
                     "payload": _open_payload(points)})
                assert reply["ok"] is True and reply["rid"] == 1

                reply = await ws.round_trip(
                    {"rid": 2, "verb": "batch", "tenant": "w",
                     "payload": {"ops": ops}})
                assert reply["data"]["admitted"] == len(ops)

                reply = await ws.round_trip(
                    {"rid": 3, "verb": "result", "tenant": "w",
                     "payload": {"fresh": True}})
                assert reply["data"]["result_digest"] == _reference_digest(
                    points, ops)

                reply = await ws.round_trip(
                    {"rid": 4, "verb": "server_stats"})
                assert reply["data"]["server"]["ws_messages"] >= 4

                reply = await ws.round_trip(
                    {"rid": 5, "verb": "warp", "tenant": "w"})
                assert reply["ok"] is False
                assert reply["error"]["code"] == "not_found"

                reply = await ws.round_trip(
                    {"rid": 6, "verb": "close", "tenant": "w",
                     "payload": {"checkpoint": False}})
                assert reply["data"]["checkpointed"] is False
                assert len(server.registry) == 0
            finally:
                await ws.close()
                await server.close()

        asyncio.run(run())

    def test_oversized_frame_gets_a_1009_close_frame(self):
        import struct

        from repro.server.wire import WS_OP_CLOSE, _ws_read_frame

        async def run() -> tuple[int, int]:
            server = await _booted(max_body_bytes=1024)
            ws = WebSocketClient(server.host, server.port)
            try:
                await ws.connect()
                assert ws._reader is not None and ws._writer is not None
                # 4 KiB of JSON against a 1 KiB limit: the server must
                # answer with a proper close frame (1009 Message Too
                # Big), not drop the TCP connection mid-stream.
                big = '{"verb": "' + "x" * 4096 + '"}'
                from repro.server.wire import ws_write_message
                await ws_write_message(ws._writer, big,
                                       mask=ws._next_mask())
                opcode, _, payload = await _ws_read_frame(
                    ws._reader, max_len=1 << 16)
                (code,) = struct.unpack(">H", payload[:2])
                return opcode, code
            finally:
                await ws.close()
                await server.close()

        opcode, code = asyncio.run(run())
        assert opcode == WS_OP_CLOSE
        assert code == 1009


# ----------------------------------------------------------------------
# Tenant registry: quotas, LRU eviction, checkpoint/resume
# ----------------------------------------------------------------------

class TestTenantRegistry:
    def test_close_all_reports_drain_failures_and_closes_every_session(
            self, monkeypatch):
        registry = TenantRegistry(max_tenants=2)
        bad = registry.open("bad", _open_payload(_points(3, n=30)))
        good = registry.open("good", _open_payload(_points(4, n=30)))
        closed: list[str] = []
        for tenant in (bad, good):
            def close(tid: str = tenant.tenant_id,
                      real: Any = tenant.session.close) -> None:
                closed.append(tid)
                real()
            monkeypatch.setattr(tenant.session, "close", close)

        def failing_drain() -> None:
            raise RuntimeError("wave failed")

        monkeypatch.setattr(bad.supervisor, "drain", failing_drain)
        registry.close_all()  # must not raise
        assert closed == ["bad", "good"]
        assert bad.closed and good.closed and len(registry) == 0
        assert registry.counters["closed"] == 2
        assert registry.counters["drain_failures"] == 1
        assert registry.drain_errors == [
            ("bad", "RuntimeError('wave failed')")]

    def test_lru_eviction_checkpoints_and_resume_restores_digest(
            self, tmp_path):
        points = _points(7, n=80)
        ops = _insert_ops(8, 20)

        async def run() -> None:
            server = await _booted(max_tenants=1,
                                   checkpoint_root=tmp_path)
            client = HttpClient(server.host, server.port)
            try:
                await client.request("POST", "/v1/tenants/first/open",
                                     _open_payload(points))
                await client.request("POST", "/v1/tenants/first/batch",
                                     {"ops": ops})
                resp = await client.request(
                    "GET", "/v1/tenants/first/result?fresh=1")
                digest = resp.json()["result_digest"]

                # Opening a second tenant in a 1-slot registry evicts
                # the first — with a checkpoint it can resume from.
                resp = await client.request(
                    "POST", "/v1/tenants/second/open",
                    _open_payload(_points(9, n=40)))
                assert resp.json()["evicted"] == ["first"]
                assert (tmp_path / "first").is_dir()
                assert server.registry.counters["evict_checkpoints"] == 1

                resp = await client.request(
                    "POST", "/v1/tenants/first/open",
                    _open_payload(points, resume=True))
                assert resp.status == 200
                resp = await client.request(
                    "GET", "/v1/tenants/first/result?fresh=1")
                assert resp.json()["result_digest"] == digest
                assert server.registry.counters["resumed"] == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_explicit_checkpoint_reports_manifest(self, tmp_path):
        points = _points(10, n=50)

        async def run() -> None:
            server = await _booted(checkpoint_root=tmp_path)
            client = HttpClient(server.host, server.port)
            try:
                await client.request("POST", "/v1/tenants/c/open",
                                     _open_payload(points))
                resp = await client.request(
                    "POST", "/v1/tenants/c/checkpoint", {})
                body = resp.json()
                assert resp.status == 200
                digest = body["state_digest"]
                assert len(digest) == 64 and int(digest, 16) >= 0
                assert (tmp_path / "c").is_dir()
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_checkpoint_without_root_is_unsupported(self):
        async def run() -> None:
            server = await _booted()
            client = HttpClient(server.host, server.port)
            try:
                await client.request("POST", "/v1/tenants/c/open",
                                     _open_payload(_points(11, n=30)))
                resp = await client.request(
                    "POST", "/v1/tenants/c/checkpoint", {})
                assert resp.status == 409
                assert resp.json()["error"]["code"] == "unsupported"
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_traversal_tenant_ids_are_rejected(self, tmp_path):
        # '.' and '..' pass the character-set check but would resolve
        # the checkpoint dir outside the configured root — a remote
        # client must never be able to place writes there.
        registry = TenantRegistry(max_tenants=2, checkpoint_root=tmp_path)
        for bad in (".", "..", "", "x" * 65, "bad!id"):
            with pytest.raises(ServiceError) as info:
                registry.open(bad, _open_payload(_points(20, n=20)))
            assert info.value.code == "bad_request", bad

        async def run() -> None:
            server = await _booted(checkpoint_root=tmp_path)
            client = HttpClient(server.host, server.port)
            try:
                resp = await client.request(
                    "POST", "/v1/tenants/../open",
                    _open_payload(_points(21, n=20)))
                assert resp.status == 400
                assert resp.json()["error"]["code"] == "bad_request"
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())
        # Nothing escaped the (still empty) checkpoint root.
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_dir_is_fenced_inside_the_root(self, tmp_path):
        # Defense in depth: even if an unsafe id slipped past
        # validation, _checkpoint_dir must refuse to resolve it.
        registry = TenantRegistry(max_tenants=2, checkpoint_root=tmp_path)
        assert registry._checkpoint_dir("ok") == tmp_path / "ok"
        with pytest.raises(ServiceError):
            registry._checkpoint_dir("..")

    def test_evict_while_waiting_on_the_lock_answers_unknown_tenant(
            self):
        async def run() -> None:
            server = await _booted()
            client = HttpClient(server.host, server.port)
            try:
                await client.request("POST", "/v1/tenants/r/open",
                                     _open_payload(_points(22, n=30)))
                tenant = server.registry.peek("r")
                # Hold the tenant lock (as a running wave would), queue
                # a write behind it, then evict before releasing: the
                # write must answer 404, not silently drop its ops.
                async with tenant.lock:
                    write = asyncio.ensure_future(server._write(
                        "r", _insert_ops(23, 4), {}))
                    await asyncio.sleep(0)
                    server.registry.evict("r", checkpoint=False)
                with pytest.raises(ServiceError) as info:
                    await write
                assert info.value.code == "unknown_tenant"
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_pending_ops_quota_sheds_before_submit(self):
        registry = TenantRegistry(
            max_tenants=2, quota=TenantQuota(max_ops_per_request=64,
                                             max_pending_ops=10))
        tenant = registry.open("q", _open_payload(_points(12, n=30)))
        try:
            registry.admit(tenant, _insert_ops(0, 8))
            with pytest.raises(ServiceError) as info:
                registry.admit(tenant, _insert_ops(1, 8))
            assert info.value.code == "quota_exceeded"
            # The rejected request never entered the queue.
            assert tenant.supervisor.pending_ops == 8
        finally:
            registry.close_all()


# ----------------------------------------------------------------------
# Degradation: stale reads under a zero deadline
# ----------------------------------------------------------------------

class TestDegradation:
    def test_zero_deadline_read_serves_stale_with_lag(self):
        async def run() -> None:
            server = await _booted()
            client = HttpClient(server.host, server.port)
            try:
                await client.request("POST", "/v1/tenants/s/open",
                                     _open_payload(_points(13, n=60)))
                # Materialize a first result so there is something to
                # shed to, then queue work without pumping it.
                await client.request("GET",
                                     "/v1/tenants/s/result?fresh=1")
                tenant = server.registry.get("s")
                registry_admitted = server.registry.admit(
                    tenant, _insert_ops(14, 32))
                assert registry_admitted == 32
                view = await server._result("s", fresh=False,
                                            deadline_ms=0.0)
                assert view["stale"] is True
                assert view["lag_ops"] > 0
                assert "result_digest" not in view
                # A fresh read afterwards drains and converges.
                view = await server._result("s", fresh=True,
                                            deadline_ms=None)
                assert view["stale"] is False
                assert view["lag_ops"] == 0
                assert view["result_digest"] == result_digest(
                    tenant.session)
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Concurrency: multi-tenant isolation, chaos on one tenant only
# ----------------------------------------------------------------------

class TestMultiTenantIsolation:
    def test_concurrent_tenants_reach_digest_parity(self):
        async def run() -> dict[str, Any]:
            server = await _booted()
            try:
                await wait_ready(server.host, server.port)
                serve = asyncio.ensure_future(server.serve_forever())
                summary = await run_load(
                    server.host, server.port, "mixed-batch",
                    tenants=2, n=160, seed=0, r=6, m_max=32,
                    read_every=3, deadline_ms=1.0)
                serve.cancel()
                return summary
            finally:
                await server.close()

        summary = asyncio.run(run())
        assert summary["parity_ok"] is True
        assert len(summary["per_tenant"]) == 2
        transports = {row["transport"] for row in summary["per_tenant"]}
        assert transports == {"http", "ws"}
        digests = {row["served_digest"] for row in summary["per_tenant"]}
        assert len(digests) == 2  # per-tenant seeds -> distinct streams
        for row in summary["per_tenant"]:
            assert row["served_digest"] == row["inline_digest"]

    def test_chaos_on_one_tenant_never_perturbs_the_other(self):
        async def run() -> dict[str, Any]:
            server = await _booted()
            try:
                summary = await run_load(
                    server.host, server.port, "mixed-batch",
                    tenants=2, n=160, seed=3, r=6, m_max=32,
                    read_every=2, deadline_ms=1.0,
                    chaos_tenant=0, chaos_spec="all", chaos_seed=1)
                return {"summary": summary,
                        "tenants_left": len(server.registry)}
            finally:
                await server.close()

        out = asyncio.run(run())
        summary = out["summary"]
        rows = {row["tenant"]: row for row in summary["per_tenant"]}
        # Chaos actually fired on tenant0's transport...
        assert sum(rows["tenant0"]["chaos"].values()) > 0
        assert "chaos" not in rows["tenant1"]
        # ...yet BOTH tenants' digests match their inline references —
        # the isolation (and digest-safety) claim in one assertion.
        assert summary["parity_ok"] is True
        for row in summary["per_tenant"]:
            assert row["served_digest"] == row["inline_digest"], row
        # The driver evicted its tenants, leaving the server reusable.
        assert out["tenants_left"] == 0

    def test_serve_load_is_repeatable_against_a_standing_server(self):
        async def run() -> tuple[dict[str, Any], dict[str, Any]]:
            server = await _booted()
            try:
                first = await run_load(
                    server.host, server.port, "mixed-batch",
                    tenants=2, n=80, seed=0, r=6, m_max=32,
                    read_every=0, deadline_ms=1.0, check_parity=False)
                second = await run_load(
                    server.host, server.port, "mixed-batch",
                    tenants=2, n=80, seed=0, r=6, m_max=32,
                    read_every=0, deadline_ms=1.0, check_parity=False)
                return first, second
            finally:
                await server.close()

        first, second = asyncio.run(run())
        # Before the driver evicted its tenants on completion, the
        # second run died with tenant_exists on every open.
        assert {row["tenant"] for row in second["per_tenant"]} == \
            {row["tenant"] for row in first["per_tenant"]}
        assert all(row["served_digest"] for row in second["per_tenant"])


# ----------------------------------------------------------------------
# Load generator internals
# ----------------------------------------------------------------------

class TestLoadgen:
    def test_inline_digest_matches_direct_session_replay(self):
        from repro.scenarios import get_scenario
        from repro.scenarios.replay import batch_slices, floor_r

        trace = get_scenario("mixed-batch").compile(seed=0, n=120)
        r_eff = floor_r(6, trace.d)
        workload = trace.workload
        session = open_session(workload.initial, r_eff, k=1, algo="fd-rms",
                               seed=0, eps=0.1, m_max=32)
        try:
            for start, stop in batch_slices(trace):
                session.apply_batch(list(workload.operations[start:stop]))
            expected = result_digest(session)
        finally:
            session.close()
        assert inline_digest(trace, r=r_eff, k=1, seed=0, eps=0.1,
                             m_max=32) == expected
