"""The served workload: a ``repro serve`` process driven over HTTP and WS.

The benchmark starts the server itself (one process, one thread,
single-threaded BLAS) and drives two tenants from this process: ``t0``
over HTTP keep-alive and ``t1`` over a WebSocket. Each connection is a
closed loop with a fixed window of pipelined requests, so the server
always has the next request buffered and is the saturated process.
Every request's bytes are encoded before the timed window starts.

Per tenant and pass the request stream is the trace's slices as
coalesced writes, a deadline read after every ``read_every`` slices and
a final fresh read whose ``result_digest`` must equal an inline replay
of the same slices.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import struct
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import measure
from config import ServeConfig

from repro.api.session import open_session
from repro.data.database import INSERT
from repro.scenarios.replay import batch_slices, floor_r
from repro.service.supervisor import result_digest

BENCH_DIR = Path(__file__).resolve().parent
_clock = time.perf_counter
#: Hard cap on one pass (a full-size pass takes a few seconds); a hung
#: server fails the pass and the passes after it instead of the run.
PASS_TIMEOUT_S = 60.0


class TransportError(RuntimeError):
    """The connection broke or answered something unparseable."""


# -- server process ---------------------------------------------------------

class ServerProcess:
    """A ``repro serve`` child process (optionally under the tracer)."""

    def __init__(self, root: Path, out_dir: Path, *,
                 spans_out: Path | None = None) -> None:
        self.root = root
        self.spans_out = spans_out
        self.log_path = out_dir / ("server-traced.log" if spans_out
                                   else "server.log")
        self.proc: subprocess.Popen[bytes] | None = None

    def start(self, timeout_s: float = 60.0) -> int:
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--max-tenants", "16"]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_server.py"),
                   "--spans-out", str(self.spans_out), "--", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                         stdout=subprocess.PIPE, stderr=log)
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout_s
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if b"listening on" in line or not line:
                    break
            if self.proc.poll() is not None:
                break
        text = line.decode(errors="replace")
        if "listening on http://" not in text:
            self.stop()
            raise RuntimeError(f"server did not start: {text.strip()!r} "
                               f"(see {self.log_path})")
        return int(text.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_s(self) -> float:
        """Server CPU seconds so far (0 once the process is gone)."""
        try:
            return measure.proc_cpu_s(self.pid)
        except OSError:
            return 0.0

    def peak_rss_mb(self) -> float:
        try:
            return measure.proc_peak_rss_mb(self.pid)
        except OSError:
            return 0.0

    def stop(self) -> None:
        """SIGINT (graceful shutdown), then SIGKILL; always reaped."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None


# -- pipelined client -------------------------------------------------------

@dataclass
class Reply:
    t_done: float
    ok: bool
    data: dict[str, Any]


class Conn:
    """One keep-alive connection with a window of pipelined requests.

    Replies arrive in request order on both transports, so a reader
    task resolves a FIFO of futures; a semaphore bounds the window.
    """

    def __init__(self, host: str, port: int, kind: str, window: int) -> None:
        self.host, self.port, self.kind = host, port, kind
        self._window = asyncio.Semaphore(window)
        self._pending: deque[asyncio.Future[Reply]] = deque()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task[None] | None = None
        self._rid = 0
        self._mask = 0
        self._broken: TransportError | None = None
        self.bytes_sent = 0

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        if self.kind == "ws":
            self._writer.write(
                (f"GET /v1/ws HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                 "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                 "Sec-WebSocket-Key: cm1zYmVuY2gtY2xpZW50LQ==\r\n"
                 "Sec-WebSocket-Version: 13\r\n\r\n").encode("latin-1"))
            head = await self._reader.readuntil(b"\r\n\r\n")
            if b" 101 " not in head.split(b"\r\n", 1)[0] + b" ":
                raise TransportError(f"WebSocket upgrade refused: {head!r}")
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    # -- encoding (done before the timed window) --
    def encode(self, verb: str, tenant: str,
               payload: dict[str, Any] | None = None) -> bytes:
        payload = dict(payload or {})
        if self.kind == "ws":
            self._rid += 1
            text = json.dumps({"rid": self._rid, "verb": verb,
                               "tenant": tenant, "payload": payload})
            return self._ws_frame(text.encode())
        base = f"/v1/tenants/{tenant}"
        if verb == "result":
            query = "?fresh=1" if payload.get("fresh") else \
                f"?deadline_ms={payload['deadline_ms']}"
            return self._http("GET", f"{base}/result{query}", b"")
        if verb == "stats":
            return self._http("GET", f"{base}/stats", b"")
        if verb == "close":
            return self._http("DELETE", f"{base}?checkpoint=0", b"")
        return self._http("POST", f"{base}/{verb}",
                          json.dumps(payload).encode())

    def _http(self, method: str, target: str, body: bytes) -> bytes:
        head = (f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        return head.encode("latin-1") + body

    def _ws_frame(self, payload: bytes) -> bytes:
        self._mask = (self._mask + 0x9E3779B1) & 0xFFFFFFFF
        mask = struct.pack(">I", self._mask)
        n = len(payload)
        if n < 126:
            head = bytes([0x81, 0x80 | n])
        elif n < 1 << 16:
            head = bytes([0x81, 0x80 | 126]) + struct.pack(">H", n)
        else:
            head = bytes([0x81, 0x80 | 127]) + struct.pack(">Q", n)
        keys = np.frombuffer((mask * (n // 4 + 1))[:n], dtype=np.uint8)
        body = (np.frombuffer(payload, dtype=np.uint8) ^ keys).tobytes()
        return head + mask + body

    # -- traffic --
    async def send(self, data: bytes) -> asyncio.Future[Reply]:
        """Send once a window slot is free; the future holds the reply."""
        await self._window.acquire()
        if self._broken is not None:
            raise self._broken
        assert self._writer is not None
        fut: asyncio.Future[Reply] = \
            asyncio.get_running_loop().create_future()
        self._pending.append(fut)
        self._writer.write(data)
        self.bytes_sent += len(data)
        await self._writer.drain()
        return fut

    async def call(self, data: bytes) -> Reply:
        return await (await self.send(data))

    async def _read_loop(self) -> None:
        try:
            while True:
                ok, data = await (self._read_ws() if self.kind == "ws"
                                  else self._read_http())
                reply = Reply(_clock(), ok, data)
                fut = self._pending.popleft()
                self._window.release()
                if not fut.done():
                    fut.set_result(reply)
        except (asyncio.IncompleteReadError, ConnectionError, IndexError,
                ValueError, TransportError) as exc:
            self._broken = TransportError(f"{self.kind} connection broke: "
                                          f"{type(exc).__name__}: {exc}")
            while self._pending:
                fut = self._pending.popleft()
                self._window.release()
                if not fut.done():
                    fut.set_exception(self._broken)

    async def _read_http(self) -> tuple[bool, dict[str, Any]]:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            if line[:15].lower() == "content-length:":
                length = int(line[15:])
        body = json.loads(await self._reader.readexactly(length)) \
            if length else {}
        return status < 400, body

    async def _read_ws(self) -> tuple[bool, dict[str, Any]]:
        assert self._reader is not None
        b0, b1 = await self._reader.readexactly(2)
        n = b1 & 0x7F
        if n == 126:
            (n,) = struct.unpack(">H", await self._reader.readexactly(2))
        elif n == 127:
            (n,) = struct.unpack(">Q", await self._reader.readexactly(8))
        payload = await self._reader.readexactly(n)
        if b0 & 0x0F != 0x1:
            raise TransportError(f"unexpected WebSocket opcode {b0 & 0x0F}")
        reply = json.loads(payload)
        if reply.get("ok"):
            return True, reply.get("data") or {}
        return False, {"error": reply.get("error")}

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass


# -- inline reference -------------------------------------------------------

@dataclass
class Reference:
    digest: str
    seconds: float
    ops: int
    mrr_max: float


def inline_reference(cfg: ServeConfig, trace: Any,
                     utilities: np.ndarray) -> Reference:
    """Replay ``trace`` in process, slice by slice, as the server would."""
    workload = trace.workload
    ops = workload.operations
    marks = set(workload.snapshots)
    session = open_session(workload.initial, floor_r(cfg.r, trace.d),
                           algo="fd-rms", seed=trace.seed, eps=cfg.eps,
                           m_max=cfg.m_max)
    seconds, mrr = 0.0, 0.0
    try:
        for start, stop in batch_slices(trace):
            t0 = _clock()
            session.apply_batch(ops[start:stop])
            seconds += _clock() - t0
            if stop in marks:
                mrr = max(mrr, measure.max_regret_k1(
                    session.db.points(), session.result_points(),
                    utilities))
        return Reference(result_digest(session), seconds, len(ops), mrr)
    finally:
        session.close()


# -- one pass ---------------------------------------------------------------

def wire_ops(ops: list[Any]) -> list[dict[str, Any]]:
    """Trace operations in the wire schema (floats round-trip exactly)."""
    return [{"kind": "insert", "point": [float(x) for x in op.point]}
            if op.kind == INSERT
            else {"kind": "delete", "id": int(op.tuple_id)}
            for op in ops]


@dataclass
class TenantRecord:
    tenant: str
    ops: int
    failed: bool = False
    errors: list[str] = field(default_factory=list)
    #: (kind, t_send, n_ops, reply) per request of the window.
    requests: list[tuple[str, float, int, Reply]] = field(
        default_factory=list)
    digest: str | None = None
    stats: dict[str, Any] = field(default_factory=dict)


@dataclass
class PassRecord:
    #: (t_send, t_done) of every ``open``.
    setups: list[tuple[float, float]] = field(default_factory=list)
    tenants: list[TenantRecord] = field(default_factory=list)
    window_start: float = 0.0
    window_s: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    bytes_in: int = 0


def open_payload(cfg: ServeConfig, trace: Any) -> dict[str, Any]:
    return {"points": [[float(x) for x in row]
                       for row in trace.workload.initial],
            "r": floor_r(cfg.r, trace.d), "seed": trace.seed,
            "eps": cfg.eps, "m_max": cfg.m_max,
            "config": dict(cfg.supervisor)}


def request_stream(cfg: ServeConfig, conn: Conn, tenant: str, trace: Any
                   ) -> list[tuple[str, int, bytes]]:
    """Every request of one tenant's window, encoded up front."""
    ops = trace.workload.operations
    out = []
    for i, (start, stop) in enumerate(batch_slices(trace)):
        payload = wire_ops(ops[start:stop])
        out.append(("w", stop - start, conn.encode(
            "batch", tenant, {"ops": payload, "mode": "coalesce"})))
        if cfg.read_every and (i + 1) % cfg.read_every == 0:
            out.append(("r", 0, conn.encode(
                "result", tenant, {"deadline_ms": cfg.deadline_ms})))
    out.append(("f", 0, conn.encode("result", tenant, {"fresh": True})))
    return out


async def _drive(conn: Conn, stream: list[tuple[str, int, bytes]]
                 ) -> list[tuple[str, float, int, Reply]]:
    sent = []
    for kind, n_ops, data in stream:
        t_send = _clock()
        sent.append((kind, t_send, n_ops, await conn.send(data)))
    return [(kind, t, n, await fut) for kind, t, n, fut in sent]


async def _probe_every(speed: measure.HostSpeed) -> None:
    """Time the host-speed kernel every ``PROBE_EVERY_S`` until cancelled.

    A probe blocks this process's event loop for about 1 ms; the server
    keeps its window of pipelined requests buffered meanwhile.
    """
    while True:
        await asyncio.sleep(measure.PROBE_EVERY_S)
        speed.probe()


async def run_pass(cfg: ServeConfig, host: str, port: int, pass_no: int,
                   traces: list[Any], server: ServerProcess,
                   speed: measure.HostSpeed) -> PassRecord:
    rec = PassRecord()
    conns = [Conn(host, port, "http", cfg.window),
             Conn(host, port, "ws", cfg.window)]
    # Probes cover the opens too, so set-up times are corrected by
    # probes taken while they ran.
    prober = asyncio.create_task(_probe_every(speed))
    try:
        for conn in conns:
            await conn.connect()
        names = [f"t{i}-p{pass_no}" for i in range(len(traces))]
        # Extra opens sample set-up time only; they close right away.
        payload0 = open_payload(cfg, traces[0])
        for j in range(cfg.extra_opens):
            spare = f"x{j}-p{pass_no}"
            data = conns[0].encode("open", spare, payload0)
            t0 = _clock()
            reply = await conns[0].call(data)
            if not reply.ok:
                raise TransportError(f"open {spare}: {reply.data}")
            rec.setups.append((t0, reply.t_done))
            await conns[0].call(conns[0].encode("close", spare))
        live = []
        for conn, name, trace in zip(conns, names, traces):
            tenant = TenantRecord(name, trace.n_operations)
            rec.tenants.append(tenant)
            data = conn.encode("open", name, open_payload(cfg, trace))
            t0 = _clock()
            try:
                reply = await conn.call(data)
            except TransportError as exc:
                tenant.failed = True
                tenant.errors.append(str(exc))
                continue
            rec.setups.append((t0, reply.t_done))
            if not reply.ok:
                tenant.failed = True
                tenant.errors.append(f"open: {reply.data}")
                continue
            live.append((conn, tenant,
                         request_stream(cfg, conn, name, trace)))
        sent0 = sum(conn.bytes_sent for conn in conns)
        cpu0, client0 = server.cpu_s(), time.process_time()
        rec.window_start = start = _clock()
        results = await asyncio.gather(
            *(_drive(conn, stream) for conn, _, stream in live),
            return_exceptions=True)
        rec.window_s = _clock() - start
        rec.server_cpu_s = server.cpu_s() - cpu0
        rec.client_cpu_s = time.process_time() - client0
        rec.bytes_in = sum(conn.bytes_sent for conn in conns) - sent0
        for (conn, tenant, _), result in zip(live, results):
            if isinstance(result, BaseException):
                tenant.failed = True
                tenant.errors.append(f"{type(result).__name__}: {result}")
                continue
            tenant.requests = result
            for kind, _, _, reply in result:
                if not reply.ok:
                    tenant.failed = True
                    tenant.errors.append(f"{kind}: {reply.data}")
            final = result[-1][3]
            tenant.digest = final.data.get("result_digest")
            stats = await conn.call(conn.encode("stats", tenant.tenant))
            tenant.stats = stats.data if stats.ok else {}
            await conn.call(conn.encode("close", tenant.tenant))
    finally:
        prober.cancel()
        try:
            await prober
        except asyncio.CancelledError:
            pass
        for conn in conns:
            await conn.close()
    return rec


# -- a whole run ------------------------------------------------------------

@dataclass
class ServedRun:
    """The passes against one server, the inline references and the
    client's host-speed probes."""

    passes: list[PassRecord]
    refs: list[Reference]
    peak_rss_mb: float
    speed: measure.HostSpeed


def serve_passes(cfg: ServeConfig, traces: list[Any], root: Path,
                 out_dir: Path, speed: measure.HostSpeed, *,
                 spans_out: Path | None = None
                 ) -> tuple[list[PassRecord], float]:
    """Boot a server, run every pass against it, stop it; ``speed``
    collects the probes taken during the passes."""
    server = ServerProcess(root, out_dir, spans_out=spans_out)

    async def all_passes(port: int) -> list[PassRecord]:
        out: list[PassRecord] = []
        error: str | None = None
        for p in range(cfg.passes):
            pair = traces[2 * p:2 * p + 2]
            if error is None:
                try:
                    out.append(await asyncio.wait_for(
                        run_pass(cfg, "127.0.0.1", port, p, pair, server,
                                 speed),
                        PASS_TIMEOUT_S))
                    continue
                except (asyncio.TimeoutError, OSError,
                        TransportError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            # A broken or hung server fails this pass and every later one.
            out.append(PassRecord(tenants=[
                TenantRecord(f"t{i}-p{p}", t.n_operations, failed=True,
                             errors=[error])
                for i, t in enumerate(pair)]))
        return out

    try:
        passes = asyncio.run(all_passes(server.start()))
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    return passes, peak


def check_digests(run: ServedRun) -> None:
    """A served digest must equal the inline replay of its slices."""
    for p, rec in enumerate(run.passes):
        for i, tenant in enumerate(rec.tenants):
            ref = run.refs[2 * p + i]
            if not tenant.failed and tenant.digest != ref.digest:
                tenant.failed = True
                tenant.errors.append(f"digest mismatch: served "
                                     f"{tenant.digest} != inline "
                                     f"{ref.digest}")


def end_to_end(cfg: ServeConfig, run: ServedRun, *, corrected: bool = True
               ) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metrics and their sample counts; ``corrected``
    scales every timing to the reference host speed by the probes the
    client took during the passes (``measure.HostSpeed``)."""
    def seconds(spans: list[tuple[float, float]]) -> np.ndarray:
        arr = np.asarray(spans, dtype=float).reshape(-1, 2)
        out = arr[:, 1] - arr[:, 0]
        return out * run.speed.factors(arr[:, 0], arr[:, 1]) \
            if corrected else out

    segments: list[tuple[float, float]] = []
    segment_ops: list[int] = []
    vis: list[tuple[float, float]] = []
    vis_w: list[int] = []
    read_spans: list[tuple[float, float]] = []
    windows: list[tuple[float, float]] = []
    reads = fresh = ops = 0
    for rec in run.passes:
        windows.append((rec.window_start, rec.window_start + rec.window_s))
        acks = []
        for tenant in rec.tenants:
            ops += tenant.ops
            pending: list[tuple[float, int]] = []
            for kind, t_send, n_ops, reply in tenant.requests:
                if kind == "w":
                    pending.append((t_send, n_ops))
                    acks.append((reply.t_done, n_ops))
                    continue
                stale = bool(reply.data.get("stale", False))
                if kind == "r":
                    reads += 1
                    fresh += not stale
                    read_spans.append((t_send, reply.t_done))
                if reply.ok and not stale:
                    for t_w, n_w in pending:
                        vis.append((t_w, reply.t_done))
                        vis_w.append(n_w)
                    pending = []
        acks.sort()
        for t0, t1, n in measure.segments(acks, cfg.segment_ops,
                                          start=rec.window_start):
            segments.append((t0, t1))
            segment_ops.append(n)
    vis_ms = 1e3 * seconds(vis)
    read_ms = 1e3 * seconds(read_spans)
    # Server CPU of each pass, scaled like the pass window's wall time.
    windows_s = seconds(windows)
    raw_windows_s = np.asarray([t1 - t0 for t0, t1 in windows])
    server_cpu = np.asarray([rec.server_cpu_s for rec in run.passes]) \
        * windows_s / np.maximum(raw_windows_s, 1e-9)
    setups = [span for rec in run.passes for span in rec.setups]
    samples = {"setups": len(setups), "segments": len(segments),
               "write_visible_ops": int(sum(vis_w)), "reads": reads}
    return {
        "setup_s": measure.median(seconds(setups)),
        "ops_per_s": measure.median(np.asarray(segment_ops, dtype=float)
                                    / seconds(segments)),
        "write_visible_mean_ms": measure.weighted_mean(vis_ms, vis_w),
        "write_visible_p95_ms": measure.weighted_percentile(
            vis_ms, vis_w, measure.WRITE_TAIL_PCT),
        "read_p50_ms": measure.percentile(read_ms, 50),
        "read_p99_ms": measure.percentile(read_ms, measure.TAIL_PCT),
        "cpu_ms_per_op": 1e3 * float(np.sum(server_cpu)) / max(1, ops),
        "fresh_read_ratio": fresh / reads if reads else 1.0,
        "mrr_max": measure.mean([ref.mrr_max for ref in run.refs]),
        "peak_rss_mb": run.peak_rss_mb,
    }, samples


def summarize(cfg: ServeConfig, run: ServedRun) -> tuple[
        dict[str, float], dict[str, Any]]:
    """End-to-end metrics (corrected) and the run's witnesses."""
    e2e, samples = end_to_end(cfg, run)
    raw, _ = end_to_end(cfg, run, corrected=False)
    window_s = sum(rec.window_s for rec in run.passes)
    server_cpu = sum(rec.server_cpu_s for rec in run.passes)
    ops = sum(tenant.ops for rec in run.passes for tenant in rec.tenants)
    inline_rate = (sum(ref.ops for ref in run.refs)
                   / max(1e-9, sum(ref.seconds for ref in run.refs)))
    witness = {
        "server_busy_share": server_cpu / window_s if window_s else 0.0,
        "server_cpu_s": server_cpu,
        "client_cpu_s": sum(rec.client_cpu_s for rec in run.passes),
        "window_s": window_s,
        "bytes_in_per_op": sum(rec.bytes_in for rec in run.passes)
        / max(1, ops),
        # Both rates as measured: the inline reference is not corrected.
        "edge_overhead_vs_inline": (inline_rate / raw["ops_per_s"]
                                    if raw["ops_per_s"] else 0.0),
        "uncorrected": raw,
        "host_probe_ms": run.speed.summary(),
        "samples": samples,
    }
    return e2e, witness


def tenant_counters(run: ServedRun) -> dict[str, float]:
    """Supervisor and engine counters the tenants reported (stats verb)."""
    waves = applied = stale = backpressure = deltas = steps = ops = 0
    m_final: list[int] = []
    sizes: list[int] = []
    for rec in run.passes:
        for tenant in rec.tenants:
            service = tenant.stats.get("service", {})
            session = tenant.stats.get("session", {})
            waves += int(service.get("waves", 0))
            applied += int(service.get("applied_ops", 0))
            stale += int(service.get("stale_serves", 0))
            backpressure += int(service.get("backpressure_events", 0))
            deltas += int(session.get("deltas", 0))
            steps += int(session.get("stabilize_steps", 0))
            ops += tenant.ops
            if session:
                m_final.append(int(session.get("m", 0)))
                sizes.append(int(session.get("solution_size", 0)))
    return {
        "service.supervisor.ops_per_wave": applied / max(1, waves),
        "service.supervisor.stale_serves": float(stale),
        "service.supervisor.backpressure_events": float(backpressure),
        "core.fdrms.deltas_per_op": deltas / max(1, ops),
        "core.set_cover.stabilize_steps_per_op": steps / max(1, ops),
        "core.fdrms.m_final": measure.median(m_final),
        "core.fdrms.result_size": measure.median(sizes),
    }
