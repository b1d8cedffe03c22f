"""Run ``repro serve`` with the benchmark's span tracer installed.

Usage: ``python traced_server.py --spans-out FILE -- serve [serve args]``
(with ``src`` on ``PYTHONPATH``). The wrappers are installed before the
server starts; on shutdown (SIGINT) the span aggregates, the event
loop's idle time and the supervisor queue-wait median are written to
``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import selectors
import sys
import time

import layers
from tracer import QueueWaitMeter, Tracer


def install_queue_meter(meter: QueueWaitMeter) -> None:
    """FIFO accounting of ``submit`` against every supervisor return."""
    from repro.service.supervisor import SessionSupervisor

    def hook(name: str, is_submit: bool) -> None:
        original = getattr(SessionSupervisor, name)

        def wrapped(self, *args, **kwargs):
            start = time.perf_counter()
            out = original(self, *args, **kwargs)
            if is_submit:
                meter.admitted(self, start, int(out))
            meter.settle(self, time.perf_counter())
            return out
        setattr(SessionSupervisor, name, wrapped)

    hook("submit", True)
    for name in ("pump", "drain", "serve_reads"):
        hook(name, False)


def install_idle_meter(selector_cls: type) -> list[float]:
    """Seconds the event loop spends blocked in ``select``."""
    idle = [0.0]
    original = selector_cls.select

    def select(self, timeout=None):
        start = time.perf_counter()
        try:
            return original(self, timeout)
        finally:
            idle[0] += time.perf_counter() - start
    selector_cls.select = select
    return idle


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as repro_main

    tracer = Tracer()
    layers.install(tracer, service=True)
    meter = QueueWaitMeter()
    install_queue_meter(meter)
    idle = install_idle_meter(selectors.DefaultSelector)
    tracer.enabled = True
    start = time.perf_counter()
    try:
        code = repro_main(serve_args)
    finally:
        lifetime = time.perf_counter() - start
        tracer.enabled = False
        out = tracer.snapshot()
        out["lifetime_s"] = lifetime
        out["idle_s"] = idle[0]
        out["queue_wait_ms_p50"] = meter.p50_ms()
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
