"""In-memory span tracer installed around the entry points of each layer.

The tracer patches methods and module functions in place: every call of
a patched callable becomes a span named ``<layer>:<qualname>``.
Aggregates are kept per span name (calls, inclusive seconds, self
seconds), because a run makes millions of engine calls and one record
per span would not fit in memory. Nothing is written until the caller
asks for :meth:`Tracer.snapshot`.

Self time is a span's duration minus the time covered by the spans it
caused (its children on the call stack). Coroutines are timed by their
active steps only: a span is pushed when the event loop resumes the
coroutine and popped when it suspends again, so time spent waiting on
the network is never charged to it.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from collections import deque
from typing import Any, Callable

import measure

_clock = time.perf_counter


class Tracer:
    """Span aggregator with a call stack for self-time accounting."""

    def __init__(self) -> None:
        self.enabled = False
        #: Open frames: ``[child_seconds]`` per active span.
        self._stack: list[list[float]] = []
        #: name -> [calls, inclusive_s, self_s]
        self.spans: dict[str, list[float]] = {}
        #: Seconds covered by spans with no parent (for the remainder).
        self.top_level_s = 0.0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stat(self, name: str) -> list[float]:
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        return stat

    def _close(self, stat: list[float], frame: list[float],
               start: float, count: bool) -> None:
        dur = _clock() - start
        stack = self._stack
        stack.pop()
        if count:
            stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[0]
        if stack:
            stack[-1][0] += dur
        else:
            self.top_level_s += dur

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A traced stand-in for ``fn`` (plain function or coroutine)."""
        stat = self._stat(name)
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_coro(*args: Any, **kwargs: Any) -> Any:
                coro = fn(*args, **kwargs)
                if not tracer.enabled:
                    return await coro
                return await _TimedAwait(tracer, stat, coro)
            return traced_coro

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stat, frame, start, True)
        return traced

    # -- patching --------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (class or module) by a traced wrapper.

        Class-, static- and instance methods keep their binding kind.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> dict[str, Any]:
        return {"spans": {name: list(stat)
                          for name, stat in sorted(self.spans.items())},
                "top_level_s": self.top_level_s}


class _TimedAwait:
    """Drive a coroutine step by step, timing only its active steps."""

    __slots__ = ("_tracer", "_stat", "_coro")

    def __init__(self, tracer: Tracer, stat: list[float], coro: Any) -> None:
        self._tracer = tracer
        self._stat = stat
        self._coro = coro

    def __await__(self) -> Any:
        tracer, stat, coro = self._tracer, self._stat, self._coro
        send_value: Any = None
        error: BaseException | None = None
        stat[0] += 1
        while True:
            frame = [0.0]
            tracer._stack.append(frame)
            start = _clock()
            try:
                if error is not None:
                    pending, error = error, None
                    yielded = coro.throw(pending)
                else:
                    yielded = coro.send(send_value)
            except StopIteration as stop:
                tracer._close(stat, frame, start, False)
                return stop.value
            except BaseException:
                tracer._close(stat, frame, start, False)
                raise
            tracer._close(stat, frame, start, False)
            try:
                send_value = yield yielded
            except BaseException as exc:  # forwarded into the coroutine
                error = exc
                send_value = None


class QueueWaitMeter:
    """FIFO accounting of supervisor admissions against applied waves.

    ``submit`` stamps the admitted operations; after every supervisor
    call the operations applied since the last look
    (``admitted_ops - pending_ops``) are popped in FIFO order and their
    wait is recorded as ``(seconds, op_count)`` pairs.
    """

    def __init__(self) -> None:
        #: supervisor -> (FIFO of [submit time, ops left], ops popped);
        #: weak keys, so a closed tenant's state goes with it.
        self._state: weakref.WeakKeyDictionary[Any, list[Any]] = \
            weakref.WeakKeyDictionary()
        self.waits: list[tuple[float, int]] = []

    def admitted(self, supervisor: Any, when: float, n_ops: int) -> None:
        if n_ops > 0:
            state = self._state.setdefault(supervisor, [deque(), 0])
            state[0].append([when, n_ops])

    def settle(self, supervisor: Any, now: float) -> None:
        state = self._state.get(supervisor)
        if state is None:
            return
        fifo = state[0]
        applied = supervisor.report.admitted_ops - supervisor.pending_ops
        due = applied - state[1]
        while due > 0 and fifo:
            head = fifo[0]
            take = min(due, head[1])
            self.waits.append((now - head[0], take))
            head[1] -= take
            due -= take
            state[1] += take
            if head[1] <= 0:
                fifo.popleft()

    def p50_ms(self) -> float:
        if not self.waits:
            return 0.0
        seconds, counts = zip(*self.waits)
        return 1e3 * measure.weighted_percentile(seconds, counts, 50)
