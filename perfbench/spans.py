"""In-memory span recorder for the benchmark's traced run.

The benchmark wraps the public entry point of each layer (see
:func:`install_server` and :func:`install_client`) before the program under
test is started, so nothing in ``src/`` knows it is being traced.  Each wrapped
call becomes a span: a name, start and end time, its parent span and a
request id.  Spans nest on a thread-local stack, so a span's *self* time
(its duration minus the time covered by its children) is exact, and the
self times of one request's spans add up to its root span's duration.

Spans are aggregated as they close into per-thread totals keyed by
``(operation, span name)``; the first :data:`KEEP_SPANS` spans are also kept
whole and written out when the run ends.  Recording is off until
:meth:`SpanRecorder.start` and costs one attribute test per call while off.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Iterable

_clock = time.perf_counter

#: RPC method -> operation name used to key every span of that request.
OPS: dict[str, str] = {
    "lrc_get_mappings": "query",
    "lrc_create_mapping": "add",
    "lrc_add_mapping": "add",
    "lrc_delete_mapping": "delete",
    "rli_query": "rli_query",
    "rli_bloom_update": "bloom_update",
    "lrc_bulk_query": "bulk_query",
    "lrc_bulk_create": "bulk_write",
    "lrc_bulk_delete": "bulk_write",
    "admin_trigger_full_update": "full_update",
    "admin_rebuild_bloom": "rebuild_bloom",
}

#: Spans kept whole per process and written out when the run ends.
KEEP_SPANS = 20000

#: Operation of spans opened outside any request (server daemons).
BACKGROUND = "background"
#: Operation of requests the benchmark does not classify (admin, checks).
OTHER = "other"


def op_of(method: str) -> str:
    return OPS.get(method, OTHER)


class _Frame:
    __slots__ = ("id", "parent", "name", "start", "child", "size", "req")

    def __init__(self, id: int, parent: int, name: str, start: float, req: int):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0.0
        self.size = 0
        self.req = req


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.op = BACKGROUND
        self.req = 0
        self.totals: dict[tuple[str, str], list[float]] | None = None


class SpanRecorder:
    """Thread-safe span stacks with exact self-time aggregation."""

    def __init__(self) -> None:
        self.enabled = False
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        self._thread_totals: list[dict[tuple[str, str], list[float]]] = []
        self._ids = itertools.count(1)
        self._reqs = itertools.count(1)
        self.kept: list[tuple] = []

    # -- control ---------------------------------------------------------

    def start(self) -> None:
        """Clear everything recorded so far and start recording."""
        with self._lock:
            for totals in self._thread_totals:
                totals.clear()
            self.kept = []
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def totals(self) -> dict[tuple[str, str], list[float]]:
        """Merged ``(op, name) -> [count, self_s, duration_s, size]``."""
        merged: dict[tuple[str, str], list[float]] = {}
        with self._lock:
            per_thread = [dict(t) for t in self._thread_totals]
        for totals in per_thread:
            for key, (count, self_s, dur_s, size) in totals.items():
                acc = merged.setdefault(key, [0, 0.0, 0.0, 0])
                acc[0] += count
                acc[1] += self_s
                acc[2] += dur_s
                acc[3] += size
        return merged

    def dump(self) -> dict[str, Any]:
        """Aggregates plus kept spans, JSON-ready."""
        return {
            "totals": [
                [op, name, *values] for (op, name), values in self.totals().items()
            ],
            "spans": list(self.kept),
        }

    # -- recording ---------------------------------------------------------

    def set_op(self, op: str) -> None:
        self._tls.op = op

    def depth(self) -> int:
        """Spans open on this thread."""
        return len(self._tls.stack)

    def enter(self, name: str, new_request: bool) -> _Frame:
        tls = self._tls
        stack = tls.stack
        if stack:
            parent = stack[-1].id
        else:
            parent = 0
            if new_request:
                tls.req = next(self._reqs)
        frame = _Frame(next(self._ids), parent, name, _clock(), tls.req)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = _clock()
        tls = self._tls
        stack = tls.stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        totals = tls.totals
        if totals is None:
            totals = tls.totals = {}
            with self._lock:
                self._thread_totals.append(totals)
        key = (tls.op, frame.name)
        acc = totals.get(key)
        if acc is None:
            acc = totals[key] = [0, 0.0, 0.0, 0]
        acc[0] += 1
        acc[1] += duration - frame.child
        acc[2] += duration
        acc[3] += frame.size
        if len(self.kept) < KEEP_SPANS:
            self.kept.append(
                (frame.req, tls.op, frame.name, frame.start, end,
                 frame.id, frame.parent)
            )


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _plain(rec: SpanRecorder, fn: Callable, name: str, new_request: bool):
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = rec.enter(name, new_request)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _call(rec: SpanRecorder, fn: Callable):
    """``RPCClient.call(self, method, *args)``: the client request root."""

    def wrapper(self, method, *args):
        if not rec.enabled:
            return fn(self, method, *args)
        rec.set_op(op_of(method))
        frame = rec.enter("net.call", True)
        try:
            return fn(self, method, *args)
        finally:
            rec.exit(frame)
            rec.set_op(BACKGROUND)

    wrapper.__wrapped__ = fn
    return wrapper


def _handle(rec: SpanRecorder, fn: Callable):
    """``RPCServer.handle(self, ctx, request, ...)``: the server dispatch."""

    def wrapper(self, ctx, request, *args, **kwargs):
        if not rec.enabled:
            return fn(self, ctx, request, *args, **kwargs)
        rec.set_op(op_of(request.method))
        frame = rec.enter("net.handle", False)
        try:
            return fn(self, ctx, request, *args, **kwargs)
        finally:
            rec.exit(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _decode(rec: SpanRecorder, fn: Callable, sets_op: bool):
    """``message_from_bytes(data)``; on the server it opens a request and
    learns its operation from the decoded message."""

    def wrapper(data, *args, **kwargs):
        if not rec.enabled:
            return fn(data, *args, **kwargs)
        frame = rec.enter("net.codec", sets_op)
        frame.size = len(data)
        message = None
        try:
            message = fn(data, *args, **kwargs)
            return message
        finally:
            if sets_op and rec.depth() == 1:
                method = getattr(message, "method", None)
                rec.set_op(op_of(method) if method else OTHER)
            rec.exit(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _encode(rec: SpanRecorder, fn: Callable):
    """``encode_message_into(out, message)``; size is the bytes appended."""

    def wrapper(out, message):
        if not rec.enabled:
            return fn(out, message)
        frame = rec.enter("net.codec", False)
        before = len(out)
        try:
            return fn(out, message)
        finally:
            frame.size = len(out) - before
            rec.exit(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _sized(rec: SpanRecorder, fn: Callable, name: str):
    """Method whose first argument is a batch; size is its length."""

    def wrapper(self, items, *args, **kwargs):
        if not rec.enabled:
            return fn(self, items, *args, **kwargs)
        frame = rec.enter(name, True)
        try:
            frame.size = len(items)
        except TypeError:
            pass
        try:
            return fn(self, items, *args, **kwargs)
        finally:
            rec.exit(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _public_methods(cls: type) -> Iterable[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


def install_server(rec: SpanRecorder) -> None:
    """Wrap each server-side layer boundary (call before building the server)."""
    from repro.core import bloom, lrc, rli, updates
    from repro.db import engine, profiler, wal
    from repro.net import rpc, transport
    from repro.obs import flight, usage
    from repro.security import authorizer

    transport.message_from_bytes = _decode(rec, transport.message_from_bytes, True)
    transport.encode_message_into = _encode(rec, transport.encode_message_into)
    rpc.RPCServer.handle = _handle(rec, rpc.RPCServer.handle)
    plain = [
        (authorizer.Authorizer, "check", "security.check"),
        (engine.Database, "execute", "db.execute"),
        (wal.WriteAheadLog, "log", "wal.log"),
        (wal.InMemoryLogDevice, "sync", "wal.sync"),
        (profiler.QueryProfiler, "record", "obs.profiler_record"),
        (usage.UsageAccountant, "account", "obs.usage_account"),
        (flight.FlightRecorder, "record", "obs.flight_record"),
        (bloom.BloomFilter, "__contains__", "bloom.probe"),
        (updates.UpdateManager, "send_full_update", "updates.full_push"),
        (updates.UpdateManager, "send_incremental_update", "updates.incremental"),
        (updates.UpdateManager, "rebuild_bloom", "updates.rebuild_bloom"),
    ]
    plain += [
        (lrc.LocalReplicaCatalog, m, f"lrc.{m}")
        for m in _public_methods(lrc.LocalReplicaCatalog)
    ]
    plain += [
        (rli.ReplicaLocationIndex, m, f"rli.{m}")
        for m in _public_methods(rli.ReplicaLocationIndex)
    ]
    for owner, attr, name in plain:
        setattr(owner, attr, _plain(rec, getattr(owner, attr), name, True))
    bloom.CountingBloomFilter.add_batch = _sized(
        rec, bloom.CountingBloomFilter.add_batch, "bloom.build"
    )


def install_client(rec: SpanRecorder) -> None:
    """Wrap the generator's own client-side calls and codec."""
    from repro.net import rpc, transport

    transport.message_from_bytes = _decode(rec, transport.message_from_bytes, False)
    transport.encode_message_into = _encode(rec, transport.encode_message_into)
    rpc.RPCClient.call = _call(rec, rpc.RPCClient.call)


def write_spans(path: str, spans: list[tuple]) -> None:
    fields = ["req", "op", "name", "start", "end", "id", "parent"]
    with open(path, "w") as fh:
        json.dump({"fields": fields, "spans": spans}, fh)
