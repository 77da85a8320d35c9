"""The repository benchmark: a load generator drives one RLS server over TCP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/`` must be there).  The
server is a separate process (``perfbench/server.py``) with
``ServerConfig`` defaults.  Each measured connection is driven by a
generator process of its own (``perfbench/peer.py``); each generates every
name and draw from ``--seed``, runs its closed loop for a window and
checks every answer.  This process keeps one connection of its own for
set-up, the server's counters and the final checks.

``--trace 0`` sets a server up three times (``setup_s`` is the median),
measures an untraced window of a third of ``--seconds`` on each, and
prints the end-to-end metrics pooled over the three.  ``--trace 1``
measures half of ``--seconds`` on a server and generators with no
wrappers (server counters read at the window's edges, process accounting,
client p50), then half on a fresh set-up with the layer wrappers of
:mod:`spans` recording in every process, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  A human-readable
report goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUPS = 3
#: Allowed |layer self times - server handle time| / client call time.
LAYER_SUM_TOLERANCE = 0.02
#: Largest share of RPCServer.handle time its own self time may take.  Seen:
#: 0.05-0.29 (bloom_update, whose filter bytes are unpacked in dispatch).
DISPATCH_SHARE_MAX = 0.5
#: Generator CPU share above which a run measures the generator, not the server.
GENERATOR_BOUND = 0.9
WATCHDOG_S = 170
ROLES = ("read", "write")
#: Usage classes of client requests (``repro.obs.slo.classify_method``).
CLIENT_CLASSES = ("query", "add", "bulk", "wildcard")

_clock = time.perf_counter


class ServerProcess:
    """The benchmark's server launcher as a child process."""

    def __init__(self, role: str, trace: bool) -> None:
        cmd = [sys.executable, str(HERE / "server.py"), "--role", role]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("server process exited before listening")
        self.port = json.loads(line)["port"]

    def command(self, text: str) -> dict[str, Any]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"server command {text!r}: {reply}")
        return reply

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5).
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:  # already gone
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def connect(port: int, principal: str):
    from repro.core.client import connect_tcp_server

    return connect_tcp_server("127.0.0.1", port, principal=principal)


class Peer:
    """A generator process of its own (``perfbench/peer.py``) for one
    measured connection.

    With both closed loops in one interpreter, the generator's own lock
    couples them: the read p50 of ``catalog-rw`` flipped between about 0.45
    and 1.3 ms within a run.  One process per connection leaves the server
    as the only place the loops meet.
    """

    def __init__(self, conn: int, workload, trace: bool) -> None:
        cls = type(workload)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "peer.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        self.send((conn, cls.__module__, cls.__qualname__, workload.seed, trace))

    def send(self, message) -> None:
        pickle.dump(message, self.proc.stdin)
        self.proc.stdin.flush()

    def recv(self):
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send(("quit",))
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Generator:
    """One :class:`Peer` per measured connection.  With ``trace`` each
    wraps its client-side calls and records spans when told to."""

    def __init__(self, workload, trace: bool) -> None:
        self.peers = [Peer(i, workload, trace) for i in range(workload.connections)]
        try:
            for peer in self.peers:
                if peer.recv() != "ready":
                    raise RuntimeError("generator process failed to start")
        except BaseException:
            self.close()
            raise

    def ask_all(self, *command) -> list:
        for peer in self.peers:
            peer.send(command)
        return [peer.recv() for peer in self.peers]

    def close(self) -> None:
        for peer in self.peers:
            peer.close()

    def __enter__(self) -> "Generator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Deployment:
    """One server process, the generator's connections to it, and this
    process's own connection for set-up, counters and checks."""

    def __init__(self, workload, gen: Generator, trace: bool) -> None:
        self.gen = gen
        self.client = None
        start = _clock()
        self.server = ServerProcess(workload.role, trace)
        try:
            self.client = connect(self.server.port, "setup")
            gen.ask_all("connect", self.server.port)
            workload.setup(self.client)
            workload.first_check(self.client)
        except BaseException:
            self.close()
            raise
        self.setup_s = _clock() - start

    def close(self) -> None:
        if self.client is not None:
            self.gen.ask_all("close")
            self.client.close()
            self.client = None
        self.server.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Window:
    """One measured stretch of closed-loop traffic on every connection."""

    def __init__(self, workload, dep: Deployment, seconds: float,
                 counters: bool = False) -> None:
        from workloads import Tally

        before = _counters(dep.client) if counters else None
        cpu0, t0 = dep.server.cpu_seconds(), _clock()
        results = dep.gen.ask_all("window", t0 + seconds)
        self.elapsed = _clock() - t0
        self.server_cpu = dep.server.cpu_seconds() - cpu0
        self.delta = _delta(before, _counters(dep.client)) if counters else None
        self.generator_cpus = [cpu for _, cpu in results]
        self.tally = Tally()
        for tally, _ in results:
            self.tally.merge(tally)
        self.roles = workload.roles

    def latencies(self, role: str) -> list[float]:
        return [
            x for op, r in self.roles.items() if r == role
            for x in self.tally.latencies.get(op, ())
        ]

    def requests(self) -> int:
        return sum(len(self.tally.latencies.get(op, ())) for op in self.roles)


def _counters(client) -> dict[str, float]:
    """Flat counter and histogram totals from the server's own telemetry.

    The usage accountant also mirrors its cells into ``usage.*`` counters;
    those are skipped here and taken once, per operation class, from
    ``admin_usage`` as ``usage.<field>{class=C}`` and ``usage.<field>``.
    """
    snap = client.metrics()
    flat: dict[str, float] = defaultdict(float)
    for key, value in snap["counters"].items():
        base = key.split("{", 1)[0]
        if base.startswith("usage."):
            continue
        flat[key] += value
        if base != key:
            flat[base] += value
    for key, hist in snap["histograms"].items():
        base = key.split("{", 1)[0]
        flat[base + ".count"] += hist["count"]
        flat[base + ".sum"] += hist["sum"]
    for classes in client.usage().get("principals", {}).values():
        for op_class, cell in classes.items():
            for field, value in cell.items():
                flat[f"usage.{field}{{class={op_class}}}"] += value
                flat[f"usage.{field}"] += value
    return dict(flat)


def rows_examined_per_op(delta: dict[str, float]) -> float:
    """Rows examined per client request, both from the same usage cells.

    Admin calls (the counter reads themselves, full updates, Bloom
    rebuilds) fall in the usage class ``other`` and are left out of both.
    """
    rows = sum(delta.get(f"usage.rows_examined{{class={c}}}", 0.0)
               for c in CLIENT_CLASSES)
    requests = sum(delta.get(f"usage.requests{{class={c}}}", 0.0)
                   for c in CLIENT_CLASSES)
    return _ratio(rows, requests)


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    import numpy

    return float(numpy.percentile(values, q))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(windows: list[Window], setups: list[float],
               rss_mb: list[float]) -> dict:
    """Pooled over the windows, one per set-up server."""
    def p50_ms(role: str) -> float:
        return _pct([x for w in windows for x in w.latencies(role)], 50) * 1e3

    return {
        "setup_s": (statistics.median(setups), "s"),
        "server_rss_mb": (statistics.median(rss_mb), "MB"),
        "read_p50_ms": (p50_ms("read"), "ms"),
        "write_p50_ms": (p50_ms("write"), "ms"),
    }


class Totals:
    """Span totals of one process: ``(op, name) -> [count, self, dur, size]``."""

    def __init__(self, rows: list[list]) -> None:
        self.rows = [(op, name, c, s, d, z) for op, name, c, s, d, z in rows]

    def select(self, ops=None, name=None, prefix=None):
        for op, nm, c, s, d, z in self.rows:
            if ops is not None and op not in ops:
                continue
            if name is not None and nm != name:
                continue
            if prefix is not None and not nm.startswith(prefix):
                continue
            yield c, s, d, z

    def count(self, **kw) -> float:
        return sum(r[0] for r in self.select(**kw))

    def self_s(self, **kw) -> float:
        return sum(r[1] for r in self.select(**kw))

    def dur(self, **kw) -> float:
        return sum(r[2] for r in self.select(**kw))

    def size(self, **kw) -> float:
        return sum(r[3] for r in self.select(**kw))

    def mean_dur(self, name: str, ops=None) -> float:
        return _ratio(self.dur(name=name, ops=ops), self.count(name=name, ops=ops))

    def mean_self(self, name: str, ops=None) -> float:
        return _ratio(self.self_s(name=name, ops=ops), self.count(name=name, ops=ops))


def per_layer(workload, untraced: Window, traced: Window,
              server: Totals, client: Totals) -> tuple[dict, list[str]]:
    """Per-layer metrics plus the problems found by the additivity check."""
    us, ms = 1e6, 1e3
    m: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    role_ops = {
        role: {op for op, r in workload.roles.items() if r == role}
        for role in ROLES
    }
    worst = 0.0
    for role, ops in role_ops.items():
        n_srv = server.count(ops=ops, name="net.handle")
        n_cli = client.count(ops=ops, name="net.call")
        call = _ratio(client.dur(ops=ops, name="net.call"), n_cli)
        handle = _ratio(server.dur(ops=ops, name="net.handle"), n_srv)

        def per_op(seconds: float) -> float:
            return _ratio(seconds, n_srv) * us

        m[f"net.call_us.{role}"] = (call * us, "us")
        m[f"net.call_p95_us.{role}"] = (_pct(untraced.latencies(role), 95) * us, "us")
        m[f"net.handle_us.{role}"] = (handle * us, "us")
        m[f"net.outside_handle_us.{role}"] = ((call - handle) * us, "us")
        m[f"net.codec_us.{role}"] = (
            (_ratio(client.dur(ops=ops, name="net.codec"), n_cli)
             + _ratio(server.dur(ops=ops, name="net.codec"), n_srv)) * us, "us")
        m[f"net.bytes_per_op.{role}"] = (
            _ratio(server.size(ops=ops, name="net.codec"), n_srv), "bytes")
        m[f"net.dispatch_self_us.{role}"] = (
            per_op(server.self_s(ops=ops, name="net.handle")), "us")
        m[f"lrc.self_us.{role}"] = (per_op(server.self_s(ops=ops, prefix="lrc.")), "us")
        m[f"db.execute_us.{role}"] = (per_op(server.self_s(ops=ops, prefix="db.")), "us")
        m[f"db.statements_per_op.{role}"] = (
            _ratio(server.count(ops=ops, name="db.execute"), n_srv), "count")
        m[f"obs.self_us.{role}"] = (per_op(server.self_s(ops=ops, prefix="obs.")), "us")
        m[f"wal.self_us.{role}"] = (per_op(server.self_s(ops=ops, prefix="wal.")), "us")
        # Additivity: every server span of these requests other than the
        # codec lies under RPCServer.handle, so their self times must sum
        # to the handle time; outside_handle is the rest of the call.  Spans
        # nest on one stack, so this only catches spans that leak outside
        # a request.  A layer whose wrapper is lost moves its time into
        # the dispatch self time instead, which the share check catches.
        layers = server.self_s(ops=ops) - server.self_s(ops=ops, name="net.codec")
        if n_srv:
            error = abs(layers / n_srv - handle) / call if call else 1.0
            worst = max(worst, error)
            if error > LAYER_SUM_TOLERANCE:
                problems.append(f"{role}: layer self times miss handle by {error:.2%}")
            share = _ratio(server.self_s(ops=ops, name="net.handle"),
                           server.dur(ops=ops, name="net.handle"))
            if share > DISPATCH_SHARE_MAX:
                problems.append(f"{role}: dispatch is {share:.0%} of handle time")
        if abs(n_srv - n_cli) > 0.01 * max(n_cli, 1):
            problems.append(f"{role}: {n_cli:.0f} client calls, {n_srv:.0f} handled")

    rli_q = {"rli_query"}
    n_rli = server.count(ops=rli_q, name="net.handle")
    m["security.check_us"] = (server.mean_dur("security.check") * us, "us")
    m["rli.query_self_us"] = (server.mean_self("rli.query") * us, "us")
    m["rli.relational_us"] = (
        _ratio(server.dur(ops=rli_q, name="db.execute"), n_rli) * us, "us")
    m["rli.bloom_apply_us"] = (server.mean_dur("rli.apply_bloom_update") * us, "us")
    m["rli.full_apply_s"] = (server.mean_dur("rli.apply_full_update"), "s")
    m["rli.incremental_apply_us"] = (
        server.mean_dur("rli.apply_incremental_update") * us, "us")
    m["bloom.probes_per_query"] = (
        _ratio(server.count(ops=rli_q, name="bloom.probe"), n_rli), "count")
    m["bloom.probe_us"] = (server.mean_self("bloom.probe") * us, "us")
    lookups = len(untraced.tally.latencies.get("rli_query", ()))
    m["bloom.false_lrcs_per_query"] = (
        _ratio(untraced.tally.counts.get("false_lrcs", 0.0), lookups), "count")
    m["bloom.build_names_per_s"] = (
        _ratio(server.size(name="bloom.build"), server.dur(name="bloom.build")), "1/s")
    soft = {"full_update", "rebuild_bloom"}
    m["updates.catalog_read_s"] = (server.mean_dur("lrc.all_lfns", ops=soft), "s")
    m["updates.full_push_s"] = (server.mean_dur("updates.full_push"), "s")
    m["updates.incremental_us"] = (server.mean_dur("updates.incremental") * us, "us")
    m["obs.profiler_record_us"] = (server.mean_self("obs.profiler_record") * us, "us")
    m["obs.usage_account_us"] = (server.mean_self("obs.usage_account") * us, "us")
    m["obs.flight_record_us"] = (server.mean_self("obs.flight_record") * us, "us")
    m["wal.sync_stall_ms"] = (
        (server.dur(name="wal.sync")
         - server.dur(name="wal.sync", ops={"background"})) * ms, "ms")

    # Exact counts from the server's own counters, untraced window.
    d = untraced.delta
    requests = untraced.requests()
    written = untraced.tally.counts.get("mappings_written", 0.0)
    user_bytes = untraced.tally.counts.get("user_bytes_written", 0.0)
    m["db.stmt_cache_hit_ratio"] = (_ratio(
        d.get("db.stmt_cache_hits", 0.0),
        d.get("db.stmt_cache_hits", 0.0) + d.get("db.stmt_cache_misses", 0.0)),
        "ratio")
    m["db.rows_examined_per_op"] = (rows_examined_per_op(d), "count")
    m["db.latch_wait_ms"] = (d.get("db.latch_wait.sum", 0.0) * ms, "ms")
    m["wal.records_per_mapping"] = (
        _ratio(d.get("wal.records_appended", 0.0), written), "count")
    m["wal.bytes_per_user_byte"] = (
        _ratio(d.get("usage.wal_bytes", 0.0), user_bytes), "ratio")
    m["wal.syncs"] = (d.get("wal.flush_latency.count", 0.0), "count")
    m["wal.lock_wait_ms"] = (d.get("db.wal_lock_wait.sum", 0.0) * ms, "ms")
    m["updates.incremental_pushes"] = (
        d.get("updates.sent{kind=incremental}", 0.0), "count")
    m["updates.names_sent"] = (d.get("updates.names_sent", 0.0), "count")

    m["proc.server_cpu_util"] = (
        _ratio(untraced.server_cpu, untraced.elapsed), "cores")
    m["proc.generator_cpu_util"] = (
        _ratio(max(untraced.generator_cpus), untraced.elapsed), "cores")
    m["proc.server_cpu_us_per_op"] = (
        _ratio(untraced.server_cpu, requests) * us, "us")
    base = _pct(untraced.latencies("read"), 50)
    m["trace.overhead_frac"] = (
        _ratio(_pct(traced.latencies("read"), 50) - base, base), "ratio")
    m["trace.layer_sum_error_frac"] = (worst, "ratio")
    return m, problems


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _report(workload, window: Window, lines: list[str]) -> None:
    tally = window.tally
    lines.append(f"window {window.elapsed:.2f} s")
    for op in sorted(tally.latencies):
        values = tally.latencies[op]
        lines.append(
            f"  {op:13s} n={len(values):6d}  p50 {_pct(values, 50) * 1e3:9.3f} ms"
            f"  p95 {_pct(values, 95) * 1e3:9.3f} ms"
            f"  {_ratio(tally.names[op], sum(values)):10.1f} names/s of call time"
        )
    utils = [_ratio(cpu, window.elapsed) for cpu in window.generator_cpus]
    lines.append(
        f"  cpu: server {_ratio(window.server_cpu, window.elapsed):.2f} cores, "
        "generator " + " + ".join(f"{u:.2f}" for u in utils) + " cores"
        + ("  ** GENERATOR-BOUND **" if max(utils) > GENERATOR_BOUND else "")
    )


def run(workload, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up, measure and check one workload; the result object to print."""
    import spans

    lines = [
        f"perfbench {workload.name} seed={workload.seed} seconds={seconds} "
        f"trace={int(trace)}",
        "settings: " + json.dumps(workload.settings()),
    ]
    attempted = failed = 0
    problems: list[str] = []
    if not trace:
        # One window on each set-up server: a server process's own speed
        # varies by several percent, so pooling three steadies every
        # metric at no extra cost.
        windows, setups, rss = [], [], []
        with Generator(workload, trace=False) as gen:
            for i in range(SETUPS):
                with Deployment(workload, gen, trace=False) as dep:
                    setups.append(dep.setup_s)
                    window = Window(workload, dep, seconds / SETUPS)
                    rss.append(dep.server.peak_rss_mb())
                    if i == SETUPS - 1:
                        workload.final_check(dep.client, window.tally)
                windows.append(window)
        lines.append("setup_s: " + " ".join(f"{s:.3f}" for s in setups))
        for window in windows:
            _report(workload, window, lines)
        metrics = end_to_end(windows, setups, rss)
    else:
        # The untraced window runs with no wrapper in any process, so
        # trace.overhead_frac includes what idle wrappers cost.
        with Generator(workload, trace=False) as gen, \
                Deployment(workload, gen, trace=False) as dep:
            untraced = Window(workload, dep, seconds / 2, counters=True)
        with Generator(workload, trace=True) as gen, \
                Deployment(workload, gen, trace=True) as dep:
            dep.server.command("trace-start")
            gen.ask_all("trace-start")
            traced = Window(workload, dep, seconds / 2)
            dumps = gen.ask_all("trace-stop")
            OUT.mkdir(exist_ok=True)
            reply = dep.server.command(
                f"trace-stop {OUT / f'spans-{workload.name}-server.json'}"
            )
            workload.final_check(dep.client, traced.tally)
        windows = [untraced, traced]
        spans.write_spans(
            str(OUT / f"spans-{workload.name}-client.json"),
            [span for dump in dumps for span in dump["spans"]],
        )
        for label, window in (("untraced", untraced), ("traced", traced)):
            lines.append(label + ":")
            _report(workload, window, lines)
        metrics, problems = per_layer(
            workload, untraced, traced, Totals(reply["totals"]),
            Totals([row for dump in dumps for row in dump["totals"]]),
        )
    for window in windows:
        attempted += window.tally.attempted
        failed += window.tally.failed
        problems += window.tally.problems
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        lines.append("PROBLEM: " + problem)
    print("\n".join(lines), file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        result = run(WORKLOADS[args.workload](args.seed), args.seconds,
                     bool(args.trace))
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
