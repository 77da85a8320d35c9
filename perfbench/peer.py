"""Generator process for one measured connection.

Started by ``run.Peer`` as ``python3 perfbench/peer.py``.  It reads pickled
command tuples from standard input and answers each with one pickled reply
on standard output; the first message names the connection, the workload
class and seed, and whether to trace.  Both ends are the benchmark's own
code.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def run_loop(workload, conn: int, client, deadline: float):
    """One connection's loop for one window: (tally, generator CPU s)."""
    from workloads import Tally

    tally, cpu0 = Tally(), _own_cpu()
    try:
        workload.loop(conn, client, deadline, tally)
    except Exception as exc:  # a loop that dies fails the run, not hangs it
        tally.fail(f"conn {conn} loop died: {type(exc).__name__}: {exc}")
    return tally, _own_cpu() - cpu0


def _own_cpu() -> float:
    times = os.times()
    return times.user + times.system


def main() -> int:
    import run
    import spans

    inp, out = sys.stdin.buffer, sys.stdout.buffer

    def reply(value) -> None:
        pickle.dump(value, out)
        out.flush()

    conn, module, cls_name, seed, trace = pickle.load(inp)
    recorder = spans.SpanRecorder()
    if trace:
        spans.install_client(recorder)
    workload = getattr(importlib.import_module(module), cls_name)(seed)
    client = None
    reply("ready")
    while True:
        try:
            command, *args = pickle.load(inp)
        except EOFError:
            command = "quit"
        if command == "connect":
            client = run.connect(args[0], f"conn{conn}")
            reply(None)
        elif command == "close":
            if client is not None:
                client.close()
                client = None
            reply(None)
        elif command == "window":
            workload.begin_window()
            reply(run_loop(workload, conn, client, args[0]))
        elif command == "trace-start":
            recorder.start()
            reply(None)
        elif command == "trace-stop":
            recorder.stop()
            reply(recorder.dump())
        else:
            if client is not None:
                client.close()
            return 0


if __name__ == "__main__":
    sys.exit(main())
