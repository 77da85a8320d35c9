"""Benchmark server launcher: one RLS server process over TCP.

Run by ``perfbench/run.py`` as ``python3 perfbench/server.py --role ROLE
[--trace]``.  The server uses ``ServerConfig`` defaults apart from its role
and the TCP listener.  With ``--trace`` the layer wrappers of
:mod:`spans` are installed before the server is built; they record only
between the ``trace-start`` and ``trace-stop`` commands.

The launcher prints ``{"port": N}`` once the server listens, then serves
commands read one per line from standard input, answering each with one
JSON line on standard output:

* ``trace-start`` — clear and start span recording;
* ``trace-stop PATH`` — stop recording, write kept spans to ``PATH`` and
  answer with the per-(operation, span) totals;
* ``quit`` (or end of input) — stop the server and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=["lrc", "rli", "both"], required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import spans
    from workloads import SERVER_NAME

    recorder = spans.SpanRecorder()
    if args.trace:
        spans.install_server(recorder)

    from repro.core.config import ServerConfig, ServerRole
    from repro.core.server import RLSServer

    role = {
        "lrc": ServerRole.LRC,
        "rli": ServerRole.RLI,
        "both": ServerRole.BOTH,
    }[args.role]
    server = RLSServer(ServerConfig(name=SERVER_NAME, role=role, tcp=True))
    server.start()
    try:
        print(json.dumps({"port": server.tcp_address[1]}), flush=True)
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "quit":
                break
            if command == "trace-start":
                recorder.start()
                reply: dict = {"ok": True}
            elif command == "trace-stop":
                recorder.stop()
                dump = recorder.dump()
                spans.write_spans(arg, dump["spans"])
                reply = {"ok": True, "totals": dump["totals"]}
            else:
                reply = {"ok": False, "error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
