"""Tiny-size self-test of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that every end-to-end and per-layer metric of ``BENCHMARK.json`` is
printed with its unit on every workload, that each answer check rejects a
deliberately wrong answer, that rows examined per operation come out exact
on known queries, and that on one traced operation the layer self times,
recomputed from the kept spans, add up to the span's total.
"""

from __future__ import annotations

import json
import random
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TinyCatalog(workloads.CatalogRW):
    size = 300


class TinyRLI(workloads.RLIBloom):
    lrcs = 4
    per_lrc = 200
    push_interval = 0.05


class TinyBulk(workloads.BulkSoftState):
    size = 1000
    batch = 50
    rli_sample = 20


TINY = [TinyCatalog, TinyRLI, TinyBulk]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_printed_with_its_unit(workload, trace):
    result = run.run(workload(seed=3), seconds=0.4, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], float)
    if not trace:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# -- answer checks reject wrong answers ---------------------------------------


def test_catalog_read_check():
    w = TinyCatalog(seed=1)
    names = w.names
    assert w.check_read(5, [names.pfn("p", 5)])
    assert w.check_read(5, [names.pfn("p", 5), names.replica(5)])
    assert not w.check_read(5, [names.replica(5)])
    assert not w.check_read(5, [names.pfn("p", 6)])
    assert not w.check_read(5, [names.pfn("p", 5), names.pfn("p", 6)])
    assert not w.check_read(5, [names.pfn("p", 5)] * 2)


def test_rli_lookup_check():
    w = TinyRLI(seed=1)
    owner = w.lrc_names[2]
    assert w.check_lookup(2, [owner, w.lrc_names[0]]) == (True, 1)
    assert w.check_lookup(2, [w.lrc_names[0]])[0] is False
    assert w.check_lookup(2, None)[0] is False
    assert w.check_lookup(None, None) == (True, 0)
    assert w.check_lookup(None, [owner]) == (True, 1)


class FakeClient:
    """Answers like a server whose catalogue has one wrong mapping."""

    def __init__(
        self, w: workloads.BulkSoftState, lrc: str = workloads.SERVER_NAME
    ) -> None:
        self.w, self.lrc = w, lrc

    def bulk_query(self, lfns):
        got = {}
        for i in range(self.w.size):
            got[self.w.names.lfn("p", i)] = [self.w.names.pfn("p", i)]
        wrong = self.w.names.lfn("p", 0)
        got[wrong] = ["gsiftp://elsewhere/x"]
        return {n: got[n] for n in lfns if n in got}

    def trigger_full_update(self):
        return 0.1

    def rli_bulk_query(self, lfns):
        return {n: [self.lrc] for n in lfns}

    def rebuild_bloom(self):
        return 0.1

    def verify(self):
        return ["t_map row 1 references missing t_lfn"]

    def mapping_count(self):
        return self.w.size - 1


def test_bulk_checks():
    w = TinyBulk(seed=1)
    w.batch = w.size  # the sample then holds the one wrong name
    t = workloads.Tally()
    w.sample_check(FakeClient(w), random.Random(0), t)
    assert t.failed == 1

    t = workloads.Tally()
    w._soft_state(FakeClient(w, lrc="someone-else"), random.Random(0), t)
    assert t.failed == 1 and "RLI lacks" in t.problems[0]

    t = workloads.Tally()
    w.final_check(FakeClient(w), t)
    assert t.failed == 2


def test_catalog_final_check():
    w = TinyCatalog(seed=1)
    t = workloads.Tally()
    w.final_check(FakeClient(TinyBulk(seed=1)), t)
    assert t.failed == 2


def test_false_lrc_check():
    w = TinyRLI(seed=1)
    t = workloads.Tally()
    t.latencies["rli_query"] = [0.001] * 100
    t.counts["false_lrcs"] = 100 * 2 * w.expected_false
    w.final_check(None, t)
    assert t.failed == 1
    t = workloads.Tally()
    t.latencies["rli_query"] = [0.001] * 100
    t.counts["false_lrcs"] = 100 * w.expected_false
    w.final_check(None, t)
    assert t.failed == 0


# -- counts from the server's own counters -------------------------------------


def test_rows_examined_per_op_on_known_queries():
    server = run.ServerProcess("lrc", trace=False)
    try:
        with run.connect(server.port, "setup") as admin, \
                run.connect(server.port, "conn0") as client:
            for i in range(5):
                admin.create(f"lfn://selftest/{i}", f"gsiftp://se/{i}")
            before = run._counters(admin)
            for i in range(10):
                client.get_mappings(f"lfn://selftest/{i % 5}")
            delta = run._delta(before, run._counters(admin))
    finally:
        server.close()
    # One get_mappings examines its LFN row, its one map row and its PFN
    # row.  The counter reads themselves are admin calls and do not count.
    assert delta["usage.requests{class=query}"] == 10
    assert delta["usage.rows_examined{class=query}"] == 30
    assert run.rows_examined_per_op(delta) == 3


# -- one traced operation ------------------------------------------------------


def test_layer_self_times_add_up_on_one_traced_operation():
    from repro.core.client import connect_tcp_server

    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "spans-selftest.json"
    server = run.ServerProcess("lrc", trace=True)
    try:
        with connect_tcp_server("127.0.0.1", server.port) as client:
            client.create("lfn://selftest/a", "gsiftp://se/a")
            server.command("trace-start")
            client.add("lfn://selftest/a", "gsiftp://se/b")
            totals = run.Totals(server.command(f"trace-stop {path}")["totals"])
    finally:
        server.close()
    data = json.loads(path.read_text())
    rows = [dict(zip(data["fields"], s)) for s in data["spans"]]
    add = [r for r in rows if r["op"] == "add"]
    (handle,) = [r for r in add if r["name"] == "net.handle"]
    child_time: dict[int, float] = defaultdict(float)
    for r in add:
        child_time[r["parent"]] += r["end"] - r["start"]
    under_handle = [r for r in add if r["name"] != "net.codec"]
    assert {r["req"] for r in add} == {handle["req"]}
    assert {r["name"].split(".")[0] for r in under_handle} >= {
        "net", "security", "lrc", "db", "wal", "obs",
    }
    self_sum = sum(r["end"] - r["start"] - child_time[r["id"]] for r in under_handle)
    total = handle["end"] - handle["start"]
    assert self_sum == pytest.approx(total, rel=1e-9)
    # The recorder's running totals agree with the spans it kept.
    assert totals.self_s(ops={"add"}) - totals.self_s(
        ops={"add"}, name="net.codec"
    ) == pytest.approx(total, rel=1e-9)
    assert totals.count(ops={"add"}, name="db.execute") == sum(
        1 for r in add if r["name"] == "db.execute"
    )


def test_recorder_self_time_is_duration_minus_children():
    rec = spans.SpanRecorder()
    rec.start()
    outer = rec.enter("outer", True)
    inner = rec.enter("inner", False)
    rec.exit(inner)
    rec.exit(outer)
    totals = rec.totals()
    (count, self_s, dur, _), (icount, iself, idur, _) = (
        totals[(spans.BACKGROUND, "outer")], totals[(spans.BACKGROUND, "inner")]
    )
    assert count == icount == 1
    assert iself == idur
    assert self_s == pytest.approx(dur - idur)
