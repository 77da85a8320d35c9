"""ReplicaLocationIndex tests: both stores, expiry, wildcard restrictions."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter, BloomParameters
from repro.core.errors import MappingNotFoundError, WildcardNotSupportedError
from repro.core.rli import ReplicaLocationIndex
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


def make_rli(clock):
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    index = ReplicaLocationIndex(
        Connection(engine, "rli-test"), name="rli-test", timeout=60.0, clock=clock
    )
    index.init_schema()
    return index


@pytest.fixture
def rli(clock):
    return make_rli(clock)


def bloom_payload(names, entries=None):
    params = BloomParameters.for_entries(entries or max(len(names), 16))
    bf = BloomFilter.from_names(names, params)
    return bf.to_bytes(), params.num_bits, params.num_hashes, len(names)


class TestFullUpdates:
    def test_update_then_query(self, rli):
        rli.apply_full_update("lrcA", ["lfn1", "lfn2"])
        assert rli.query("lfn1") == ["lrcA"]

    def test_multiple_lrcs_same_lfn(self, rli):
        rli.apply_full_update("lrcA", ["shared"])
        rli.apply_full_update("lrcB", ["shared"])
        assert sorted(rli.query("shared")) == ["lrcA", "lrcB"]

    def test_query_missing_raises(self, rli):
        rli.apply_full_update("lrcA", ["lfn1"])
        with pytest.raises(MappingNotFoundError):
            rli.query("ghost")

    def test_repeat_update_refreshes_not_duplicates(self, rli):
        rli.apply_full_update("lrcA", ["lfn1"])
        rli.apply_full_update("lrcA", ["lfn1"])
        assert rli.query("lfn1") == ["lrcA"]
        assert rli.mapping_count() == 1

    def test_returns_count(self, rli):
        assert rli.apply_full_update("lrcA", ["a", "b", "c"]) == 3

    def test_bulk_query(self, rli):
        rli.apply_full_update("lrcA", ["a", "b"])
        assert rli.bulk_query(["a", "b", "missing"]) == {
            "a": ["lrcA"],
            "b": ["lrcA"],
        }


class TestIncrementalUpdates:
    def test_adds_applied(self, rli):
        rli.apply_incremental_update("lrcA", ["new1"], [])
        assert rli.query("new1") == ["lrcA"]

    def test_removes_applied(self, rli):
        rli.apply_full_update("lrcA", ["x"])
        rli.apply_incremental_update("lrcA", [], ["x"])
        with pytest.raises(MappingNotFoundError):
            rli.query("x")

    def test_remove_respects_other_lrcs(self, rli):
        rli.apply_full_update("lrcA", ["x"])
        rli.apply_full_update("lrcB", ["x"])
        rli.apply_incremental_update("lrcA", [], ["x"])
        assert rli.query("x") == ["lrcB"]

    def test_remove_unknown_name_is_noop(self, rli):
        rli.apply_incremental_update("lrcA", [], ["never-seen"])  # no raise


class TestBloomStore:
    def test_update_and_query(self, rli):
        payload, nbits, k, n = bloom_payload(["lfn1", "lfn2"])
        rli.apply_bloom_update("lrcA", payload, nbits, k, n)
        assert rli.query("lfn1") == ["lrcA"]
        assert rli.bloom_filter_count() == 1

    def test_replacement_not_accumulation(self, rli):
        p1 = bloom_payload(["old"])
        rli.apply_bloom_update("lrcA", *p1)
        p2 = bloom_payload(["new"])
        rli.apply_bloom_update("lrcA", *p2)
        assert rli.query("new") == ["lrcA"]
        with pytest.raises(MappingNotFoundError):
            rli.query("old")
        assert rli.bloom_filter_count() == 1

    def test_combined_stores_in_one_query(self, rli):
        rli.apply_full_update("lrc-db", ["shared"])
        rli.apply_bloom_update("lrc-bloom", *bloom_payload(["shared"]))
        assert sorted(rli.query("shared")) == ["lrc-bloom", "lrc-db"]

    def test_multiple_filters_checked(self, rli):
        for i in range(5):
            rli.apply_bloom_update(f"lrc{i}", *bloom_payload([f"only{i}", "common"]))
        assert rli.query("only3") == ["lrc3"]
        assert len(rli.query("common")) == 5

    def test_stats(self, rli):
        rli.apply_bloom_update("lrcA", *bloom_payload(["a"]))
        rli.apply_bloom_update("lrcA", *bloom_payload(["a", "b"]))
        stats = rli.bloom_stats()["lrcA"]
        assert stats["updates_received"] == 2
        assert stats["size_bytes"] > 0


class TestWildcard:
    def test_wildcard_on_relational_store(self, rli):
        rli.apply_full_update("lrcA", ["run1/a", "run1/b", "run2/c"])
        hits = rli.query_wildcard("run1/*")
        assert sorted(lfn for lfn, _ in hits) == ["run1/a", "run1/b"]

    def test_wildcard_rejected_with_bloom_state(self, rli):
        """Paper §5.4: wildcard searches impossible with Bloom compression."""
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        with pytest.raises(WildcardNotSupportedError):
            rli.query_wildcard("x*")


class TestExpiry:
    def test_stale_mappings_expire(self, rli, clock):
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(61.0)
        assert rli.expire_once() == 1
        with pytest.raises(MappingNotFoundError):
            rli.query("lfn1")

    def test_fresh_mappings_survive(self, rli, clock):
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(30.0)
        assert rli.expire_once() == 0
        assert rli.query("lfn1") == ["lrcA"]

    def test_refresh_extends_lifetime(self, rli, clock):
        """The soft-state contract: periodic updates keep entries alive."""
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(40.0)
        rli.apply_full_update("lrcA", ["lfn1"])  # refresh
        clock.advance(40.0)  # 80s after first, 40s after refresh
        rli.expire_once()
        assert rli.query("lfn1") == ["lrcA"]

    def test_partial_expiry(self, rli, clock):
        rli.apply_full_update("lrcA", ["old"])
        clock.advance(40.0)
        rli.apply_full_update("lrcB", ["new"])
        clock.advance(30.0)  # old at 70s, new at 30s
        assert rli.expire_once() == 1
        assert rli.query("new") == ["lrcB"]

    def test_bloom_filters_expire(self, rli, clock):
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        clock.advance(61.0)
        assert rli.expire_once() == 1
        assert rli.bloom_filter_count() == 0

    def test_bloom_refresh_survives(self, rli, clock):
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        clock.advance(40.0)
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        clock.advance(40.0)
        rli.expire_once()
        assert rli.bloom_filter_count() == 1

    def test_lfn_rows_pruned_when_last_mapping_expires(self, rli, clock):
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(61.0)
        rli.expire_once()
        assert rli.conn.execute("SELECT COUNT(*) FROM t_lfn").scalar() == 0


class TestManagement:
    def test_lrc_list_combines_stores(self, rli):
        rli.apply_full_update("db-lrc", ["a"])
        rli.apply_bloom_update("bloom-lrc", *bloom_payload(["b"]))
        assert rli.lrc_list() == ["bloom-lrc", "db-lrc"]

    def test_updates_applied_counter(self, rli):
        rli.apply_full_update("a", ["x"])
        rli.apply_incremental_update("a", ["y"], [])
        rli.apply_bloom_update("b", *bloom_payload(["z"]))
        assert rli.updates_applied == 3


class TestBloomState:
    def test_snapshot_tracks_replacement_and_expiry(self, rli, clock):
        rli.apply_bloom_update("lrcA", *bloom_payload(["a"]))
        first = rli.bloom_state()["lrcA"]
        assert "a" in first
        rli.apply_bloom_update("lrcA", *bloom_payload(["b"]))
        assert rli.bloom_state()["lrcA"] is not first
        assert "a" in first  # an old snapshot is never mutated
        clock.advance(61.0)
        rli.expire_once()
        assert rli.bloom_state() == {}


JOIN = (
    "SELECT c.name FROM t_lfn l JOIN t_map m ON l.id = m.lfn_id "
    "JOIN t_lrc c ON m.pfn_id = c.id WHERE l.name = ?"
)


def oracle(rli, filters, lfn):
    """The join, then every filter holding ``lfn``, deduplicated in order."""
    table = [r[0] for r in rli.conn.execute(JOIN, [lfn]).rows]
    blooms = [name for name, bloom in filters.items() if lfn in bloom]
    return list(dict.fromkeys(table + blooms))


def check_against_oracle(rli, filters, names):
    expected = {lfn: oracle(rli, filters, lfn) for lfn in names}
    for lfn, hits in expected.items():
        if hits:
            assert rli.query(lfn) == hits
        else:
            with pytest.raises(MappingNotFoundError):
                rli.query(lfn)
    assert rli.bulk_query(names) == {n: h for n, h in expected.items() if h}


NAMES = [f"n{i}" for i in range(8)]
UNHELD = ["ghost0", "ghost1"]
FILTER_SIZES = [16, 300]  # 1024 and 3000 bits
name_sets = st.lists(st.sampled_from(NAMES), max_size=5, unique=True)
operations = st.one_of(
    st.tuples(
        st.just("bloom"),
        st.sampled_from(["b0", "b1", "b2"]),
        name_sets,
        st.sampled_from(FILTER_SIZES),
    ),
    st.tuples(st.just("full"), st.sampled_from(["r0", "r1"]), name_sets),
    st.tuples(
        st.just("incremental"), st.sampled_from(["r0", "r1"]), name_sets, name_sets
    ),
    st.tuples(st.just("expire"), st.sampled_from([0.0, 25.0, 45.0, 70.0])),
)


class TestQueryProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(operations, max_size=20))
    def test_query_and_bulk_query_match_oracle(self, ops):
        """Random interleavings of both stores' updates and expiry."""
        clock = FakeClock()
        rli = make_rli(clock)
        # The model's own view of the Bloom store: lrc -> (filter, received).
        model: dict[str, tuple[BloomFilter, float]] = {}
        for op in ops:
            kind = op[0]
            if kind == "bloom":
                _, lrc, names, size = op
                payload = bloom_payload(names, entries=size)
                rli.apply_bloom_update(lrc, *payload)
                params = BloomParameters(payload[1], payload[2])
                model[lrc] = (BloomFilter.from_bytes(payload[0], params), clock())
            elif kind == "full":
                rli.apply_full_update(op[1], op[2])
            elif kind == "incremental":
                rli.apply_incremental_update(op[1], op[2], op[3])
            else:
                clock.advance(op[1])
                rli.expire_once()
                cutoff = clock() - rli.timeout
                model = {
                    lrc: (bloom, at)
                    for lrc, (bloom, at) in model.items()
                    if at >= cutoff
                }
            filters = {lrc: bloom for lrc, (bloom, _at) in model.items()}
            check_against_oracle(rli, filters, NAMES + UNHELD)

    def test_relational_store_empty_then_full_then_empty(self, rli, clock):
        """The join is skipped only while ``t_map`` holds no rows."""
        rli.apply_bloom_update("b0", *bloom_payload(["x", "y"]))
        filters = rli.bloom_state()
        executed = []
        execute = rli.conn.execute

        def counting_execute(sql, params=()):
            executed.append(sql)
            return execute(sql, params)

        rli.conn.execute = counting_execute
        check_against_oracle(rli, filters, ["x", "y", "ghost"])
        executed.clear()
        assert rli.query("x") == ["b0"]
        assert rli.bulk_query(["x", "ghost"]) == {"x": ["b0"]}
        assert executed == []  # no SQL at all on the Bloom-only path

        rli.apply_full_update("r0", ["x", "z"])
        check_against_oracle(rli, filters, ["x", "y", "z", "ghost"])
        assert rli.query("x") == ["r0", "b0"]
        assert rli.query("z") == ["r0"]

        rli.apply_incremental_update("r0", [], ["x"])
        assert rli.query("x") == ["b0"]
        clock.advance(61.0)
        rli.apply_bloom_update("b0", *bloom_payload(["x", "y"]))
        filters = rli.bloom_state()
        rli.expire_once()
        assert rli.mapping_count() == 0
        check_against_oracle(rli, filters, ["x", "y", "z", "ghost"])
        executed.clear()
        assert rli.query("x") == ["b0"]
        assert executed == []

    def test_bulk_query_equals_per_name_query(self, rli):
        rli.apply_full_update("r0", ["a", "shared"])
        rli.apply_bloom_update("b0", *bloom_payload(["b", "shared"]))
        names = ["a", "b", "shared", "missing", "also-missing"]
        expected = {}
        for lfn in names:
            try:
                expected[lfn] = rli.query(lfn)
            except MappingNotFoundError:
                pass
        assert set(expected) >= {"a", "b", "shared"}
        assert rli.bulk_query(names) == expected


class TestConcurrentReplacement:
    def test_queries_racing_replacements_never_miss(self, rli):
        """A filter replaced mid-query is seen whole: old or new, never none."""
        payloads = [
            bloom_payload(["target", f"other{i}"], entries=size)
            for i, size in enumerate(FILTER_SIZES * 2)
        ]
        rli.apply_bloom_update("b0", *payloads[0])
        rli.apply_bloom_update("b1", *bloom_payload(["unrelated"]))
        readers = 3
        start = threading.Barrier(readers + 1, timeout=30)
        writing = threading.Event()
        writing.set()
        misses = []

        def replace():
            start.wait()
            for i in range(2000):
                rli.apply_bloom_update("b0", *payloads[i % len(payloads)])
            writing.clear()

        def read():
            start.wait()
            for _ in range(20000):  # bounded; normally ends with the writer
                if "b0" not in rli.query("target"):
                    misses.append("query")
                if "b0" not in rli.bulk_query(["target"]).get("target", []):
                    misses.append("bulk_query")
                if not writing.is_set():
                    break

        threads = [threading.Thread(target=replace)]
        threads += [threading.Thread(target=read) for _ in range(readers)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not writing.is_set()
        assert misses == []
