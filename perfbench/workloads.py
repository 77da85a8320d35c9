"""The benchmark's three closed-loop workloads.

Every workload is a class with the same surface: its inputs are generated
from the seed in ``__init__`` (nothing else drives a name or a draw), its
set-up loads the server through the public client API, and ``loop`` runs
one connection's closed loop until a deadline, timing every call and
checking every answer.  Wrong answers and unexpected errors count as
failures in a :class:`Tally`; nothing is retried.

``catalog-rw`` and ``rli-bloom`` use two connections, ``bulk-softstate``
one.  Each connection is driven by its own generator process, so the
loops meet only at the server.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from collections import defaultdict
from typing import Any, Callable

from repro.core.bloom import BloomFilter, BloomParameters, false_positive_rate
from repro.core.errors import MappingNotFoundError
from repro.core.updates import RPCSink

#: Name of the server ``perfbench/server.py`` starts.
SERVER_NAME = "bench"

_clock = time.perf_counter
_MASK = (1 << 40) - 1
_MIX = 0x9E3779B97F  # odd: i -> i * _MIX + salt is a bijection mod 2**40
#: Mappings per ``bulk_create`` call while preloading a catalogue.
PRELOAD_CHUNK = 1000


class Tally:
    """One connection's measurements: latencies per operation, counts."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.names: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)

    def timed(self, op: str, fn: Callable[[], Any], names: int = 1) -> Any:
        """Run one call, record its latency under ``op``; ``None`` on error."""
        self.attempted += 1
        start = _clock()
        try:
            result = fn()
        except Exception as exc:  # counted, reported, and the loop goes on
            self.fail(f"{op}: {type(exc).__name__}: {exc}")
            return None
        self.latencies[op].append(_clock() - start)
        self.names[op] += names
        return result

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.fail(problem)

    def merge(self, other: "Tally") -> None:
        for op, values in other.latencies.items():
            self.latencies[op].extend(values)
        for op, n in other.names.items():
            self.names[op] += n
        for key, value in other.counts.items():
            self.counts[key] += value
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 10 - len(self.problems))])


class Names:
    """Seeded, collision-free logical and target names."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.tag = f"{rng.getrandbits(24):06x}"
        self.salt = rng.getrandbits(40)

    def _key(self, i: int) -> str:
        return f"{(i * _MIX + self.salt) & _MASK:010x}"

    def lfn(self, space: str, i: int) -> str:
        return f"lfn://{self.tag}/{space}/{self._key(i)}"

    def pfn(self, space: str, i: int) -> str:
        return f"gsiftp://se{i % 64:02d}.{self.tag}.example.org/{space}/{self._key(i)}"

    def replica(self, i: int) -> str:
        """The second replica the ``catalog-rw`` writer adds and removes."""
        return f"gsiftp://mirror.{self.tag}.example.org/p/{self._key(i)}"


class Zipf:
    """Zipf(s) draws over ``n`` items, ranks shuffled by the seed."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        self.cum = list(itertools.accumulate(r ** -s for r in range(1, n + 1)))
        self.perm = list(range(n))
        rng.shuffle(self.perm)

    def draw(self, rng: random.Random) -> int:
        return self.perm[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


def _load_catalog(client, names: Names, size: int) -> None:
    for start in range(0, size, PRELOAD_CHUNK):
        pairs = [
            (names.lfn("p", i), names.pfn("p", i))
            for i in range(start, min(size, start + PRELOAD_CHUNK))
        ]
        failures = client.bulk_create(pairs)
        if failures:
            raise RuntimeError(f"preload failed: {failures[:3]}")


class Workload:
    name = ""
    role = ""
    connections = 1
    #: operation -> "read" / "write": which end-to-end metric it feeds.
    roles: dict[str, str] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.names = Names(seed)
        self.window = 0

    def rng(self, conn: int) -> random.Random:
        """Independent draw stream per connection and measured window."""
        return random.Random(f"{self.seed}/{self.window}/{conn}")

    def settings(self) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self, client) -> None:
        """Load the server through the set-up connection."""
        raise NotImplementedError

    def first_check(self, client) -> None:
        raise NotImplementedError

    def begin_window(self) -> None:
        """Start a new measured window (fresh draws, fresh names)."""
        self.window += 1

    def loop(self, conn: int, client, deadline: float, t: Tally) -> None:
        """Connection ``conn``'s closed loop, until ``deadline``."""
        raise NotImplementedError

    def final_check(self, client, tally: Tally) -> None:
        pass


class CatalogRW(Workload):
    """Fig. 4-7 hot path: small LRC reads beside writes to the same rows."""

    name = "catalog-rw"
    role = "lrc"
    connections = 2
    roles = {"query": "read", "add": "write", "delete": "write"}
    size = 50_000
    zipf_s = 1.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.zipf = Zipf(self.size, self.zipf_s, random.Random(f"{seed}/zipf"))

    def settings(self) -> dict[str, Any]:
        return {
            "server": "LRC only", "preload_mappings": self.size,
            "connections": 2, "reads": f"get_mappings, Zipf({self.zipf_s})",
            "writes": "create fresh, add replica to Zipf-drawn, delete both",
        }

    def setup(self, client) -> None:
        _load_catalog(client, self.names, self.size)

    def first_check(self, client) -> None:
        got = client.get_mappings(self.names.lfn("p", 0))
        if got != [self.names.pfn("p", 0)]:
            raise RuntimeError(f"set-up check failed: {got}")

    def loop(self, conn: int, client, deadline: float, t: Tally) -> None:
        if conn == 0:
            self._reader(client, self.rng(0), deadline, t)
        else:
            self._writer(client, self.rng(1), deadline, t)

    def check_read(self, i: int, got: Any) -> bool:
        """The preloaded replica, plus at most the writer's one in flight."""
        names = self.names
        return (
            isinstance(got, list)
            and names.pfn("p", i) in got
            and set(got) <= {names.pfn("p", i), names.replica(i)}
            and len(got) == len(set(got))
        )

    def _reader(self, client, rng: random.Random, deadline: float, t: Tally) -> None:
        names, zipf = self.names, self.zipf
        while _clock() < deadline:
            i = zipf.draw(rng)
            lfn = names.lfn("p", i)
            got = t.timed("query", lambda: client.get_mappings(lfn))
            if got is not None:
                t.check(self.check_read(i, got), f"query {lfn}: {got}")

    def _writer(self, client, rng: random.Random, deadline: float, t: Tally) -> None:
        names = self.names
        space = f"w{self.window}"
        for k in itertools.count():
            if _clock() >= deadline:
                return
            lfn, pfn = names.lfn(space, k), names.pfn(space, k)
            hot = self.zipf.draw(rng)
            hot_lfn, extra = names.lfn("p", hot), names.replica(hot)
            t.timed("add", lambda: client.create(lfn, pfn))
            t.timed("add", lambda: client.add(hot_lfn, extra))
            t.timed("delete", lambda: client.delete(lfn, pfn))
            t.timed("delete", lambda: client.delete(hot_lfn, extra))
            t.counts["mappings_written"] += 4
            t.counts["user_bytes_written"] += 2 * (
                len(lfn) + len(pfn) + len(hot_lfn) + len(extra)
            )

    def final_check(self, client, tally: Tally) -> None:
        tally.attempted += 2
        problems = client.verify()
        tally.check(not problems, f"admin_verify: {problems[:3]}")
        count = client.mapping_count()
        tally.check(count == self.size, f"catalogue holds {count} mappings")


class RLIBloom(Workload):
    """Fig. 10 worst case: every lookup probes 100 Bloom filters."""

    name = "rli-bloom"
    role = "rli"
    connections = 2
    roles = {"rli_query": "read", "bloom_update": "write"}
    lrcs = 100
    per_lrc = 10_000
    bits_per_entry = 10
    num_hashes = 3
    unheld_share = 0.1
    #: One push per 0.5 s leaves ~30 in a run, whose p50 spread 15 %
    #: between runs; at 0.1 s it spreads about 3 %.
    push_interval = 0.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.lrc_names = [f"lrc{j:03d}.{self.names.tag}" for j in range(self.lrcs)]
        self.params = BloomParameters.for_entries(
            self.per_lrc, self.bits_per_entry, self.num_hashes
        )
        self.filters = [
            BloomFilter.from_names(
                (self.held(j, i) for i in range(self.per_lrc)), self.params
            ).to_bytes()
            for j in range(self.lrcs)
        ]
        p = false_positive_rate(self.params.num_bits, self.num_hashes, self.per_lrc)
        #: Expected wrong LRCs per lookup at the design false-positive rate.
        self.expected_false = p * (
            (1 - self.unheld_share) * (self.lrcs - 1) + self.unheld_share * self.lrcs
        )

    def held(self, j: int, i: int) -> str:
        return self.names.lfn("r", j * self.per_lrc + i)

    def settings(self) -> dict[str, Any]:
        return {
            "server": "RLI only", "bloom_filters": self.lrcs,
            "names_per_filter": self.per_lrc,
            "bits_per_entry": self.bits_per_entry, "hashes": self.num_hashes,
            "connections": 2, "unheld_share": self.unheld_share,
            "filter_push_interval_s": self.push_interval,
        }

    def push(self, client, j: int) -> None:
        RPCSink(client.rpc).bloom_update(
            self.lrc_names[j], self.filters[j], self.params.num_bits,
            self.num_hashes, self.per_lrc,
        )

    def setup(self, client) -> None:
        for j in range(self.lrcs):
            self.push(client, j)

    def first_check(self, client) -> None:
        got = client.rli_query(self.held(0, 0))
        if self.lrc_names[0] not in got:
            raise RuntimeError(f"set-up check failed: {got}")

    def loop(self, conn: int, client, deadline: float, t: Tally) -> None:
        self._lookups(client, self.rng(conn), deadline, t, pushes=conn == 1)

    def check_lookup(self, owner: int | None, got: Any) -> tuple[bool, int]:
        """(correct, wrong LRCs named).  ``got`` is None for not-found."""
        if owner is None:
            return True, len(got or ())
        if not got or self.lrc_names[owner] not in got:
            return False, len(got or ())
        return True, len(got) - 1

    def _lookups(
        self, client, rng: random.Random, deadline: float, t: Tally, pushes: bool
    ) -> None:
        next_push = _clock() + self.push_interval
        while True:
            now = _clock()
            if now >= deadline:
                return
            if pushes and now >= next_push:
                next_push += self.push_interval
                j = rng.randrange(self.lrcs)
                t.timed("bloom_update", lambda: self.push(client, j))
                continue
            if rng.random() < self.unheld_share:
                owner, lfn = None, self.names.lfn("x", rng.getrandbits(32))
            else:
                owner = rng.randrange(self.lrcs)
                lfn = self.held(owner, rng.randrange(self.per_lrc))
            t.attempted += 1
            start = _clock()
            try:
                got = client.rli_query(lfn)
            except MappingNotFoundError:
                got = None
            except Exception as exc:
                t.fail(f"rli_query: {type(exc).__name__}: {exc}")
                continue
            t.latencies["rli_query"].append(_clock() - start)
            t.names["rli_query"] += 1
            ok, wrong = self.check_lookup(owner, got)
            t.check(ok, f"rli_query {lfn}: owner missing from {got}")
            t.counts["false_lrcs"] += wrong

    def final_check(self, client, tally: Tally) -> None:
        lookups = len(tally.latencies["rli_query"])
        tally.attempted += 1
        mean = tally.counts["false_lrcs"] / max(lookups, 1)
        tally.check(
            mean <= 1.25 * self.expected_false,
            f"{mean:.3f} wrong LRCs per lookup, design allows "
            f"{self.expected_false:.3f}",
        )


class BulkSoftState(Workload):
    """Fig. 11-12 and Table 3: 1,000-name requests and full soft-state work."""

    name = "bulk-softstate"
    role = "both"
    connections = 1
    roles = {"bulk_query": "read", "bulk_write": "write"}
    #: A fifth of the other workloads' catalogue: a full update of 50k
    #: names takes most of a 10-20 s window, leaving too few bulk calls.
    size = 10_000
    batch = 1000
    full_every = 5
    rli_sample = 200

    def settings(self) -> dict[str, Any]:
        return {
            "server": "LRC+RLI, registered as its own uncompressed RLI target",
            "preload_mappings": self.size, "connections": 1,
            "names_per_request": self.batch,
            "cycle": "bulk_create, bulk_query, bulk_delete",
            "setup_ends_with": "trigger_full_update, rebuild_bloom",
            "after_every_fifth_cycle": "trigger_full_update, rebuild_bloom",
            "background": "immediate-mode incremental pushes",
        }

    def setup(self, client) -> None:
        _load_catalog(client, self.names, self.size)
        # Drop the preload's pending delta while no target is registered,
        # so the full update below is what fills the RLI.
        client.trigger_incremental_update()
        client.add_rli(SERVER_NAME, False, [])
        client.trigger_full_update()
        client.rebuild_bloom()

    def sample_check(self, client, rng: random.Random, t: Tally) -> None:
        picks = rng.sample(range(self.size), self.batch)
        lfns = [self.names.lfn("p", i) for i in picks]
        got = t.timed("bulk_query", lambda: client.bulk_query(lfns), self.batch)
        if got is None:
            return
        wrong = [
            i for i in picks
            if got.get(self.names.lfn("p", i)) != [self.names.pfn("p", i)]
        ]
        t.check(
            not wrong and len(got) == self.batch,
            f"bulk_query: {len(wrong)} wrong of {self.batch}",
        )

    def rli_check(self, client, rng: random.Random, t: Tally) -> None:
        """The RLI names this LRC for a sample of the catalogue."""
        lfns = [self.names.lfn("p", i) for i in rng.sample(range(self.size), self.rli_sample)]
        got = t.timed("rli_check", lambda: client.rli_bulk_query(lfns), self.rli_sample)
        if got is not None:
            missing = [n for n in lfns if SERVER_NAME not in got.get(n, ())]
            t.check(not missing, f"RLI lacks {len(missing)} of {len(lfns)} names")

    def first_check(self, client) -> None:
        t = Tally()
        rng = random.Random(f"{self.seed}/first")
        self.sample_check(client, rng, t)
        self.rli_check(client, rng, t)
        if t.failed:
            raise RuntimeError(f"set-up check failed: {t.problems}")

    def loop(self, conn: int, client, deadline: float, t: Tally) -> None:
        self._cycles(client, self.rng(0), deadline, t)

    def _cycles(self, client, rng: random.Random, deadline: float, t: Tally) -> None:
        names, space = self.names, f"b{self.window}"
        for k in itertools.count():
            if _clock() >= deadline:
                return
            pairs = [
                (names.lfn(space, i), names.pfn(space, i))
                for i in range(k * self.batch, (k + 1) * self.batch)
            ]
            failures = t.timed(
                "bulk_write", lambda: client.bulk_create(pairs), self.batch
            )
            t.check(failures == [], f"bulk_create: {str(failures)[:200]}")
            self.sample_check(client, rng, t)
            failures = t.timed(
                "bulk_write", lambda: client.bulk_delete(pairs), self.batch
            )
            t.check(failures == [], f"bulk_delete: {str(failures)[:200]}")
            t.counts["mappings_written"] += 2 * self.batch
            t.counts["user_bytes_written"] += 2 * sum(
                len(a) + len(b) for a, b in pairs
            )
            if k % self.full_every == self.full_every - 1:
                self._soft_state(client, rng, t)

    def _soft_state(self, client, rng: random.Random, t: Tally) -> None:
        if t.timed("full_update", client.trigger_full_update, self.size) is None:
            return
        self.rli_check(client, rng, t)
        t.timed("bloom_build", client.rebuild_bloom, self.size)

    def final_check(self, client, tally: Tally) -> None:
        tally.attempted += 2
        problems = client.verify()
        tally.check(not problems, f"admin_verify: {problems[:3]}")
        count = client.mapping_count()
        tally.check(count == self.size, f"catalogue holds {count} mappings")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CatalogRW, RLIBloom, BulkSoftState)
}
