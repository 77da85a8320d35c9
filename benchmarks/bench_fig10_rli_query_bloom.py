"""Figure 10: RLI query rates against in-memory Bloom filters.

Paper setup: each Bloom filter summarizes 1 M mappings; the RLI holds 1,
10 or 100 filters; 1-10 clients x 3 threads.  Result: ~10000+ queries/s
for 1 and 10 filters — much faster than the relational store (Figure 9) —
dropping substantially at 100 filters because every query probes every
filter.

A second bench gates the cross-figure shape: on the same names, a
1-filter Bloom RLI must answer at least ``BLOOM_OVER_RELATIONAL`` times as
many queries per second as a relational-store RLI (Figure 9's setup).
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    measure_rate,
    record_series,
    scaled,
    write_bench_artifact,
)
from repro.workload.driver import LoadDriver
from repro.workload.scenarios import (
    loaded_rli_server_bloom,
    loaded_rli_server_uncompressed,
)

PAPER_ENTRIES_PER_FILTER = 1_000_000
FILTER_COUNTS = [1, 10, 100]
CLIENT_COUNTS = [1, 4, 10]
PAPER_RATE = {
    1: {1: 11000, 4: 12000, 10: 12000},
    10: {1: 10000, 4: 11500, 10: 11500},
    100: {1: 2500, 4: 3000, 10: 3000},
}
#: Figure 9's 1-client relational rate, for the cross-figure ratio.
PAPER_RELATIONAL_RATE = 2900
#: Paper: ~11000 vs ~2900 queries/s (3.8x); gated well below that.
BLOOM_OVER_RELATIONAL = 1.5


@pytest.fixture(scope="module", params=FILTER_COUNTS)
def bloom_rli(request):
    num_filters = request.param
    server, lfns = loaded_rli_server_bloom(
        scaled(PAPER_ENTRIES_PER_FILTER),
        num_filters=num_filters,
        name=f"fig10-rli-{num_filters}",
    )
    yield server, lfns, num_filters
    server.stop()


RESULTS: dict[int, dict[int, float]] = {}


def bench_fig10_bloom_query_rates(bloom_rli, benchmark):
    server, lfns, num_filters = bloom_rli
    probe = lfns[:: max(1, len(lfns) // 2000)]
    op = LoadDriver.rli_query_op(probe)

    rates = {}
    for clients in CLIENT_COUNTS:
        rates[clients] = measure_rate(
            server.config.name, op, clients, 3, total_operations=3000, trials=2
        )
    RESULTS[num_filters] = rates

    benchmark.pedantic(
        lambda: measure_rate(server.config.name, op, 1, 3, 1500),
        rounds=3,
        iterations=1,
    )

    # Per-filter-count shape: flat-ish across clients.
    base = rates[1]
    for c in CLIENT_COUNTS:
        assert rates[c] > 0.4 * base

    if len(RESULTS) == len(FILTER_COUNTS):
        rows = []
        for c in CLIENT_COUNTS:
            rows.append(
                [
                    c,
                    PAPER_RATE[1][c], f"{RESULTS[1][c]:.0f}",
                    PAPER_RATE[10][c], f"{RESULTS[10][c]:.0f}",
                    PAPER_RATE[100][c], f"{RESULTS[100][c]:.0f}",
                ]
            )
        record_series(
            "Figure 10 — RLI Bloom-filter query rate (queries/s)",
            [
                "clients (x3 thr)",
                "paper 1bf", "ours 1bf",
                "paper 10bf", "ours 10bf",
                "paper 100bf", "ours 100bf",
            ],
            rows,
            notes=[
                f"each filter summarizes {scaled(PAPER_ENTRIES_PER_FILTER)} "
                f"mappings (paper: {PAPER_ENTRIES_PER_FILTER})",
                "paper shape: 1bf ~= 10bf >> 100bf",
            ],
        )
        from repro.obs.timeseries import SeriesStore

        store = SeriesStore()
        for nf in FILTER_COUNTS:
            for c in CLIENT_COUNTS:
                store.record(
                    f"rli.bloom_query_rate{{filters={nf}}}",
                    float(c),
                    RESULTS[nf][c],
                )
        artifact = write_bench_artifact(
            "fig10",
            series=store.to_dict(),
            meta={
                "filter_counts": FILTER_COUNTS,
                "client_counts": CLIENT_COUNTS,
                "entries_per_filter": scaled(PAPER_ENTRIES_PER_FILTER),
            },
        )
        print(f"wrote {artifact}")

        # Cross-series shape: 100 filters must be much slower than 1 filter.
        for c in CLIENT_COUNTS:
            assert RESULTS[100][c] < 0.5 * RESULTS[1][c]


def bench_fig10_bloom_beats_relational(benchmark):
    """Bloom ≫ DB-backed RLI: 1 filter vs the relational store, same names."""
    entries = scaled(PAPER_ENTRIES_PER_FILTER)
    bloom_server, lfns = loaded_rli_server_bloom(
        entries, num_filters=1, name="fig10-vs-bloom"
    )
    relational_server, _ = loaded_rli_server_uncompressed(
        entries, num_lrcs=1, name="fig10-vs-relational"
    )
    try:
        op = LoadDriver.rli_query_op(lfns[:: max(1, len(lfns) // 2000)])

        def rate(server):
            return measure_rate(
                server.config.name, op, 1, 3, total_operations=3000, trials=2
            )

        bloom_rate = rate(bloom_server)
        relational_rate = rate(relational_server)
        benchmark.pedantic(lambda: rate(bloom_server), rounds=1, iterations=1)
    finally:
        bloom_server.stop()
        relational_server.stop()

    ratio = bloom_rate / relational_rate
    record_series(
        "Figure 10 vs Figure 9 — 1 Bloom filter vs relational RLI "
        "(queries/s, 1 client x 3 threads)",
        ["store", "paper", "ours"],
        [
            ["1 Bloom filter", PAPER_RATE[1][1], f"{bloom_rate:.0f}"],
            ["relational", PAPER_RELATIONAL_RATE, f"{relational_rate:.0f}"],
            [
                "ratio",
                f"{PAPER_RATE[1][1] / PAPER_RELATIONAL_RATE:.1f}x",
                f"{ratio:.1f}x",
            ],
        ],
        notes=[f"gate: Bloom >= {BLOOM_OVER_RELATIONAL}x relational"],
    )
    assert bloom_rate >= BLOOM_OVER_RELATIONAL * relational_rate
