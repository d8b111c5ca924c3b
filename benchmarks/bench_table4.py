"""Table IV benchmark: Louvain on G_Basic + the per-community
table (stations old/new, trips within/out/in)."""
from __future__ import annotations

from repro.pipeline import run_communities
from repro.tables import PAPER, table4


def test_bench_table4_louvain_basic(benchmark, spark, bench_pipeline, bench_sf):
    r = bench_pipeline

    def run():
        return run_communities(r, "basic")

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    assert -1.0 <= res.modularity <= 1.0
    assert res.n_communities >= 1
    print(
        f"\n[table4] paper: {PAPER['table4']} | measured (sf={bench_sf}): "
        f"communities={res.n_communities} modularity={res.modularity:.4f} "
        f"intra_share={res.intra_share:.3f}"
    )
    print(table4(r).to_string(index=False))
