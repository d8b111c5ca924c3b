"""Per-table benchmarks: each case re-runs the stage behind one paper
table against the shared pipeline run (SF=0.1 by default, see
``conftest.py``), times it, checks its result and prints the table next
to the paper's values."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro import tables
from repro.graph.builder import graph_stats, pair_counts, trips_with_groups
from repro.hac.cluster import build_candidates
from repro.moby.cleaning import clean
from repro.pipeline import run_communities
from repro.stations.selection import select_stations


def _table1(r):
    """The six cleaning rules over the raw Rental + Location tables."""
    res = clean(r.data.locations, r.data.rentals)
    rentals, locations, stations = res.clean_rentals, res.clean_locations, res.clean_stations
    # Table I deltas are exact by construction at every scale factor
    assert stations == 92
    assert rentals == r.data.config.n_rentals
    assert locations == r.data.config.n_locations
    return f"stations={stations} rentals={rentals} locations={locations}"


def _table2(r):
    """HAC candidate construction (eps-graph, connected components, exact
    complete linkage) + candidate-graph statistics, with the candidate map
    built as ``run_pipeline`` builds it (explicit schema, broadcast)."""
    cand = build_candidates(r.cleaned.locations, r.cleaned.stations)
    spark = r.cleaned.rentals.sparkSession
    group_map = spark.createDataFrame(
        cand.assignment[["location_id", "group_id"]], schema="location_id long, group_id string"
    )
    stats = graph_stats(
        pair_counts(trips_with_groups(r.cleaned.rentals, F.broadcast(group_map)))
    )
    assert stats.n_trips == r.cleaned.clean_rentals
    assert stats.directed_edges >= stats.undirected_edges
    return (
        f"nodes={stats.n_nodes} und={stats.undirected_edges} "
        f"und_nl={stats.undirected_edges_no_loops} dir={stats.directed_edges} "
        f"dir_nl={stats.directed_edges_no_loops} trips={stats.n_trips}"
    )


def _table3(r):
    """Algorithm 1 (ranking + selection + reassignment)."""
    sel = select_stations(r.candidates.groups, r.candidate_pairs, r.candidates.assignment)
    assert sel.n_selected == r.selection.n_selected
    return f"n_selected={sel.n_selected}"


def _communities(granularity):
    """Louvain on one temporal graph + the per-community table (stations
    old/new, trips within/out/in)."""

    def run(r):
        res = run_communities(r, granularity)
        assert -1.0 <= res.modularity <= 1.0
        assert res.n_communities >= 1
        return (
            f"communities={res.n_communities} modularity={res.modularity:.4f} "
            f"intra_share={res.intra_share:.3f}"
        )

    return run


# table -> (stage, rounds)
STAGES = {
    "table1": (_table1, 3),
    "table2": (_table2, 1),
    "table3": (_table3, 1),
    "table4": (_communities("basic"), 1),
    "table5": (_communities("day"), 1),
    "table6": (_communities("hour"), 1),
}


@pytest.mark.parametrize("table", sorted(STAGES))
def test_bench_table(benchmark, bench_pipeline, bench_sf, table):
    stage, rounds = STAGES[table]
    measured = benchmark.pedantic(stage, args=(bench_pipeline,), rounds=rounds, iterations=1)
    print(f"\n[{table}] paper: {tables.PAPER[table]} | measured (sf={bench_sf}): {measured}")
    print(getattr(tables, table)(bench_pipeline).to_string(index=False))
