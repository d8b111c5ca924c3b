"""End-to-end pipeline invariants on the shared SF=0.05 run.

Nothing here checks the paper-scale shape (3/7/10 communities etc.): no
test or benchmark runs SF=1, whose numbers are recorded in EXPERIMENTS.md
from ``jobs/run_all.py``. These are the structural invariants that must
hold at any scale. Two more tests bound the Spark jobs of the stages
before the community stage and of the community stage, and two more
compare the pair tables relabelled on the driver with their Spark
counterparts.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import tables
from repro.graph.builder import (
    GRANULARITIES,
    pair_counts,
    relabel_pairs,
    temporal_graph,
    trips_with_groups,
)
from repro.graph.components import component_labels
from repro.louvain.reference import modularity_ref
from repro.pipeline import run_communities, run_pipeline


def _station_graph(r, gran):
    """The ``src <= dst`` edges of a selected graph's station graph and its
    run's ``group_id -> community`` map."""
    edges = [
        (e["src"], e["dst"], e["weight"])
        for e in temporal_graph(r.selected_trips, gran).edges.collect()
        if e["src"] <= e["dst"]
    ]
    assign = {a["group_id"]: a["community"] for a in r.communities[gran].assignment.collect()}
    return edges, assign


def test_trips_conserved_through_every_stage(pipeline_small):
    r = pipeline_small
    n = r.cleaned.clean_rentals
    assert r.candidate_stats.n_trips == n
    assert r.selected_trips.count() == n
    assert r.selected_pairs["count"].sum() == n


def _sorted_pairs(pairs):
    return pairs.sort_values(["src_group", "dst_group"], ignore_index=True)


def test_candidate_pairs_match_spark_join(spark, pipeline_small):
    """The candidate graph relabelled on the driver equals the trips of
    the cleaned rentals resolved to HAC's groups by a broadcast join in
    Spark and counted per group pair (the path the pipeline used to
    take)."""
    r = pipeline_small
    candidate_map = spark.createDataFrame(
        r.candidates.assignment[["location_id", "group_id"]],
        schema="location_id long, group_id string",
    )
    want = pair_counts(trips_with_groups(r.cleaned.rentals, F.broadcast(candidate_map)))
    pd.testing.assert_frame_equal(r.candidate_pairs, _sorted_pairs(want))


def test_selected_pairs_are_the_final_relabel(pipeline_small):
    """Relabelling the endpoint pairs by Algorithm 1's final map gives the
    selected graph's pair table that the pipeline collects from Spark."""
    r = pipeline_small
    final_map = r.selection.final_assignment.rename(columns={"station_group": "group_id"})
    got = relabel_pairs(r.cleaned.endpoint_pairs, final_map)
    pd.testing.assert_frame_equal(got, _sorted_pairs(r.selected_pairs))


def test_candidate_stats_internal_consistency(pipeline_small):
    s = pipeline_small.candidate_stats
    assert s.directed_edges >= s.undirected_edges
    assert s.undirected_edges >= s.undirected_edges_no_loops
    assert s.directed_edges - s.directed_edges_no_loops == (
        s.undirected_edges - s.undirected_edges_no_loops
    )  # loop pairs are counted once in both views
    assert s.directed_edges <= 2 * s.undirected_edges_no_loops + (
        s.undirected_edges - s.undirected_edges_no_loops
    )
    assert s.n_nodes <= 92 + pipeline_small.data.config.n_hotspots


def test_candidate_groups_cover_all_locations(pipeline_small):
    r = pipeline_small
    assert len(r.candidates.assignment) == r.cleaned.clean_locations
    # every assigned group exists in the groups table
    assert r.candidates.assignment["group_id"].isin(r.candidates.groups["group_id"]).all()


def test_station_groups_are_92(pipeline_small):
    groups = pipeline_small.candidates.groups
    assert (groups["kind"] == "station").sum() == 92


def test_selection_threshold_is_min_station_degree(pipeline_small):
    """The threshold is the smallest fixed-station degree, counted here in
    Spark over the endpoints of the candidate trips, built from the HAC
    assignment (selection reads the pair table instead)."""
    r = pipeline_small
    spark = r.cleaned.rentals.sparkSession
    assignment = r.candidates.assignment[["location_id", "group_id"]]
    trips = trips_with_groups(r.cleaned.rentals, spark.createDataFrame(assignment))
    stations = r.candidates.groups.loc[r.candidates.groups["kind"] == "station", ["group_id"]]
    deg = (
        trips.select(F.col("src_group").alias("group_id"))
        .unionByName(trips.select(F.col("dst_group").alias("group_id")))
        .groupBy("group_id")
        .agg(F.count(F.lit(1)).cast("double").alias("degree"))
    )
    st_deg = (
        spark.createDataFrame(stations)
        .join(deg, "group_id", "left")
        .fillna({"degree": 0.0})
        .agg(F.min("degree"))
        .collect()[0][0]
    )
    assert r.selection.threshold == st_deg


def test_selected_are_far_from_stations_and_each_other(pipeline_small):
    import numpy as np

    from repro.geo import haversine_np

    r = pipeline_small
    sel = r.selection.selected
    st = r.cleaned.locations[r.cleaned.locations["is_station"]]
    if len(sel) == 0:
        pytest.skip("no stations selected at this scale")
    d_st = haversine_np(
        sel.lat.to_numpy()[:, None], sel.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    )
    assert d_st.min() >= 250.0
    d_self = haversine_np(
        sel.lat.to_numpy()[:, None], sel.lon.to_numpy()[:, None],
        sel.lat.to_numpy()[None, :], sel.lon.to_numpy()[None, :],
    )
    np.fill_diagonal(d_self, np.inf)
    assert d_self.min() >= 250.0


def test_final_assignment_covers_all_locations_once(pipeline_small):
    r = pipeline_small
    fa = r.selection.final_assignment
    assert len(fa) == r.cleaned.clean_locations
    assert fa["location_id"].is_unique


def test_final_stations_are_old_plus_selected(pipeline_small):
    r = pipeline_small
    kinds = r.selection.station_kinds
    assert (~kinds.is_new).sum() <= 92  # a station with no trips never appears
    assert kinds.is_new.sum() <= r.selection.n_selected
    assert kinds.group_id.is_unique


@pytest.mark.parametrize("gran", GRANULARITIES)
def test_community_run_invariants(pipeline_small, gran):
    run = pipeline_small.communities[gran]
    assert -1.0 <= run.modularity <= 1.0
    assert run.n_communities >= 1
    assert 0.0 <= run.intra_share <= 1.0
    pdf = run.table
    assert (pdf.old_stations + pdf.new_stations == pdf.total_stations).all()
    assert (pdf.trips_within + pdf.trips_out + pdf.trips_in == pdf.trips_total).all()
    assert pdf.trips_out.sum() == pdf.trips_in.sum()
    n = pipeline_small.selected_trips.count()
    assert pdf.trips_within.sum() + pdf.trips_out.sum() == n
    assert len(pdf) == run.n_communities
    edges, assign = _station_graph(pipeline_small, gran)
    assert run.n_communities == len(set(assign.values()))
    # the reported Q is the reference Q of the partition on the station graph
    assert run.modularity == pytest.approx(modularity_ref(edges, assign), abs=1e-9)


@pytest.mark.parametrize("gran", GRANULARITIES)
def test_every_community_is_connected(pipeline_small, gran):
    """Every Louvain community induces a connected subgraph: its
    intra-community edges join all its members. (Before ``louvain``
    split its communities into connected parts, G_Basic at SF=0.05 seed
    10 had a disconnected community.)"""
    edges, assign = _station_graph(pipeline_small, gran)
    ids = np.array(sorted(assign))
    community = np.array([assign[i] for i in ids])
    src, dst = (np.searchsorted(ids, [e[k] for e in edges]) for k in (0, 1))
    intra = community[src] == community[dst]
    label = component_labels(len(ids), src[intra], dst[intra])
    parts = {c: len(np.unique(label[community == c])) for c in np.unique(community)}
    assert {c: n for c, n in parts.items() if n > 1} == {}


@pytest.mark.parametrize("gran", GRANULARITIES)
def test_assignment_covers_every_active_station(pipeline_small, gran):
    assigned = {a["group_id"] for a in pipeline_small.communities[gran].assignment.collect()}
    assert set(pipeline_small.selection.station_kinds["group_id"]) <= assigned


def test_intra_share_matches_table(pipeline_small):
    run = pipeline_small.communities["basic"]
    pdf = run.table
    total = pdf.trips_within.sum() + pdf.trips_out.sum()
    assert run.intra_share == pytest.approx(pdf.trips_within.sum() / total)


def test_finer_granularity_does_not_reduce_communities(pipeline_small):
    """The paper's headline shape: temporal granularity reveals finer
    structure. At any scale, hour must be at least as fine as basic."""
    ks = {g: pipeline_small.communities[g].n_communities for g in GRANULARITIES}
    assert ks["hour"] >= ks["basic"]
    assert ks["day"] >= ks["basic"]


def _count_jobs(spark, prefix: str, steps: dict) -> dict:
    """Run each ``name -> fn`` of ``steps`` in a Spark job group of its own
    (ids ``prefix-name``, unique per test) and return the number of jobs
    each started. A probe group with one job shows that the status tracker
    sees jobs at all."""
    sc = spark.sparkContext
    steps = {**steps, "probe": lambda: spark.range(3).collect()}
    try:
        for name, fn in steps.items():
            sc.setJobGroup(f"{prefix}-{name}", name)
            fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = {name: len(tracker.getJobIdsForGroup(f"{prefix}-{name}")) for name in steps}
    assert jobs.pop("probe")  # the tracker sees jobs
    return jobs


#: Spark jobs of the stages before the community stage, as measured on the
#: SF=0.05 data: 6 in cleaning (the good-id broadcast, the endpoint-pair
#: collect that fills the cleaned rentals' checkpoint, the good-location
#: collect and the Table I aggregate), 1 in HAC (the component labels),
#: none in the candidate graph and Algorithm 1, and 3 in the selected
#: trips (the final map's broadcast and the collect of their pair counts,
#: which fills their checkpoint). Table III reads those pair counts and
#: runs none.
JOB_BUDGET = 10

#: Spark jobs of one granularity's community stage on the SF=0.05 data:
#: the 3 of the station graph's edge collect. Louvain, Tables IV-VI and the
#: headline run on the driver.
COMMUNITY_JOB_BUDGET = 3


def test_stages_before_communities_job_budget(spark, moby_small):
    """A query added to cleaning, HAC, Algorithm 1 or the trip joins
    shows up here as a job over the budget."""
    jobs = _count_jobs(spark, "test-job-budget", {
        "prefix": lambda: tables.table3(run_pipeline(spark, data=moby_small, granularities=())),
    })
    assert 0 < jobs["prefix"] <= JOB_BUDGET


def test_candidate_graph_starts_no_job(spark, pipeline_small):
    """The candidate graph and its Table II stats are computed on the
    driver from cleaning's endpoint-pair table and HAC's map."""
    r = pipeline_small
    out = {}
    jobs = _count_jobs(spark, "test-candidate-graph-jobs", {
        "candidate_pairs": lambda: out.update(
            pairs=relabel_pairs(r.cleaned.endpoint_pairs, r.candidates.assignment)
        ),
        "table2": lambda: tables.table2(r),
    })
    assert jobs == {"candidate_pairs": 0, "table2": 0}
    assert out["pairs"]["count"].sum() == r.cleaned.clean_rentals


def test_community_stage_job_budget(spark, moby_small):
    """After the stages before it, each granularity's ``run_communities``
    with its community table and the headline starts at most the edge
    collect's jobs, and Table III starts none: a Spark query added to the
    community tables shows up here."""
    r = run_pipeline(spark, data=moby_small, granularities=())
    table_of = {"basic": tables.table4, "day": tables.table5, "hour": tables.table6}

    def community_stage(gran):
        r.communities[gran] = run_communities(r, gran)
        table_of[gran](r)
        tables.headline(r)

    jobs = _count_jobs(spark, "test-community-job-budget", {
        "table3": lambda: tables.table3(r),
        **{g: (lambda g=g: community_stage(g)) for g in GRANULARITIES},
    })
    assert jobs["table3"] == 0
    for g in GRANULARITIES:
        assert 0 < jobs[g] <= COMMUNITY_JOB_BUDGET, (g, jobs)
