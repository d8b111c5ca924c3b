"""Trip-graph builder: endpoint resolution, temporal features, the
collected pair table, Table II stats and the three granularity
weightings."""
from __future__ import annotations

import datetime as dt

import pandas as pd
import pytest

from repro.graph.builder import (
    GRANULARITIES,
    graph_stats,
    pair_counts,
    temporal_graph,
    trips_with_groups,
)
from repro.oracle import assert_equivalent


@pytest.fixture()
def rentals(spark):
    rows = [
        # rid, rental_loc, return_loc, start
        (1, 11, 21, "2020-06-01 08:10"),  # Monday hour 8
        (2, 21, 11, "2020-06-02 17:30"),  # Tuesday hour 17
        (3, 12, 11, "2020-06-06 13:00"),  # Saturday hour 13
        (4, 11, 11, "2020-06-07 21:05"),  # Sunday hour 21, self loop at A
    ]
    pdf = pd.DataFrame(
        [
            dict(
                rental_id=r, rental_location_id=float(a), return_location_id=float(b),
                start_time=pd.Timestamp(s), end_time=pd.Timestamp(s) + pd.Timedelta(minutes=9),
            )
            for r, a, b, s in rows
        ]
    )
    return spark.createDataFrame(pdf)


@pytest.fixture()
def assignment(spark):
    pdf = pd.DataFrame(
        {"location_id": [11, 12, 21], "group_id": ["A", "A", "B"], "kind": ["station"] * 3}
    )
    return spark.createDataFrame(pdf)


def test_trips_with_groups_resolution(rentals, assignment):
    t = trips_with_groups(rentals, assignment).orderBy("rental_id").collect()
    assert [(r["src_group"], r["dst_group"]) for r in t] == [
        ("A", "B"), ("B", "A"), ("A", "A"), ("A", "A"),
    ]


def test_day_of_week_is_iso(rentals, assignment):
    t = {r["rental_id"]: r["day_of_week"] for r in trips_with_groups(rentals, assignment).collect()}
    # Monday=1 ... Sunday=7, cross-checked with python datetime
    assert t == {1: 1, 2: 2, 3: 6, 4: 7}
    assert dt.date(2020, 6, 1).isoweekday() == 1


def test_hour_extraction(rentals, assignment):
    t = {r["rental_id"]: r["hour"] for r in trips_with_groups(rentals, assignment).collect()}
    assert t == {1: 8, 2: 17, 3: 13, 4: 21}


def test_trips_with_groups_oracle(spark, rentals, assignment):
    got = trips_with_groups(rentals, assignment).select("rental_id", "src_group", "dst_group")
    sql = """
    SELECT r.rental_id AS rental_id, a1.group_id AS src_group, a2.group_id AS dst_group
    FROM rentals r
    JOIN assign a1 ON r.rental_location_id = a1.location_id
    JOIN assign a2 ON r.return_location_id = a2.location_id
    """
    assert_equivalent(got, sql, rentals=rentals.toPandas(), assign=assignment.toPandas())


def test_graph_stats_hand_computed(rentals, assignment):
    pairs = pair_counts(trips_with_groups(rentals, assignment))
    assert sorted(map(tuple, pairs[["src_group", "dst_group", "count"]].to_numpy())) == [
        ("A", "A", 2), ("A", "B", 1), ("B", "A", 1),
    ]
    s = graph_stats(pairs)
    # pairs: (A,B), (B,A), (A,A)x2 -> directed 3 (incl loop), loops 1
    assert s.n_nodes == 2
    assert s.directed_edges == 3
    assert s.directed_edges_no_loops == 2
    assert s.undirected_edges == 2  # {A,B} + loop(A)
    assert s.undirected_edges_no_loops == 1
    assert s.n_trips == 4


def test_temporal_graph_rejects_unknown_granularity(rentals, assignment):
    with pytest.raises(ValueError):
        temporal_graph(trips_with_groups(rentals, assignment), "weekly")


def _edge_rows(g):
    return sorted((r["src"], r["dst"], r["weight"]) for r in g.edges.collect())


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_temporal_graph_is_symmetric(rentals, assignment, granularity):
    """Each non-loop pair in both directions with one weight, each loop
    once, and no ``(src, dst)`` pair twice."""
    rows = _edge_rows(temporal_graph(trips_with_groups(rentals, assignment), granularity))
    pairs = [(a, b) for a, b, _ in rows]
    assert len(set(pairs)) == len(pairs)
    e = {(a, b): w for a, b, w in rows}
    for (a, b), w in e.items():
        assert e[(b, a)] == w
    assert pairs.count(("A", "A")) == 1


def test_temporal_graph_weights_hand_computed(rentals, assignment):
    trips = trips_with_groups(rentals, assignment)
    # basic: undirected pair A-B has 2 trips; loop A has 2 trips
    assert _edge_rows(temporal_graph(trips, "basic")) == [
        ("A", "A", 2.0), ("A", "B", 2.0), ("B", "A", 2.0),
    ]
    # day codes: trip1 Mon=1, trip2 Tue=2 -> A-B weight 3; loops Sat=6 + Sun=7 = 13
    assert _edge_rows(temporal_graph(trips, "day")) == [
        ("A", "A", 13.0), ("A", "B", 3.0), ("B", "A", 3.0),
    ]
    # hour codes: (8+1)+(17+1)=27 for A-B; (13+1)+(21+1)=36 for loop A
    assert _edge_rows(temporal_graph(trips, "hour")) == [
        ("A", "A", 36.0), ("A", "B", 27.0), ("B", "A", 27.0),
    ]


@pytest.fixture()
def uneven_trips(spark):
    """A->B twice, B->A once, B->C once, C->C four times; every trip on
    Monday at 00h, so all three granularities weigh a trip 1."""
    rows = [("A", "B")] * 2 + [("B", "A"), ("B", "C")] + [("C", "C")] * 4
    return spark.createDataFrame(
        [(a, b, 1, 0) for a, b in rows],
        "src_group string, dst_group string, day_of_week int, hour int",
    )


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_temporal_graph_two_way_sum(uneven_trips, granularity):
    """Trips A->B and B->A give each direction the two-way sum."""
    assert _edge_rows(temporal_graph(uneven_trips, granularity)) == [
        ("A", "B", 3.0), ("B", "A", 3.0), ("B", "C", 1.0), ("C", "B", 1.0), ("C", "C", 4.0),
    ]


def test_temporal_graph_total_mass(uneven_trips):
    """m = (sum of non-loop w)/2 + (sum of loop w) is the trip count: a
    loop row is not doubled."""
    rows = _edge_rows(temporal_graph(uneven_trips, "basic"))
    nonloop = sum(w for a, b, w in rows if a != b)
    loops = sum(w for a, b, w in rows if a == b)
    assert nonloop / 2 + loops == uneven_trips.count()


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_temporal_graph_weight_oracle(rentals, assignment, granularity):
    """The full symmetric row set: both directions, loops once."""
    code = {"basic": "1", "day": "day_of_week", "hour": "hour + 1"}[granularity]
    trips = trips_with_groups(rentals, assignment)
    got = temporal_graph(trips, granularity).edges.select("src", "dst", "weight")
    sql = f"""
    WITH und AS (
        SELECT LEAST(src_group, dst_group) AS src, GREATEST(src_group, dst_group) AS dst,
               CAST(SUM({code}) AS DOUBLE) AS weight
        FROM trips GROUP BY 1, 2
    )
    SELECT src, dst, weight FROM und
    UNION ALL SELECT dst AS src, src AS dst, weight FROM und WHERE src <> dst
    """
    assert_equivalent(got, sql, trips=trips.toPandas())


def _count_nodes(plan, name):
    children = plan.children()
    return (plan.nodeName() == name) + sum(
        _count_nodes(children.apply(i), name) for i in range(children.size())
    )


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_temporal_graph_plan_has_one_pair_aggregate(rentals, assignment, granularity):
    """The edges come from one per-pair aggregate, read by both branches
    of the union: at most two ``Aggregate`` nodes in the optimized plan."""
    edges = temporal_graph(trips_with_groups(rentals, assignment), granularity).edges
    plan = edges._jdf.queryExecution().optimizedPlan()
    assert _count_nodes(plan, "Aggregate") <= 2
