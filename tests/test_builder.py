"""Trip-graph builder: endpoint resolution, temporal features, the
collected pair table, Table II stats and the three granularity
weightings."""
from __future__ import annotations

import datetime as dt

import pandas as pd
import pytest
from pyspark.sql import functions as F

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


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_temporal_graph_is_symmetric(rentals, assignment, granularity):
    g = temporal_graph(trips_with_groups(rentals, assignment), granularity)
    e = {(r["src"], r["dst"]): r["weight"] for r in g.edges.collect()}
    for (a, b), w in e.items():
        if a != b:
            assert e[(b, a)] == w


def test_temporal_graph_weights_hand_computed(rentals, assignment):
    trips = trips_with_groups(rentals, assignment)
    # basic: undirected pair A-B has 2 trips; loop A has 2 trips
    e = {(r["src"], r["dst"]): r["weight"] for r in temporal_graph(trips, "basic").edges.collect()}
    assert e[("A", "B")] == 2.0 and e[("A", "A")] == 2.0
    # day codes: trip1 Mon=1, trip2 Tue=2 -> A-B weight 3; loops Sat=6 + Sun=7 = 13
    e = {(r["src"], r["dst"]): r["weight"] for r in temporal_graph(trips, "day").edges.collect()}
    assert e[("A", "B")] == 3.0 and e[("A", "A")] == 13.0
    # hour codes: (8+1)+(17+1)=27 for A-B; (13+1)+(21+1)=36 for loop A
    e = {(r["src"], r["dst"]): r["weight"] for r in temporal_graph(trips, "hour").edges.collect()}
    assert e[("A", "B")] == 27.0 and e[("A", "A")] == 36.0


def test_temporal_graph_weight_oracle(spark, rentals, assignment):
    trips = trips_with_groups(rentals, assignment)
    g = temporal_graph(trips, "day")
    got = g.edges.filter(F.col("src") <= F.col("dst")).select("src", "dst", "weight")
    sql = """
    SELECT LEAST(src_group, dst_group) AS src, GREATEST(src_group, dst_group) AS dst,
           CAST(SUM(day_of_week) AS DOUBLE) AS weight
    FROM trips GROUP BY 1, 2
    """
    assert_equivalent(got, sql, trips=trips.toPandas())
