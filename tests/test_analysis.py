"""Community statistics (Tables IV-VI layout, on the driver) and temporal
profiles (Figs 5/7 data, in Spark) on hand-built inputs, cross-checked
against DuckDB."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.analysis.communities import community_table, intra_community_share
from repro.analysis.temporal import day_profile, hour_profile
from repro.oracle import assert_equivalent


#: Eight hand trips over four stations in two communities.
TRIPS = pd.DataFrame(
    {
        "src_group": ["A", "A", "B", "C", "C", "D", "A", "C"],
        "dst_group": ["B", "A", "C", "D", "A", "C", "C", "B"],
        "day_of_week": [1, 2, 6, 7, 1, 3, 4, 5],
        "hour": [8, 9, 13, 21, 8, 17, 10, 11],
    }
)
LABELS = pd.DataFrame({"group_id": ["A", "B", "C", "D"], "community": [0, 0, 1, 1]})
KINDS = pd.DataFrame({"group_id": ["A", "B", "C", "D"], "is_new": [False, True, False, True]})

#: Within, out and in trips per community, counted over the trip rows
#: ``trips`` with the labels ``assign``: the oracle for
#: :func:`community_table`, which sums pair counts instead.
COMMUNITY_SQL = """
WITH t AS (
  SELECT a1.community AS c_src, a2.community AS c_dst FROM trips tr
  JOIN assign a1 ON tr.src_group = a1.group_id
  JOIN assign a2 ON tr.dst_group = a2.group_id
), communities AS (SELECT DISTINCT community FROM assign)
SELECT c.community AS community,
  (SELECT COUNT(*) FROM t WHERE c_src = c.community AND c_dst = c.community) AS trips_within,
  (SELECT COUNT(*) FROM t WHERE c_src = c.community AND c_dst <> c.community) AS trips_out,
  (SELECT COUNT(*) FROM t WHERE c_dst = c.community AND c_src <> c.community) AS trips_in
FROM communities c
"""


def pair_table(trips: pd.DataFrame) -> pd.DataFrame:
    """The ``(src_group, dst_group, count)`` table of ``builder.pair_counts``."""
    return trips.groupby(["src_group", "dst_group"]).size().reset_index(name="count")


@pytest.fixture()
def table():
    return community_table(LABELS, KINDS, pair_table(TRIPS))


@pytest.fixture()
def frames(spark):
    return spark.createDataFrame(LABELS), spark.createDataFrame(TRIPS)


def test_community_table_hand_computed(table):
    rows = {r.community: r for r in table.itertuples()}
    # community 0 = {A,B}: within = {A->B, A->A}; out = {B->C, A->C};
    # in = {C->A, C->B}
    c0, c1 = rows[0], rows[1]
    assert (c0.old_stations, c0.new_stations, c0.total_stations) == (1, 1, 2)
    assert (c0.trips_within, c0.trips_out, c0.trips_in) == (2, 2, 2)
    assert c0.trips_total == 6
    # community 1 = {C,D}: within = {C->D, D->C}; out = {C->A, C->B}
    assert (c1.trips_within, c1.trips_out, c1.trips_in) == (2, 2, 2)
    assert (c1.old_stations, c1.new_stations) == (1, 1)


def test_community_table_oracle(table):
    got = table[["community", "trips_within", "trips_out", "trips_in"]]
    assert_equivalent(got, COMMUNITY_SQL, trips=TRIPS, assign=LABELS)


def test_intra_share(table):
    assert intra_community_share(table) == pytest.approx(4 / 8)


def test_community_table_totals_are_consistent(table):
    assert (table["old_stations"] + table["new_stations"] == table["total_stations"]).all()
    assert (
        table["trips_within"] + table["trips_out"] + table["trips_in"] == table["trips_total"]
    ).all()
    assert table["trips_within"].sum() + table["trips_out"].sum() == len(TRIPS)
    assert table["trips_out"].sum() == table["trips_in"].sum()


def test_day_profile_shares(frames):
    assignment, trips = frames
    pdf = day_profile(assignment, trips).toPandas()
    sums = pdf.groupby("community")["share"].sum()
    assert (abs(sums - 1.0) < 1e-9).all()
    # community 0 starts: A,A,B,A -> days 1,2,6,4 each share 1/4
    c0 = pdf[pdf.community == 0].set_index("day_of_week")["share"]
    assert c0.to_dict() == {1: 0.25, 2: 0.25, 4: 0.25, 6: 0.25}


def test_hour_profile_oracle(frames):
    assignment, trips = frames
    got = hour_profile(assignment, trips).select("community", "hour", F.col("n").alias("n"))
    sql = """
    SELECT a.community AS community, t.hour AS hour, COUNT(*) AS n
    FROM trips t JOIN assign a ON t.src_group = a.group_id
    GROUP BY 1, 2
    """
    assert_equivalent(got, sql, trips=trips.toPandas(), assign=assignment.toPandas())
