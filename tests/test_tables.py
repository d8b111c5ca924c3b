"""The table harness: shapes, columns and internal consistency of every
paper table, against the shared pipeline run."""
from __future__ import annotations

import pytest

from repro import tables
from repro.oracle import assert_equivalent


def test_paper_reference_values_sane():
    p = tables.PAPER
    assert p["table1"]["clean"]["rentals"] == 61_872
    assert p["table2"]["nodes"] == 1_172
    t3 = p["table3"]
    assert t3["trips_from"]["old"] + t3["trips_from"]["new"] == 61_872
    assert t3["trips_to"]["old"] + t3["trips_to"]["new"] == 61_872
    assert t3["edges_from"]["old"] + t3["edges_from"]["new"] == t3["edges_total"]
    assert t3["edges_to"]["old"] + t3["edges_to"]["new"] == t3["edges_total"]
    assert p["table4"]["communities"] < p["table5"]["communities"] < p["table6"]["communities"]
    assert p["table4"]["modularity"] < p["table5"]["modularity"] < p["table6"]["modularity"]


def test_table1_layout(pipeline_small):
    pdf = tables.table1(pipeline_small)
    assert list(pdf.columns) == ["measure", "original", "cleaned"]
    assert len(pdf) == 3
    assert (pdf["original"] >= pdf["cleaned"]).all()


def test_table2_layout(pipeline_small):
    pdf = tables.table2(pipeline_small)
    assert len(pdf) == 6
    vals = dict(zip(pdf["measure"], pdf["value"]))
    assert vals["#trips"] == pipeline_small.cleaned.clean_rentals
    assert vals["#directed edges"] >= vals["#undirected edges"]


def test_table3_layout_and_totals(pipeline_small):
    pdf = tables.table3(pipeline_small)
    assert list(pdf["kind"]) == ["pre-existing", "selected", "total"]
    total = pdf[pdf["kind"] == "total"].iloc[0]
    n = pipeline_small.cleaned.clean_rentals
    assert total["trips_from"] == n and total["trips_to"] == n
    assert total["edges_from"] == total["edges_to"]
    parts = pdf[pdf["kind"] != "total"]
    for col in ("stations", "trips_from", "trips_to", "edges_from", "edges_to"):
        assert parts[col].sum() == total[col]


def test_table3_oracle(pipeline_small):
    """Table III against the per-kind joins in DuckDB, with station kinds
    taken from the final assignment."""
    r = pipeline_small
    pdf = tables.table3(r)
    got = r.selected_trips.sparkSession.createDataFrame(pdf[pdf["kind"] != "total"])
    sql = """
    WITH kinds AS (SELECT DISTINCT station_group AS group_id, is_new FROM fa),
    pairs AS (SELECT DISTINCT src_group, dst_group FROM trips),
    per_kind AS (
      SELECT is_new,
        (SELECT COUNT(*) FROM kinds k WHERE k.is_new = s.is_new) AS stations,
        (SELECT COUNT(*) FROM trips t JOIN kinds k ON t.src_group = k.group_id
          WHERE k.is_new = s.is_new) AS trips_from,
        (SELECT COUNT(*) FROM trips t JOIN kinds k ON t.dst_group = k.group_id
          WHERE k.is_new = s.is_new) AS trips_to,
        (SELECT COUNT(*) FROM pairs p JOIN kinds k ON p.src_group = k.group_id
          WHERE k.is_new = s.is_new) AS edges_from,
        (SELECT COUNT(*) FROM pairs p JOIN kinds k ON p.dst_group = k.group_id
          WHERE k.is_new = s.is_new) AS edges_to
      FROM (VALUES (false), (true)) s(is_new)
    )
    SELECT CASE WHEN is_new THEN 'selected' ELSE 'pre-existing' END AS kind,
      stations, trips_from, trips_to, edges_from, edges_to
    FROM per_kind
    """
    assert_equivalent(
        got, sql,
        trips=r.selected_trips.select("src_group", "dst_group"),
        fa=r.selection.final_assignment,
    )


@pytest.mark.parametrize("name,gran", [("table4", "basic"), ("table5", "day"), ("table6", "hour")])
def test_community_tables_layout(pipeline_small, name, gran):
    pdf = getattr(tables, name)(pipeline_small)
    run = pipeline_small.communities[gran]
    assert list(pdf["community"]) == list(range(1, run.n_communities + 1))
    assert pdf["total_stations"].sum() == len(pipeline_small.selection.station_kinds)


def test_headline_keys(pipeline_small):
    h = tables.headline(pipeline_small)
    for gran in ("basic", "day", "hour"):
        assert f"{gran}_communities" in h
        assert f"{gran}_modularity" in h
        assert -1.0 <= h[f"{gran}_modularity"] <= 1.0
    assert h["n_selected"] == pipeline_small.selection.n_selected
