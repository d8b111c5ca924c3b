"""The six cleaning rules (Section III) — each rule individually on
hand-built dirty tables, plus Table-I-delta consistency on the generator
output (the deltas are exact by construction at every scale factor;
SF=0.05 keeps the suite fast while covering the same code path)."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.moby.cleaning import clean, in_dublin, on_land
from repro.oracle import assert_equivalent

GOOD = dict(lat=53.345, lon=-6.27)


def _loc_row(lid, lat=GOOD["lat"], lon=GOOD["lon"], is_station=False, station_id=None):
    return dict(location_id=lid, lat=lat, lon=lon, is_station=is_station, station_id=station_id)


def _rental_row(rid, a, b):
    return dict(
        rental_id=rid, bike_id=1, rental_location_id=a, return_location_id=b,
        start_time=pd.Timestamp("2020-06-01 08:00"), end_time=pd.Timestamp("2020-06-01 08:20"),
    )


def _frames(spark, locs, rentals):
    lp = pd.DataFrame(locs).astype({"station_id": "float64"})
    rp = pd.DataFrame(rentals).astype(
        {"rental_location_id": "float64", "return_location_id": "float64"}
    )
    return spark.createDataFrame(lp), spark.createDataFrame(rp)


def test_rule1_outside_dublin_removed(spark):
    locs = [_loc_row(1), _loc_row(2, lat=51.9, lon=-8.5)]  # Cork
    rentals = [_rental_row(1, 1, 1), _rental_row(2, 1, 2)]
    res = clean(*_frames(spark, locs, rentals))
    assert res.clean_locations == 1 and res.clean_rentals == 1


def test_rule2_sea_removed(spark):
    locs = [_loc_row(1), _loc_row(2, lat=53.33, lon=-6.02)]  # Dublin Bay
    rentals = [_rental_row(1, 1, 1), _rental_row(2, 2, 1)]
    res = clean(*_frames(spark, locs, rentals))
    assert res.clean_locations == 1 and res.clean_rentals == 1


def test_rule3_missing_coordinates_removed(spark):
    locs = [_loc_row(1), _loc_row(2, lat=None, lon=None)]
    rentals = [_rental_row(1, 1, 1), _rental_row(2, 1, 2)]
    res = clean(*_frames(spark, locs, rentals))
    assert res.clean_locations == 1 and res.clean_rentals == 1


def test_rule4_null_refs_removed(spark):
    locs = [_loc_row(1)]
    rentals = [_rental_row(1, 1, 1), _rental_row(2, None, 1), _rental_row(3, 1, None)]
    res = clean(*_frames(spark, locs, rentals))
    assert res.clean_rentals == 1


def test_rule5_phantom_refs_removed(spark):
    locs = [_loc_row(1)]
    rentals = [_rental_row(1, 1, 1), _rental_row(2, 999, 1), _rental_row(3, 1, 999)]
    res = clean(*_frames(spark, locs, rentals))
    assert res.clean_rentals == 1


def test_rule6_unreferenced_locations_removed(spark):
    locs = [_loc_row(1), _loc_row(2)]  # 2 never referenced
    rentals = [_rental_row(1, 1, 1)]
    res = clean(*_frames(spark, locs, rentals))
    assert res.clean_locations == 1


def test_rule6_cascade_after_rental_removal(spark):
    """A location only referenced by a removed rental must also go."""
    locs = [_loc_row(1), _loc_row(2), _loc_row(3, lat=None, lon=None)]
    rentals = [_rental_row(1, 1, 1), _rental_row(2, 2, 3)]  # rental 2 dies (rule 3)
    res = clean(*_frames(spark, locs, rentals))
    assert res.clean_locations == 1
    assert res.clean_rentals == 1


def test_nothing_survives(spark):
    """No good location: both broadcast semi-joins see an empty side, and
    the cleaned tables and counts are empty."""
    locs = [_loc_row(1, lat=51.9, lon=-8.5, is_station=True, station_id=1), _loc_row(2, lat=None)]
    rentals = [_rental_row(1, 1, 2), _rental_row(2, 1, None)]
    res = clean(*_frames(spark, locs, rentals))
    assert (res.raw_stations, res.raw_rentals, res.raw_locations) == (1, 2, 2)
    assert (res.clean_stations, res.clean_rentals, res.clean_locations) == (0, 0, 0)
    assert res.rentals.count() == res.locations.count() == 0


def test_bad_station_removed_from_station_count(spark):
    locs = [
        _loc_row(1, is_station=True, station_id=1),
        _loc_row(2, lat=53.8, lon=-6.9, is_station=True, station_id=2),  # out of bbox
    ]
    rentals = [_rental_row(1, 1, 1), _rental_row(2, 1, 2)]
    res = clean(*_frames(spark, locs, rentals))
    assert res.raw_stations == 2 and res.clean_stations == 1


def test_predicates_columns(spark):
    df = spark.createDataFrame(
        pd.DataFrame({"lat": [53.3, 51.9, 53.33], "lon": [-6.3, -8.5, -6.02]})
    )
    rows = df.select(
        in_dublin(F.col("lat"), F.col("lon")).alias("dub"),
        on_land(F.col("lat"), F.col("lon")).alias("land"),
    ).collect()
    assert [r["dub"] for r in rows] == [True, False, True]
    assert [r["land"] for r in rows] == [True, True, False]


# --- generator-level Table I deltas -----------------------------------

def test_table1_deltas_on_generated_data(moby_small, cleaned_small):
    cfg = moby_small.config
    res = cleaned_small
    assert res.raw_rentals - res.clean_rentals == cfg.n_dirty_rentals
    assert res.raw_locations - res.clean_locations == cfg.n_dirty_locations
    assert res.raw_stations - res.clean_stations == cfg.n_bad_stations
    assert res.clean_stations == 92


def test_clean_rentals_reference_only_clean_locations(cleaned_small):
    res = cleaned_small
    loc_ids = res.locations.select("location_id")
    bad = res.rentals.join(
        loc_ids.withColumnRenamed("location_id", "rental_location_id"),
        "rental_location_id",
        "left_anti",
    )
    assert bad.count() == 0


def test_clean_counts_match_oracle(spark, moby_small, cleaned_small):
    """DuckDB recomputes the surviving-rental count from the raw tables."""
    got = cleaned_small.rentals.agg(F.count(F.lit(1)).alias("n"))
    sql = """
    WITH good_loc AS (
      SELECT location_id FROM locations
      WHERE lat IS NOT NULL AND lon IS NOT NULL
        AND lat BETWEEN 53.15 AND 53.50 AND lon BETWEEN -6.60 AND -5.95
        AND NOT (lon > -6.09 AND lat > 53.25 AND lat < 53.45)
    )
    SELECT COUNT(*) AS n FROM rentals r
    WHERE r.rental_location_id IN (SELECT location_id FROM good_loc)
      AND r.return_location_id IN (SELECT location_id FROM good_loc)
    """
    assert_equivalent(got, sql, rentals=moby_small.rentals_pdf, locations=moby_small.locations_pdf)


def _rows(df):
    return sorted(tuple(r) for r in df.collect())


def test_clean_independent_of_row_order_and_partitions(spark, moby_small, cleaned_small):
    """A row-shuffled copy of the raw tables cleans to the same rows and
    Table I counts at 1 and 7 shuffle partitions."""
    want = cleaned_small
    counts = ("raw_stations", "raw_rentals", "raw_locations",
              "clean_stations", "clean_rentals", "clean_locations")
    locations = spark.createDataFrame(
        moby_small.locations_pdf.sample(frac=1.0, random_state=3), moby_small.locations.schema
    )
    rentals = spark.createDataFrame(
        moby_small.rentals_pdf.sample(frac=1.0, random_state=4), moby_small.rentals.schema
    )
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    try:
        for parts in ("1", "7"):
            spark.conf.set(key, parts)
            got = clean(locations, rentals)
            assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
            for table in ("locations", "rentals"):
                assert _rows(getattr(got, table)) == _rows(getattr(want, table))
    finally:
        spark.conf.set(key, old)
