"""The paper's six data-cleaning rules (Section III, Table I).

Removed entries:
1. Locations outside Dublin + rentals touching them.
2. Locations not on land (Dublin Bay) + rentals touching them.
3. Locations missing latitude/longitude + rentals touching them.
4. Rentals missing a rental/return location id.
5. Rentals whose rental/return location id is not in the Location table.
6. Locations never referenced by any (surviving) rental.

Rules 1-5 run in Catalyst: a rental survives iff both endpoint ids are
present and semi-join the locations that pass rules 1-3. The semi-joins
broadcast those ids (~14k at SF=1), so the rules shuffle no rental row.
The cleaned rentals are a lazy local checkpoint. Three Spark actions
follow, in this order:

- the trips per endpoint pair, ``(rental_location_id, return_location_id,
  count)``: one ``groupBy(...).count()`` over the cleaned rentals,
  collected as :attr:`CleanResult.endpoint_pairs` (about one row per trip
  at SF=1). It is the cleaned rentals' first reader, so it fills their
  checkpoint. The stages before selection read only this table: the
  candidate graph is its relabelling by HAC's location -> group map
  (:func:`repro.graph.builder.relabel_pairs`);
- the locations that pass rules 1-3, ``(location_id, lat, lon,
  is_station, station_id)``, collected as they are. Rule 6 keeps, on the
  driver, those that are an endpoint of some pair:
  :attr:`CleanResult.locations`, the table HAC reads;
- Table I's raw counts and the cleaned-rental count: one global aggregate
  over the raw tables and the cleaned rentals, each row tagged with its
  table and counted with ``count_if``. The cleaned-rental count is taken
  apart from the pair table, so the trip-conservation checks compare it
  with a count made independently of the pairs. The clean station and
  location counts are read off the pandas table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.moby.generator import DUBLIN_BBOX, SEA_LAT, SEA_LON_MIN


@dataclass(frozen=True)
class CleanResult:
    """Cleaned tables plus the Table I measures. ``locations`` (pandas):
    ``(location_id, lat, lon, is_station, station_id)`` in the raw table's
    row order; ``rentals`` (Spark): the cleaned rentals; ``endpoint_pairs``
    (pandas): their trips per ``(rental_location_id, return_location_id)``
    in ``count``."""

    locations: pd.DataFrame
    rentals: DataFrame
    endpoint_pairs: pd.DataFrame
    raw_stations: int
    raw_rentals: int
    raw_locations: int
    clean_stations: int
    clean_rentals: int
    clean_locations: int


def in_dublin(lat_col, lon_col):
    """Boolean Column: coordinate inside the Dublin bounding box."""
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    return (
        (lat_col >= lat_min) & (lat_col <= lat_max)
        & (lon_col >= lon_min) & (lon_col <= lon_max)
    )


def on_land(lat_col, lon_col):
    """Boolean Column: not in the (crude half-plane) Dublin Bay region."""
    sea = (lon_col > SEA_LON_MIN) & (lat_col > SEA_LAT[0]) & (lat_col < SEA_LAT[1])
    return ~sea


def _table1_counts(
    locations: DataFrame, rentals: DataFrame, clean_rentals: DataFrame
) -> tuple[int, int, int, int]:
    """The raw ``(stations, rentals, locations)`` row counts and the
    cleaned-rental count, taken by one Spark action: one global aggregate
    over the three tables' rows, each tagged with its table, so a single
    exchange serves them all."""

    def tagged(df: DataFrame, table: int, is_station) -> DataFrame:
        return df.select(F.lit(table).alias("table"), is_station.alias("is_station"))

    rows = tagged(locations, 0, F.col("is_station")).unionByName(
        tagged(rentals, 1, F.lit(False))
    ).unionByName(tagged(clean_rentals, 2, F.lit(False)))
    table = F.col("table")
    row = rows.agg(
        F.count_if((table == 0) & F.col("is_station")),
        F.count_if(table == 1),
        F.count_if(table == 0),
        F.count_if(table == 2),
    ).first()
    return tuple(row)


def clean(locations: DataFrame, rentals: DataFrame) -> CleanResult:
    """Apply all six rules and return cleaned tables + Table I counts."""
    lat, lon = F.col("lat"), F.col("lon")
    good_loc = locations.filter(
        lat.isNotNull() & lon.isNotNull() & in_dublin(lat, lon) & on_land(lat, lon)
    )

    # Rules 4 + 5 + (1-3 via semi-join on surviving locations): a rental
    # survives iff both endpoint ids are present and resolve to a good
    # location.
    good_ids = good_loc.select("location_id")
    r = rentals.filter(
        F.col("rental_location_id").isNotNull()
        & F.col("return_location_id").isNotNull()
    )
    # localCheckpoint (not cache): the selected trips join these rentals
    # and nest them in further plans — materialising them keeps those
    # plans shallow. Lazily: the endpoint-pair collect below reads them
    # first and fills the checkpoint, so the two semi-joins run once.
    r = r.join(
        F.broadcast(good_ids.withColumnRenamed("location_id", "rental_location_id")),
        "rental_location_id",
        "left_semi",
    ).join(
        F.broadcast(good_ids.withColumnRenamed("location_id", "return_location_id")),
        "return_location_id",
        "left_semi",
    ).localCheckpoint(eager=False)
    ends = ["rental_location_id", "return_location_id"]
    pairs = r.select(*(F.col(c).cast("long").alias(c) for c in ends)).groupBy(*ends).count()
    endpoint_pairs = pairs.toPandas()

    # Rule 6: drop locations never referenced by a surviving rental.
    good = good_loc.select(
        "location_id", "lat", "lon", "is_station",
        F.col("station_id").cast("long").alias("station_id"),
    ).toPandas()
    referenced = np.unique(endpoint_pairs[ends].to_numpy())
    loc_clean = good[good["location_id"].isin(referenced)].reset_index(drop=True)

    raw_stations, raw_rentals, raw_locations, clean_rentals = _table1_counts(
        locations, rentals, r
    )
    return CleanResult(
        locations=loc_clean,
        rentals=r,
        endpoint_pairs=endpoint_pairs,
        raw_stations=raw_stations,
        raw_rentals=raw_rentals,
        raw_locations=raw_locations,
        clean_stations=int(loc_clean["is_station"].sum()),
        clean_rentals=clean_rentals,
        clean_locations=len(loc_clean),
    )
