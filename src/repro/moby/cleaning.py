"""The paper's six data-cleaning rules (Section III, Table I).

Removed entries:
1. Locations outside Dublin + rentals touching them.
2. Locations not on land (Dublin Bay) + rentals touching them.
3. Locations missing latitude/longitude + rentals touching them.
4. Rentals missing a rental/return location id.
5. Rentals whose rental/return location id is not in the Location table.
6. Locations never referenced by any (surviving) rental.

All rule evaluation happens in Catalyst (joins/filters); only the Table I
counts are collected, by one Spark action once the cleaned tables exist:
one global aggregate over the union of the raw and the cleaned locations
and rentals, counting stations, locations and rentals of each with
``count_if``.

The semi-joins broadcast their right side, so the rules shuffle no row:
rules 1-5 check both rental endpoints against the good location ids
(~14k at SF=1), and rule 6 checks the good locations against the
surviving rentals' endpoint ids, duplicates included (a semi-join needs
no ``distinct``). Both cleaned tables are local checkpoints filled by
their first reader, not by a job of their own: rule 6's broadcast of the
rental endpoints fills the rentals' checkpoint, so the two endpoint
semi-joins run once, and the Table I aggregate fills the locations'.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.moby.generator import DUBLIN_BBOX, SEA_LAT, SEA_LON_MIN


@dataclass(frozen=True)
class CleanResult:
    """Cleaned tables plus the Table I measures."""

    locations: DataFrame
    rentals: DataFrame
    stations: DataFrame  # cleaned locations with is_station (id, lat, lon, station_id)
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
    raw: tuple[DataFrame, DataFrame], cleaned: tuple[DataFrame, DataFrame]
) -> tuple[int, ...]:
    """The ``(stations, rentals, locations)`` row counts of the raw, then of
    the cleaned ``(locations, rentals)`` tables, taken by one Spark action:
    one global aggregate over the four tables' rows, each tagged with its
    table, so a single exchange serves them all."""

    def tagged(locations: DataFrame, rentals: DataFrame, is_clean: bool) -> DataFrame:
        return locations.select(
            F.lit(is_clean).alias("is_clean"), "is_station", F.lit(True).alias("is_location")
        ).unionByName(
            rentals.select(
                F.lit(is_clean).alias("is_clean"),
                F.lit(False).alias("is_station"),
                F.lit(False).alias("is_location"),
            )
        )

    rows = tagged(*raw, False).unionByName(tagged(*cleaned, True))
    row = rows.agg(
        *(
            F.count_if((F.col("is_clean") == is_clean) & cond)
            for is_clean in (False, True)
            for cond in (F.col("is_station"), ~F.col("is_location"), F.col("is_location"))
        )
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
    # localCheckpoint (not cache): every downstream stage joins these
    # tables repeatedly and nests them in further plans — materialising
    # them keeps all later logical plans shallow. Lazily: rule 6 below
    # reads the rentals first and fills their checkpoint, so the two
    # semi-joins run once.
    r = r.join(
        F.broadcast(good_ids.withColumnRenamed("location_id", "rental_location_id")),
        "rental_location_id",
        "left_semi",
    ).join(
        F.broadcast(good_ids.withColumnRenamed("location_id", "return_location_id")),
        "return_location_id",
        "left_semi",
    ).localCheckpoint(eager=False)

    # Rule 6: drop locations never referenced by a surviving rental. The
    # Table I aggregate below fills this checkpoint.
    refs = r.select(F.col("rental_location_id").alias("location_id")).unionByName(
        r.select(F.col("return_location_id").alias("location_id"))
    )
    loc_clean = good_loc.join(F.broadcast(refs), "location_id", "left_semi").localCheckpoint(
        eager=False
    )

    stations = loc_clean.filter(F.col("is_station")).select(
        "location_id", "lat", "lon", F.col("station_id").cast("long").alias("station_id")
    )
    # the counts come in CleanResult's field order
    counts = _table1_counts((locations, rentals), (loc_clean, r))
    return CleanResult(loc_clean, r, stations, *counts)
