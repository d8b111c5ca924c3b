"""The synthetic Moby dataset generator: cardinalities, dirt injection,
geometry and determinism."""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.geo import haversine_np
from repro.moby.generator import (
    DUBLIN_BBOX,
    HOTSPOT_LOC_RADIUS_M,
    HOTSPOT_MIN_SEP_M,
    HOTSPOT_STATION_MIN_SEP_M,
    SEA_LAT,
    SEA_LON_MIN,
    STATION_LOC_RADIUS_M,
    generate,
    paper_config,
)


@pytest.fixture(scope="module")
def data(spark):
    return generate(spark, paper_config(sf=0.05))


def test_paper_config_sf1_matches_paper_cardinalities():
    cfg = paper_config(sf=1.0)
    assert cfg.n_rentals == 61_872
    assert cfg.n_locations == 14_156
    assert cfg.n_rentals + cfg.n_dirty_rentals == 62_324
    assert cfg.n_locations + cfg.n_dirty_locations == 14_239
    assert cfg.n_hotspots == 1_080  # 1,172 Table II nodes minus 92 stations


@pytest.mark.parametrize("sf", [0.05, 0.1])
def test_scaled_cardinalities(sf):
    cfg = paper_config(sf=sf)
    assert cfg.n_rentals == round(61_872 * sf)
    assert cfg.n_locations == round(14_156 * sf)


# sha256 of pd.util.hash_pandas_object(pdf, index=True) for the SF=0.05 tables
RAW_TABLES = {
    "locations_pdf": (
        {"location_id": "int64", "lat": "float64", "lon": "float64",
         "is_station": "bool", "station_id": "float64"},
        "6705b6f6eb6b2111d3510beff2cea827856294ea3d8322b74e92011e5f40f464",
    ),
    "rentals_pdf": (
        {"rental_id": "int64", "bike_id": "int64", "rental_location_id": "float64",
         "return_location_id": "float64", "start_time": "datetime64[ns]",
         "end_time": "datetime64[ns]"},
        "d0b1375f3a2f3450b5e19188f30744a88e9f87602029c126970b259778a8515b",
    ),
}


def test_raw_tables_fingerprint(data):
    """The generator's output is pinned bit for bit: any change to its
    constants or to the order of its random draws changes a hash."""
    for table, (dtypes, digest) in RAW_TABLES.items():
        pdf = getattr(data, table)
        assert pdf.dtypes.astype(str).to_dict() == dtypes, table
        row_hashes = pd.util.hash_pandas_object(pdf, index=True).to_numpy()
        assert hashlib.sha256(row_hashes.tobytes()).hexdigest() == digest, table


def test_raw_table_sizes(data):
    cfg = data.config
    assert len(data.rentals_pdf) == cfg.n_rentals + cfg.n_dirty_rentals
    assert len(data.locations_pdf) == cfg.n_locations + cfg.n_dirty_locations


def test_station_counts(data):
    pdf = data.locations_pdf
    assert int(pdf["is_station"].sum()) == 92 + data.config.n_bad_stations


def test_location_ids_unique(data):
    assert data.locations_pdf["location_id"].is_unique


def test_clean_locations_inside_dublin_on_land(data):
    """All *clean* (ground-truth) locations are in-bbox and on land."""
    clean = data.locations_pdf.merge(data.loc_node_pdf, on="location_id")
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    assert clean["lat"].between(lat_min, lat_max).all()
    assert clean["lon"].between(lon_min, lon_max).all()
    in_sea = (clean["lon"] > SEA_LON_MIN) & clean["lat"].between(*SEA_LAT)
    assert not in_sea.any()


def test_dirty_location_counts_by_kind(data):
    cfg = data.config
    dirty = data.locations_pdf[
        ~data.locations_pdf["location_id"].isin(data.loc_node_pdf["location_id"])
    ]
    assert len(dirty) == cfg.n_dirty_locations
    no_coords = dirty["lat"].isna()
    assert int(no_coords.sum()) == cfg.dirty_locs_no_coords
    with_coords = dirty[~no_coords]
    in_sea = (with_coords["lon"] > SEA_LON_MIN) & with_coords["lat"].between(*SEA_LAT)
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    outside = ~(
        with_coords["lat"].between(lat_min, lat_max)
        & with_coords["lon"].between(lon_min, lon_max)
    )
    assert int(in_sea.sum()) == cfg.dirty_locs_sea
    assert int(outside.sum()) == cfg.dirty_locs_outside


def test_every_clean_location_is_referenced(data):
    refs = set(data.rentals_pdf["rental_location_id"].dropna()) | set(
        data.rentals_pdf["return_location_id"].dropna()
    )
    clean_ids = set(data.loc_node_pdf["location_id"])
    assert clean_ids <= refs


def test_dirty_rental_counts(data):
    cfg = data.config
    r = data.rentals_pdf
    nulls = r["rental_location_id"].isna() | r["return_location_id"].isna()
    assert int(nulls.sum()) == cfg.dirty_rentals_null_ref
    all_ids = set(data.locations_pdf["location_id"])
    refs = r[~nulls]
    phantom = ~refs["rental_location_id"].isin(all_ids) | ~refs["return_location_id"].isin(all_ids)
    assert int(phantom.sum()) == cfg.dirty_rentals_phantom_ref


def test_timestamps_inside_paper_window(data):
    r = data.rentals_pdf
    assert r["start_time"].min() >= pd.Timestamp("2020-01-03")
    assert r["end_time"].max() <= pd.Timestamp("2021-09-19 23:59:59") + pd.Timedelta(hours=4)
    assert (r["end_time"] > r["start_time"]).all()


def test_hotspot_station_separation(data):
    n = data.nodes_pdf
    st = n[n.kind == "station"]
    hs = n[n.kind == "hotspot"]
    d = haversine_np(
        hs.lat.to_numpy()[:, None], hs.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    )
    assert d.min() >= HOTSPOT_STATION_MIN_SEP_M - 1e-6


def test_hotspot_mutual_separation(data):
    hs = data.nodes_pdf[data.nodes_pdf.kind == "hotspot"]
    d = haversine_np(
        hs.lat.to_numpy()[:, None], hs.lon.to_numpy()[:, None],
        hs.lat.to_numpy()[None, :], hs.lon.to_numpy()[None, :],
    )
    np.fill_diagonal(d, np.inf)
    assert d.min() >= HOTSPOT_MIN_SEP_M - 1e-6


def test_locations_stay_within_node_radius(data):
    merged = data.locations_pdf.merge(data.loc_node_pdf, on="location_id").merge(
        data.nodes_pdf[["node_id", "lat", "lon", "kind"]],
        on="node_id",
        suffixes=("", "_node"),
    )
    d = haversine_np(
        merged.lat.to_numpy(), merged.lon.to_numpy(),
        merged.lat_node.to_numpy(), merged.lon_node.to_numpy(),
    )
    limit = np.where(
        merged.kind.to_numpy() == "station",
        STATION_LOC_RADIUS_M,
        HOTSPOT_LOC_RADIUS_M,
    )
    assert (d <= limit + 1e-6).all()


def test_deterministic_in_seed(spark):
    a = generate(spark, paper_config(sf=0.02))
    b = generate(spark, paper_config(sf=0.02))
    pd.testing.assert_frame_equal(a.rentals_pdf, b.rentals_pdf)
    pd.testing.assert_frame_equal(a.locations_pdf, b.locations_pdf)


def test_different_seed_changes_data(spark):
    a = generate(spark, paper_config(sf=0.02, seed=7))
    b = generate(spark, paper_config(sf=0.02, seed=8))
    assert not a.rentals_pdf["rental_location_id"].equals(b.rentals_pdf["rental_location_id"])


def test_spark_frames_match_pandas(data):
    assert data.rentals.count() == len(data.rentals_pdf)
    assert data.locations.count() == len(data.locations_pdf)
