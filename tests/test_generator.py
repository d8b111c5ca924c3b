"""The synthetic Moby dataset generator: cardinalities, dirt injection,
geometry and determinism. Most tests read the session fixture
``moby_small`` (SF=0.05)."""
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


def test_small_scale_counts_hit_their_floors():
    """At SF=0.01 the sea, no-coordinate and unreferenced dirt rounds to 0,
    the outside locations stop at the 3 bad stations, and a dirty-rental
    kind without dirty locations of its kind is 0."""
    cfg = paper_config(sf=0.01)
    assert cfg.n_hotspots == 11
    assert cfg.dud_station_endpoints == (4, 4, 4, 4)
    assert cfg.dirty_locations == {"outside": 3, "sea": 0, "no_coords": 0, "unreferenced": 0}
    assert cfg.dirty_rentals == {
        "null_ref": 1, "phantom_ref": 1, "outside": 1, "sea": 0, "no_coords": 0,
    }


RAW_DTYPES = {
    "locations_pdf": {"location_id": "int64", "lat": "float64", "lon": "float64",
                      "is_station": "bool", "station_id": "float64"},
    "rentals_pdf": {"rental_id": "int64", "bike_id": "int64", "rental_location_id": "float64",
                    "return_location_id": "float64", "start_time": "datetime64[ns]",
                    "end_time": "datetime64[ns]"},
}
# sha256 of pd.util.hash_pandas_object(pdf, index=True) per scale factor
# (seed 10); SF=0.01 is the one that reaches the zero-count dirt kinds
RAW_TABLE_DIGESTS = {
    0.05: {
        "locations_pdf": "6705b6f6eb6b2111d3510beff2cea827856294ea3d8322b74e92011e5f40f464",
        "rentals_pdf": "d0b1375f3a2f3450b5e19188f30744a88e9f87602029c126970b259778a8515b",
    },
    0.01: {
        "locations_pdf": "23a194ae26b96f672b82dc6d832cdbf69d06e8dadf10fbc370e11b76634415f4",
        "rentals_pdf": "6d81e5a4dba62f296f342f726637c0706d803f76327e45665afd05cf3ed3322d",
    },
}


def test_raw_tables_fingerprint(spark, moby_small):
    """The generator's output is pinned bit for bit: any change to its
    constants or to the order of its random draws changes a hash."""
    for sf, digests in RAW_TABLE_DIGESTS.items():
        data = moby_small if sf == 0.05 else generate(spark, paper_config(sf=sf, seed=10))
        for table, digest in digests.items():
            pdf = getattr(data, table)
            assert pdf.dtypes.astype(str).to_dict() == RAW_DTYPES[table], (sf, table)
            row_hashes = pd.util.hash_pandas_object(pdf, index=True).to_numpy()
            assert hashlib.sha256(row_hashes.tobytes()).hexdigest() == digest, (sf, table)


def test_raw_table_sizes(moby_small):
    cfg = moby_small.config
    assert len(moby_small.rentals_pdf) == cfg.n_rentals + cfg.n_dirty_rentals
    assert len(moby_small.locations_pdf) == cfg.n_locations + cfg.n_dirty_locations


def test_station_counts(moby_small):
    pdf = moby_small.locations_pdf
    assert int(pdf["is_station"].sum()) == 92 + moby_small.config.n_bad_stations


def test_location_ids_unique(moby_small):
    assert moby_small.locations_pdf["location_id"].is_unique


def test_clean_locations_inside_dublin_on_land(moby_small):
    """All *clean* (ground-truth) locations are in-bbox and on land."""
    clean = moby_small.locations_pdf.merge(moby_small.loc_node_pdf, on="location_id")
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    assert clean["lat"].between(lat_min, lat_max).all()
    assert clean["lon"].between(lon_min, lon_max).all()
    in_sea = (clean["lon"] > SEA_LON_MIN) & clean["lat"].between(*SEA_LAT)
    assert not in_sea.any()


def test_dirty_location_counts_by_kind(moby_small):
    cfg = moby_small.config
    dirty = moby_small.locations_pdf[
        ~moby_small.locations_pdf["location_id"].isin(moby_small.loc_node_pdf["location_id"])
    ]
    assert len(dirty) == cfg.n_dirty_locations
    no_coords = dirty["lat"].isna()
    assert int(no_coords.sum()) == cfg.dirty_locations["no_coords"]
    with_coords = dirty[~no_coords]
    in_sea = (with_coords["lon"] > SEA_LON_MIN) & with_coords["lat"].between(*SEA_LAT)
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    outside = ~(
        with_coords["lat"].between(lat_min, lat_max)
        & with_coords["lon"].between(lon_min, lon_max)
    )
    assert int(in_sea.sum()) == cfg.dirty_locations["sea"]
    assert int(outside.sum()) == cfg.dirty_locations["outside"]


def test_every_clean_location_is_referenced(moby_small):
    refs = set(moby_small.rentals_pdf["rental_location_id"].dropna()) | set(
        moby_small.rentals_pdf["return_location_id"].dropna()
    )
    clean_ids = set(moby_small.loc_node_pdf["location_id"])
    assert clean_ids <= refs


def _endpoint_kinds(data, ids: pd.Series) -> np.ndarray:
    """What each referenced location id is: "clean", or the dirt it plants
    (a null or phantom reference, or a dirty location's kind)."""
    locs = data.locations_pdf.set_index("location_id")
    lat = locs["lat"].reindex(ids).to_numpy()
    lon = locs["lon"].reindex(ids).to_numpy()
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    in_box = (lat >= lat_min) & (lat <= lat_max) & (lon >= lon_min) & (lon <= lon_max)
    return np.select(
        [
            ids.isna().to_numpy(),
            ~ids.isin(locs.index).to_numpy(),
            ids.isin(data.loc_node_pdf["location_id"]).to_numpy(),
            np.isnan(lat),
            (lon > SEA_LON_MIN) & (lat >= SEA_LAT[0]) & (lat <= SEA_LAT[1]),
            ~in_box,
        ],
        ["null_ref", "phantom_ref", "clean", "no_coords", "sea", "outside"],
        default="unreferenced",
    )


def test_dirty_rental_counts(moby_small):
    cfg = moby_small.config
    r = moby_small.rentals_pdf
    nulls = r["rental_location_id"].isna() | r["return_location_id"].isna()
    assert int(nulls.sum()) == cfg.dirty_rentals["null_ref"]
    all_ids = set(moby_small.locations_pdf["location_id"])
    refs = r[~nulls]
    phantom = ~refs["rental_location_id"].isin(all_ids) | ~refs["return_location_id"].isin(all_ids)
    assert int(phantom.sum()) == cfg.dirty_rentals["phantom_ref"]

    rental_kind = _endpoint_kinds(moby_small, r["rental_location_id"])
    return_kind = _endpoint_kinds(moby_small, r["return_location_id"])
    dirty = (rental_kind != "clean") | (return_kind != "clean")
    # exactly one bad endpoint and a clean other one: cleaning a dirty
    # rental never orphans a clean location
    assert ((rental_kind == "clean") != (return_kind == "clean"))[dirty].all()
    bad = np.where(rental_kind == "clean", return_kind, rental_kind)[dirty]
    assert {kind: int((bad == kind).sum()) for kind in cfg.dirty_rentals} == cfg.dirty_rentals
    # appended kind by kind, so even two kinds of equal count cannot trade pools
    by_id = bad[np.argsort(r["rental_id"].to_numpy()[dirty])]
    assert list(by_id) == [kind for kind, k in cfg.dirty_rentals.items() for _ in range(k)]


def test_timestamps_inside_paper_window(moby_small):
    r = moby_small.rentals_pdf
    assert r["start_time"].min() >= pd.Timestamp("2020-01-03")
    assert r["end_time"].max() <= pd.Timestamp("2021-09-19 23:59:59") + pd.Timedelta(hours=4)
    assert (r["end_time"] > r["start_time"]).all()


def test_hotspot_station_separation(moby_small):
    n = moby_small.nodes_pdf
    st = n[n.kind == "station"]
    hs = n[n.kind == "hotspot"]
    d = haversine_np(
        hs.lat.to_numpy()[:, None], hs.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    )
    assert d.min() >= HOTSPOT_STATION_MIN_SEP_M - 1e-6


def test_hotspot_mutual_separation(moby_small):
    hs = moby_small.nodes_pdf[moby_small.nodes_pdf.kind == "hotspot"]
    d = haversine_np(
        hs.lat.to_numpy()[:, None], hs.lon.to_numpy()[:, None],
        hs.lat.to_numpy()[None, :], hs.lon.to_numpy()[None, :],
    )
    np.fill_diagonal(d, np.inf)
    assert d.min() >= HOTSPOT_MIN_SEP_M - 1e-6


def test_locations_stay_within_node_radius(moby_small):
    merged = moby_small.locations_pdf.merge(moby_small.loc_node_pdf, on="location_id").merge(
        moby_small.nodes_pdf[["node_id", "lat", "lon", "kind"]],
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


def test_spark_frames_match_pandas(moby_small):
    assert moby_small.rentals.count() == len(moby_small.rentals_pdf)
    assert moby_small.locations.count() == len(moby_small.locations_pdf)
