"""End-to-end HAC candidate construction on constructed geometries:
50 m pre-assignment, eps-component decomposition, exact per-component
complete linkage, centroid computation; a seeded blob scene against a
brute-force oracle."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.geo import haversine_np, pairwise_haversine_np
from repro.hac.cluster import build_candidates
from repro.hac.linkage import complete_linkage_labels

LAT0, LON0 = 53.34, -6.27
DEG_PER_M_LAT = 1 / 111_194.9


def _pt(dx_m, dy_m):
    return (
        LAT0 + dy_m * DEG_PER_M_LAT,
        LON0 + dx_m * DEG_PER_M_LAT / np.cos(np.radians(LAT0)),
    )


@pytest.fixture()
def scene(spark):
    """One station; one location 30 m from it (pre-assigned); a tight
    cloud of 3 points ~40 m across 500 m away (one candidate cluster);
    two points 150 m apart in the same eps-component? No — 150 m > 100 m
    so they are separate components and separate clusters."""
    station = _pt(0, 0)
    near_station = _pt(30, 0)
    cloud = [_pt(500, 0), _pt(520, 0), _pt(510, 25)]
    pair = [_pt(-600, 0), _pt(-750, 0)]
    pts = [near_station] + cloud + pair
    locations = spark.createDataFrame(
        pd.DataFrame(
            {
                "location_id": range(1, len(pts) + 1),
                "lat": [p[0] for p in pts],
                "lon": [p[1] for p in pts],
            }
        )
    )
    stations = spark.createDataFrame(
        pd.DataFrame({"station_id": [7], "lat": [station[0]], "lon": [station[1]]})
    )
    return locations, stations


def test_preassignment_and_clusters(scene):
    locations, stations = scene
    res = build_candidates(locations, stations)
    a = {r["location_id"]: (r["group_id"], r["kind"]) for r in res.assignment.collect()}
    assert a[1] == ("S7", "station")  # within 50 m of the station
    # the 3-point cloud is one candidate cluster
    assert a[2][1] == "candidate"
    assert a[2][0] == a[3][0] == a[4][0]
    # the 150 m pair are two distinct clusters
    assert a[5][0] != a[6][0]
    assert a[5][1] == a[6][1] == "candidate"
    # cloud cluster differs from pair clusters
    assert a[2][0] not in (a[5][0], a[6][0])


def test_every_location_assigned_exactly_once(scene):
    locations, stations = scene
    res = build_candidates(locations, stations)
    assert res.assignment.count() == locations.count()
    assert res.assignment.select("location_id").distinct().count() == locations.count()


def test_groups_table_contents(scene):
    locations, stations = scene
    res = build_candidates(locations, stations)
    groups = res.groups.collect()
    kinds = {r["group_id"]: r["kind"] for r in groups}
    assert kinds["S7"] == "station"
    assert sum(1 for k in kinds.values() if k == "candidate") == 3
    # station group keeps the station's own coordinate
    srow = [r for r in groups if r["group_id"] == "S7"][0]
    assert (srow["lat"], srow["lon"]) == pytest.approx((LAT0, LON0))
    assert srow["station_id"] == 7


def test_candidate_centroid_is_member_mean(scene, spark):
    locations, stations = scene
    res = build_candidates(locations, stations)
    a = {r["location_id"]: r["group_id"] for r in res.assignment.collect()}
    cloud_gid = a[2]
    loc_pdf = locations.toPandas().set_index("location_id")
    expected_lat = loc_pdf.loc[[2, 3, 4], "lat"].mean()
    expected_lon = loc_pdf.loc[[2, 3, 4], "lon"].mean()
    row = [r for r in res.groups.collect() if r["group_id"] == cloud_gid][0]
    assert row["lat"] == pytest.approx(expected_lat)
    assert row["lon"] == pytest.approx(expected_lon)


def test_cluster_diameter_rule_on_generated_data(spark, cleaned_small):
    """Paper Rule 1 on real generated data: no two members of any
    candidate cluster are more than 100 m apart."""
    from repro.hac.cluster import build_candidates

    res = build_candidates(cleaned_small.locations, cleaned_small.stations)
    pdf = (
        res.assignment.filter(F.col("kind") == "candidate")
        .join(cleaned_small.locations.select("location_id", "lat", "lon"), "location_id")
        .toPandas()
    )
    for gid, grp in pdf.groupby("group_id"):
        if len(grp) > 1:
            d = haversine_np(
                grp.lat.to_numpy()[:, None], grp.lon.to_numpy()[:, None],
                grp.lat.to_numpy()[None, :], grp.lon.to_numpy()[None, :],
            )
            assert d.max() <= 100.0 + 1e-6, gid


def test_preassign_rule_on_generated_data(spark, cleaned_small):
    """Every location within 50 m of a station is station-assigned, and
    every candidate-assigned location is > 50 m from all stations."""
    from repro.geo import nearest_station

    res = build_candidates(cleaned_small.locations, cleaned_small.stations)
    near = nearest_station(
        cleaned_small.locations.select("location_id", "lat", "lon"),
        cleaned_small.stations.select("station_id", "lat", "lon"),
        out_col="ns",
    ).select("location_id", "ns_dist_m")
    joined = res.assignment.join(near, "location_id").collect()
    for r in joined:
        if r["ns_dist_m"] <= 50.0:
            assert r["kind"] == "station"
        else:
            assert r["kind"] == "candidate"


STATIONS_M = {3: (0.0, 0.0), 8: (1500.0, 200.0)}


@pytest.fixture(scope="module")
def blobs():
    """A seeded scene of 320 points in overlapping blobs ~100 m across,
    scattered within 400 m of two stations, as (location_id, lat, lon)."""
    rng = np.random.default_rng(42)
    centres = [
        (sx + r * np.cos(a), sy + r * np.sin(a))
        for sx, sy in STATIONS_M.values()
        for r, a in zip(rng.uniform(0, 400, 8), rng.uniform(0, 2 * np.pi, 8))
    ]
    xy = np.concatenate([c + rng.normal(0, 25, (20, 2)) for c in centres])
    lat, lon = _pt(xy[:, 0], xy[:, 1])
    # ids not in coordinate order, so the row order and the id order differ
    ids = rng.permutation(len(xy)) * 3 + 1
    return pd.DataFrame({"location_id": ids, "lat": lat, "lon": lon})


def _stations(spark):
    lat, lon = zip(*(_pt(x, y) for x, y in STATIONS_M.values()))
    return spark.createDataFrame(
        pd.DataFrame({"station_id": list(STATIONS_M), "lat": lat, "lon": lon})
    )


def _candidates(spark, pdf):
    res = build_candidates(spark.createDataFrame(pdf), _stations(spark))
    return sorted(tuple(r) for r in res.assignment.collect())


def _oracle(pdf):
    """Brute force on the full pairwise matrix: station groups within 50 m,
    eps-components of the rest by graph search, then complete linkage on
    each component in location-id order."""
    pdf = pdf.sort_values("location_id", ignore_index=True)
    ids, lat, lon = (pdf[c].to_numpy() for c in ("location_id", "lat", "lon"))
    st_lat, st_lon = (np.array(v) for v in zip(*(_pt(x, y) for x, y in STATIONS_M.values())))
    to_st = haversine_np(lat[:, None], lon[:, None], st_lat[None, :], st_lon[None, :])
    rows = [
        (int(ids[i]), f"S{list(STATIONS_M)[to_st[i].argmin()]}", "station")
        for i in np.flatnonzero(to_st.min(axis=1) <= 50.0)
    ]
    free = np.flatnonzero(to_st.min(axis=1) > 50.0)
    near = pairwise_haversine_np(lat[free], lon[free]) <= 100.0
    unseen = set(range(len(free)))
    while unseen:
        comp, stack = set(), [min(unseen)]
        while stack:
            i = stack.pop()
            if i in unseen:
                unseen.discard(i)
                comp.add(i)
                stack.extend(np.flatnonzero(near[i]).tolist())
        members = free[sorted(comp)]  # ascending location id
        labels = complete_linkage_labels(lat[members], lon[members], max_diameter_m=100.0)
        rows += [
            (int(ids[m]), f"C{ids[members[0]]}#{k}", "candidate")
            for m, k in zip(members, labels)
        ]
    return sorted(rows)


def test_blobs_match_brute_force_oracle(spark, blobs):
    got = _candidates(spark, blobs)
    assert got == _oracle(blobs)
    # the scene exercises both paths and components holding several clusters
    groups = {g for _, g, _ in got}
    assert any(g.startswith("S") for g in groups)
    assert len({g.split("#")[0] for g in groups if g.endswith("#1")}) >= 3


def test_blobs_cluster_diameter_at_most_100m(spark, blobs):
    got = pd.DataFrame(_candidates(spark, blobs), columns=["location_id", "group_id", "kind"])
    pts = got[got.kind == "candidate"].merge(blobs, on="location_id")
    for gid, grp in pts.groupby("group_id"):
        d = pairwise_haversine_np(grp.lat.to_numpy(), grp.lon.to_numpy())
        assert d.max() <= 100.0, gid


def test_candidates_independent_of_row_order_and_partitions(spark, blobs):
    """Row order and shuffle partitioning reach the driver as the order of
    each collected component; the cluster numbering must not follow it."""
    want = _candidates(spark, blobs)
    shuffled = blobs.sample(frac=1.0, random_state=1, ignore_index=True)
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    try:
        for parts in ("1", "7"):
            spark.conf.set(key, parts)
            assert _candidates(spark, shuffled) == want
    finally:
        spark.conf.set(key, old)
