"""End-to-end HAC candidate construction on constructed geometries:
50 m pre-assignment (against a DuckDB oracle and a numpy brute force),
eps-component decomposition, exact per-component complete linkage,
centroid computation; a seeded blob scene against a brute-force oracle;
the Spark jobs the stage starts and the component frame it hands on."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame

from repro.geo import cell_size_deg, eps_pairs, haversine_np, pairwise_haversine_np
from repro.hac import cluster
from repro.hac.cluster import PRE_ASSIGN_M, build_candidates
from repro.hac.linkage import complete_linkage_labels
from repro.oracle import assert_equivalent
from tests.test_builder import _count_nodes
from tests.test_pipeline_integration import _count_jobs

LAT0, LON0 = 53.34, -6.27
DEG_PER_M_LAT = 1 / 111_194.9
#: Location id of station s in the scenes below: STATION_LOC + s.
STATION_LOC = 10_000


def _pt(dx_m, dy_m):
    return (
        LAT0 + dy_m * DEG_PER_M_LAT,
        LON0 + dx_m * DEG_PER_M_LAT / np.cos(np.radians(LAT0)),
    )


def _with_stations(pts: pd.DataFrame, st: pd.DataFrame) -> pd.DataFrame:
    """The cleaned-locations layout ``build_candidates`` reads: the points
    (location_id, lat, lon), then one row per station (station_id, lat,
    lon) at location id ``STATION_LOC + station_id``, flagged
    ``is_station``."""
    return pd.concat(
        [
            pts.assign(is_station=False, station_id=pd.NA),
            st.assign(location_id=STATION_LOC + st["station_id"], is_station=True),
        ],
        ignore_index=True,
    )[["location_id", "lat", "lon", "is_station", "station_id"]].astype(
        {"station_id": "Int64"}
    )


@pytest.fixture()
def scene():
    """One station; one location 30 m from it (pre-assigned); a tight
    cloud of 3 points ~40 m across 500 m away (one candidate cluster);
    two points 150 m apart in the same eps-component? No — 150 m > 100 m
    so they are separate components and separate clusters. The station's
    own location row is ``STATION_LOC + 7``."""
    station = _pt(0, 0)
    near_station = _pt(30, 0)
    cloud = [_pt(500, 0), _pt(520, 0), _pt(510, 25)]
    pair = [_pt(-600, 0), _pt(-750, 0)]
    pts = [near_station] + cloud + pair
    pts = pd.DataFrame(
        {
            "location_id": range(1, len(pts) + 1),
            "lat": [p[0] for p in pts],
            "lon": [p[1] for p in pts],
        }
    )
    st = pd.DataFrame({"station_id": [7], "lat": [station[0]], "lon": [station[1]]})
    return _with_stations(pts, st)


def test_preassignment_and_clusters(spark, scene):
    res = build_candidates(scene, spark)
    a = {r.location_id: (r.group_id, r.kind) for r in res.assignment.itertuples()}
    assert a[STATION_LOC + 7] == ("S7", "station")  # the station itself
    assert a[1] == ("S7", "station")  # within 50 m of the station
    # the 3-point cloud is one candidate cluster
    assert a[2][1] == "candidate"
    assert a[2][0] == a[3][0] == a[4][0]
    # the 150 m pair are two distinct clusters
    assert a[5][0] != a[6][0]
    assert a[5][1] == a[6][1] == "candidate"
    # cloud cluster differs from pair clusters
    assert a[2][0] not in (a[5][0], a[6][0])


def test_every_location_assigned_exactly_once(spark, scene):
    res = build_candidates(scene, spark)
    assert len(res.assignment) == len(scene)
    assert res.assignment["location_id"].is_unique


def test_groups_table_contents(spark, scene):
    res = build_candidates(scene, spark)
    groups = res.groups
    kinds = dict(zip(groups["group_id"], groups["kind"]))
    assert kinds["S7"] == "station"
    assert sum(1 for k in kinds.values() if k == "candidate") == 3
    # station group keeps the station's own coordinate
    srow = groups[groups["group_id"] == "S7"].iloc[0]
    assert (srow["lat"], srow["lon"]) == pytest.approx((LAT0, LON0))
    assert srow["station_id"] == 7


@pytest.fixture()
def tight_cloud(spark):
    """Twelve points within ~40 m of each other, 500 m from one station:
    one candidate cluster. Ids run against the row order, and the pairwise
    mean (numpy sums pairwise from eight terms on) differs in the last bit
    from the sequential one on this scene."""
    rng = np.random.default_rng(8)
    lat, lon = _pt(500 + rng.uniform(-14, 14, 12), rng.uniform(-14, 14, 12))
    pdf = pd.DataFrame({"location_id": np.arange(12, 0, -1) * 5, "lat": lat, "lon": lon})
    return pdf, pd.DataFrame({"station_id": [7], "lat": [LAT0], "lon": [LON0]})


def test_candidate_centroid_is_member_mean(spark, tight_cloud):
    """The centroid is the sum of the member coordinates in location-id
    order divided by the count, to the last bit."""
    pdf, st = tight_cloud
    res = build_candidates(_with_stations(pdf, st), spark)
    (row,) = res.groups[res.groups["kind"] == "candidate"].to_dict("records")
    members = pdf.sort_values("location_id")
    for col in ("lat", "lon"):
        total = 0.0
        for v in members[col]:
            total += v
        assert row[col] == total / len(members)
    assert any(
        np.mean(members[col].to_numpy()) != row[col] for col in ("lat", "lon")
    )


def test_cluster_diameter_rule_on_generated_data(spark, cleaned_small):
    """Paper Rule 1 on real generated data: no two members of any
    candidate cluster are more than 100 m apart."""
    res = build_candidates(cleaned_small.locations, spark)
    a = res.assignment
    pdf = a.loc[a["kind"] == "candidate", ["location_id", "group_id"]].merge(
        cleaned_small.locations[["location_id", "lat", "lon"]], on="location_id"
    )
    for gid, grp in pdf.groupby("group_id"):
        if len(grp) > 1:
            d = haversine_np(
                grp.lat.to_numpy()[:, None], grp.lon.to_numpy()[:, None],
                grp.lat.to_numpy()[None, :], grp.lon.to_numpy()[None, :],
            )
            assert d.max() <= 100.0 + 1e-6, gid


def test_preassign_rule_on_generated_data(spark, cleaned_small):
    """Against a numpy brute force over all stations: every location
    within 50 m of a station is assigned to the nearest one (ties to the
    smaller id), and every other location is a candidate."""
    res = build_candidates(cleaned_small.locations, spark)
    got = res.assignment.merge(
        cleaned_small.locations[["location_id", "lat", "lon"]],
        on="location_id", suffixes=("_got", ""),
    )
    # one row per cleaned location, carrying that location's coordinates
    assert len(got) == len(res.assignment) == cleaned_small.clean_locations
    assert (got.lat_got == got.lat).all() and (got.lon_got == got.lon).all()
    st = (
        cleaned_small.locations[cleaned_small.locations["is_station"]]
        .astype({"station_id": "int64"}).sort_values("station_id", ignore_index=True)
    )
    d = haversine_np(
        got.lat.to_numpy()[:, None], got.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    )
    near = d.min(axis=1) <= 50.0
    assert near.any() and (~near).any()
    assert (got.kind[near] == "station").all()
    assert (got.kind[~near] == "candidate").all()
    nearest = "S" + st.station_id.astype("int64").astype(str).to_numpy()[d.argmin(axis=1)]
    assert (got.group_id.to_numpy()[near] == nearest[near]).all()


def test_build_candidates_requires_a_station(spark, scene):
    with pytest.raises(ValueError, match="station"):
        build_candidates(scene[~scene["is_station"]], spark)


def test_every_location_near_a_station(spark, scene):
    """No free point: the candidate side is empty and ``groups`` holds
    only the stations."""
    res = build_candidates(scene[scene["location_id"].isin([1, STATION_LOC + 7])], spark)
    assert res.assignment.dtypes.astype(str).to_dict() == {
        "location_id": "int64", "group_id": "object", "kind": "object",
        "lat": "float64", "lon": "float64",
    }
    assert list(res.assignment.itertuples(index=False, name=None)) == [
        (1, "S7", "station", *_pt(30, 0)),
        (STATION_LOC + 7, "S7", "station", LAT0, LON0),
    ]
    assert list(res.groups.itertuples(index=False, name=None)) == [
        ("S7", "station", LAT0, LON0, 7)
    ]


# HAC's pre-assignment as SQL: the nearest station within 50 m, exact
# distance ties to the smaller station id; locations without one are free.
HAVERSINE_SQL = """2*6371000*ASIN(SQRT(
    POW(SIN(RADIANS(s.lat-p.lat)/2),2) +
    COS(RADIANS(p.lat))*COS(RADIANS(s.lat))*POW(SIN(RADIANS(s.lon-p.lon)/2),2)))"""
PREASSIGN_SQL = f"""
SELECT p.location_id AS location_id,
       COALESCE((SELECT 'S' || CAST(s.station_id AS VARCHAR) FROM st s
                 WHERE {HAVERSINE_SQL} <= 50
                 ORDER BY {HAVERSINE_SQL}, s.station_id
                 LIMIT 1), 'free') AS group_id
FROM pts p
"""


@pytest.fixture(scope="module")
def preassign_scene():
    """Stations 3, 9 and 12/5 (two stations at one coordinate), 400
    seeded points within 80 m of them, one point 49.9 m and one 50.1 m
    from station 9. Returns (points, stations) as pandas frames."""
    st_m = {3: (0.0, 0.0), 12: (300.0, 0.0), 5: (300.0, 0.0), 9: (0.0, 400.0)}
    rng = np.random.default_rng(7)
    centre = np.array([st_m[3], st_m[12], st_m[9]])[rng.integers(0, 3, 400)]
    r, a = 80 * np.sqrt(rng.uniform(0, 1, 400)), rng.uniform(0, 2 * np.pi, 400)
    xy = np.vstack([centre + np.c_[r * np.cos(a), r * np.sin(a)], [(0, 449.9), (-50.1, 400)]])
    lat, lon = _pt(xy[:, 0], xy[:, 1])
    pts = pd.DataFrame({"location_id": rng.permutation(len(xy)) + 100, "lat": lat, "lon": lon})
    st_lat, st_lon = _pt(*np.array(list(st_m.values())).T)
    st = pd.DataFrame({"station_id": list(st_m), "lat": st_lat, "lon": st_lon})
    return pts, st


def test_preassign_matches_sql_oracle(spark, preassign_scene):
    pts, st = preassign_scene
    # The scene holds the edge cases: points whose station lies in a
    # diagonal 50 m grid cell, the 49.9 m / 50.1 m pair, and points
    # assigned to the duplicated station pair.
    d = haversine_np(
        pts.lat.to_numpy()[:, None], pts.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    )
    assigned = d.min(axis=1) <= 50.0
    nearest = d.argmin(axis=1)
    dlat, dlon = cell_size_deg(50.0)
    di = np.floor(pts.lat.to_numpy() / dlat) - np.floor(st.lat.to_numpy()[nearest] / dlat)
    dj = np.floor(pts.lon.to_numpy() / dlon) - np.floor(st.lon.to_numpy()[nearest] / dlon)
    assert (assigned & (np.abs(di) == 1) & (np.abs(dj) == 1)).any()
    boundary = np.sort(d[-2:, list(st.station_id).index(9)])
    assert 49.8 < boundary[0] < 50.0 < boundary[1] < 50.2
    assert (assigned & np.isin(st.station_id.to_numpy()[nearest], [12, 5])).sum() > 10

    res = build_candidates(_with_stations(pts, st), spark)
    a = res.assignment
    got = pd.DataFrame({
        "location_id": a["location_id"],
        "group_id": a["group_id"].where(a["kind"] == "station", "free"),
    })
    assert_equivalent(got, PREASSIGN_SQL, pts=_with_stations(pts, st), st=st)


@pytest.fixture(scope="module")
def nearest_scene():
    """Point 1 has station 8 at 20 m and station 2 at 40 m: the nearer
    station (the larger id) must win. Point 2 lies halfway between
    stations 6 and 4, 2**-12 degrees of longitude (~16 m) to either side
    on its parallel; the coordinates are dyadic, so both distances are
    equal to the last bit and the smaller id must win. Point 3 is 55 m
    from station 2 and stays free. Returns (points, stations) as pandas."""
    lat0, lon0, d = 53.25, -6.25, 2.0**-12
    (lat1, lon1), (lat3, lon3) = _pt(0, 0), _pt(0, 95)
    pts = pd.DataFrame(
        {"location_id": [1, 2, 3], "lat": [lat1, lat0, lat3], "lon": [lon1, lon0, lon3]}
    )
    (lat8, lon8), (lat2, lon2) = _pt(20, 0), _pt(0, 40)
    st = pd.DataFrame({
        "station_id": [8, 2, 6, 4],
        "lat": [lat8, lat2, lat0, lat0],
        "lon": [lon8, lon2, lon0 + d, lon0 - d],
    })
    return pts, st


def test_preassign_picks_nearest_then_smaller_id(spark, nearest_scene):
    pts, st = nearest_scene
    i, j, dist = eps_pairs(
        pts.lat.to_numpy(), pts.lon.to_numpy(), st.lat.to_numpy(), st.lon.to_numpy(),
        eps_m=PRE_ASSIGN_M,
    )
    pairs = pd.DataFrame({
        "location_id": pts.location_id.to_numpy()[i],
        "station_id": st.station_id.to_numpy()[j],
        "dist_m": dist,
    })
    in_range = pairs.groupby("location_id")
    assert in_range["station_id"].apply(sorted).to_dict() == {1: [2, 8], 2: [4, 6]}
    tie = pairs.loc[pairs["location_id"] == 2, "dist_m"]
    assert tie.nunique() == 1 and 15 < tie.iloc[0] < 17

    res = build_candidates(_with_stations(pts, st), spark)
    a = res.assignment
    kinds = dict(zip(a["location_id"], a["group_id"].where(a["kind"] == "station", "free")))
    assert kinds == {
        1: "S8", 2: "S4", 3: "free", **{STATION_LOC + s: f"S{s}" for s in st.station_id}
    }
    got = pd.DataFrame({"location_id": list(kinds), "group_id": list(kinds.values())})
    assert_equivalent(got, PREASSIGN_SQL, pts=_with_stations(pts, st), st=st)


def test_preassign_plan_has_no_aggregate(spark, nearest_scene, monkeypatch):
    """The 50 m pairs come from the grid join on the driver, which also
    picks each location's station: every plan ``build_candidates`` hands
    Spark is a plain read, with no aggregate and no join, hence no
    shuffle."""
    pts, st = nearest_scene
    plans = []
    frame_type = type(spark.range(1))
    original = frame_type.toPandas

    def spy(df):
        plans.append(df._jdf.queryExecution().optimizedPlan())
        return original(df)

    monkeypatch.setattr(frame_type, "toPandas", spy)
    res = build_candidates(_with_stations(pts, st), spark)
    monkeypatch.undo()
    assert plans
    for plan in plans:
        assert _count_nodes(plan, "Aggregate") == 0
        assert _count_nodes(plan, "Join") == 0
    kinds = dict(zip(res.assignment["location_id"], res.assignment["group_id"]))
    assert (kinds[1], kinds[2]) == ("S8", "S4")


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


def _stations():
    lat, lon = zip(*(_pt(x, y) for x, y in STATIONS_M.values()))
    return pd.DataFrame({"station_id": list(STATIONS_M), "lat": lat, "lon": lon})


def _candidates(spark, pdf):
    """The assignment of ``pdf``'s points; the station rows are left out."""
    a = build_candidates(_with_stations(pdf, _stations()), spark).assignment
    rows = a.loc[a["location_id"].isin(pdf["location_id"]), ["location_id", "group_id", "kind"]]
    return sorted(rows.itertuples(index=False, name=None))


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


def test_build_candidates_job_budget(spark, cleaned_small):
    """Exactly one Spark job: the read of the component labels. The
    cleaned locations arrive as pandas, and both grid joins and the
    component labelling run on the driver."""
    out = []
    jobs = _count_jobs(spark, "test-build-candidates", {
        "build_candidates": lambda: out.append(build_candidates(cleaned_small.locations, spark)),
    })
    assert jobs["build_candidates"] == 1
    assert len(out[0].assignment) == cleaned_small.clean_locations


def test_component_frame_counts_the_free_points(spark, cleaned_small, monkeypatch):
    """The traced benchmark keeps the return of
    ``repro.hac.cluster.connected_components`` and counts the free points
    and the eps-components from it with ``groupBy("component")``: one call
    per run, an ``(id, component)`` Spark frame over exactly the locations
    that become candidates."""
    calls = []
    original = cluster.connected_components

    def spy(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cluster, "connected_components", spy)
    res = build_candidates(cleaned_small.locations, spark)
    (comp,) = calls
    assert isinstance(comp, DataFrame) and comp.columns == ["id", "component"]
    sizes = [r["count"] for r in comp.groupBy("component").count().collect()]
    assert sum(sizes) == (res.assignment["kind"] == "candidate").sum() > 0
    assert len(sizes) > 1
