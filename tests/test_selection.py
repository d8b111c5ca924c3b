"""Algorithm 1 (station ranking & selection): degree threshold, 250 m
rules, greedy suppression and trip-conserving reassignment, on pandas
inputs and outputs, without a Spark job."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from repro.geo import haversine_np
from repro.graph.builder import pair_counts
from repro.oracle import assert_equivalent
from repro.stations.selection import _suppress, group_degrees, select_stations

LAT0, LON0 = 53.34, -6.27
DEG_PER_M_LAT = 1 / 111_194.9


def _pt(dx_m, dy_m):
    """Offset from (LAT0, LON0) in metres east/north."""
    return (
        LAT0 + dy_m * DEG_PER_M_LAT,
        LON0 + dx_m * DEG_PER_M_LAT / np.cos(np.radians(LAT0)),
    )


def _groups(rows):
    pdf = pd.DataFrame(rows, columns=["group_id", "kind", "lat", "lon", "station_id"])
    return pdf.astype({"station_id": "Int64"})


def _trips_df(spark, pairs):
    pdf = pd.DataFrame(pairs, columns=["src_group", "dst_group"])
    return spark.createDataFrame(pdf)


def _pairs(spark, trips):
    """The collected pair table of ``trips``, (src, dst) group pairs."""
    return pair_counts(_trips_df(spark, trips))


def test_group_degrees_counts_both_endpoints(spark):
    deg = group_degrees(_pairs(spark, [("A", "B"), ("B", "A"), ("A", "A")]))
    assert dict(zip(deg["group_id"], deg["degree"])) == {"A": 4.0, "B": 2.0}  # self trip counts twice


def test_group_degrees_oracle(spark):
    """Degrees from the pair table equal the endpoint count over the trips."""
    trips = _trips_df(spark, [("A", "B"), ("B", "C"), ("C", "C"), ("A", "B"), ("C", "A")])
    got = group_degrees(pair_counts(trips)).rename(columns={"degree": "deg"})
    sql = """
    SELECT group_id, CAST(COUNT(*) AS DOUBLE) AS deg FROM (
      SELECT src_group AS group_id FROM trips
      UNION ALL SELECT dst_group FROM trips
    ) GROUP BY group_id
    """
    assert_equivalent(got, sql, trips=trips.toPandas())


# --- the greedy suppression loop ---------------------------------------

def _cand_pdf(points, degrees):
    return pd.DataFrame(
        {
            "group_id": [f"C{i}" for i in range(len(points))],
            "lat": [p[0] for p in points],
            "lon": [p[1] for p in points],
            "degree": degrees,
        }
    )


def test_suppress_keeps_isolated():
    pts = [_pt(0, 0), _pt(1000, 0), _pt(0, 1000)]
    keep = _suppress(_cand_pdf(pts, [5.0, 4.0, 3.0]), 250.0)
    assert keep.all()


def test_suppress_drops_lower_degree_of_close_pair():
    pts = [_pt(0, 0), _pt(100, 0)]
    keep = _suppress(_cand_pdf(pts, [5.0, 9.0]), 250.0)
    assert list(keep) == [False, True]


def test_suppress_chain_is_greedy_by_degree():
    # three in a 200m line with degrees 1, 9, 1: middle wins, both ends die
    pts = [_pt(0, 0), _pt(200, 0), _pt(400, 0)]
    keep = _suppress(_cand_pdf(pts, [1.0, 9.0, 1.0]), 250.0)
    assert list(keep) == [False, True, False]
    # but with the middle weakest, both ends survive (400m apart)
    keep = _suppress(_cand_pdf(pts, [9.0, 1.0, 8.0]), 250.0)
    assert list(keep) == [True, False, True]


def test_suppress_tie_breaks_on_group_id():
    pts = [_pt(0, 0), _pt(100, 0)]
    keep = _suppress(_cand_pdf(pts, [5.0, 5.0]), 250.0)
    assert list(keep) == [True, False]  # C0 < C1


@pytest.mark.parametrize("seed", range(4))
def test_suppress_invariants_random(seed):
    rng = np.random.default_rng(seed)
    pts = [_pt(float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000))) for _ in range(40)]
    pdf = _cand_pdf(pts, rng.integers(1, 50, 40).astype(float))
    keep = _suppress(pdf, 250.0)
    lat, lon = pdf.lat.to_numpy(), pdf.lon.to_numpy()
    kept = np.where(keep)[0]
    # invariant 1: no two kept candidates within 250 m
    d = haversine_np(lat[kept][:, None], lon[kept][:, None], lat[kept][None, :], lon[kept][None, :])
    np.fill_diagonal(d, np.inf)
    assert (d >= 250.0).all()
    # invariant 2 (maximality): every dropped candidate is within 250 m of
    # a kept candidate with >= degree (ties by id)
    deg = pdf.degree.to_numpy()
    for i in np.where(~keep)[0]:
        dd = haversine_np(lat[i], lon[i], lat[kept], lon[kept])
        near = kept[dd < 250.0]
        assert len(near) > 0
        assert any(
            (deg[j] > deg[i]) or (deg[j] == deg[i] and pdf.group_id[j] < pdf.group_id[i])
            for j in near
        )


# --- end-to-end select_stations ----------------------------------------

@pytest.fixture()
def scenario(spark):
    """Two stations + four candidates exercising every rule:

    - C_low: high distance but degree below threshold -> rejected (rule 3)
    - C_near: strong degree but 200 m from S1 -> rejected (rule 4)
    - C_a, C_b: strong, far from stations, but 200 m apart -> C_a wins
    """
    s1, s2 = _pt(0, 0), _pt(2000, 0)
    c_low, c_near = _pt(0, 800), _pt(200, 0)
    c_a, c_b = _pt(1000, 1000), _pt(1200, 1000)
    groups = _groups(
        [
            ("S1", "station", *s1, 1), ("S2", "station", *s2, 2),
            ("Clow", "candidate", *c_low, None), ("Cnear", "candidate", *c_near, None),
            ("Ca", "candidate", *c_a, None), ("Cb", "candidate", *c_b, None),
        ],
    )
    # degrees: S1=4, S2=6 (threshold 4); Clow=2; Cnear=5; Ca=9; Cb=4
    pairs = _pairs(
        spark,
        [("S1", "S2")] * 2 + [("S2", "S1")] * 2
        + [("Clow", "S2")] * 2
        + [("Cnear", "Ca")] * 3 + [("Ca", "Cnear")] * 2
        + [("Cb", "Ca")] * 2 + [("Ca", "Cb")] * 2,
    )
    # locations: one per group at the group coordinate
    assignment = pd.DataFrame(
        {
            "location_id": [1, 2, 3, 4, 5, 6],
            "group_id": ["S1", "S2", "Clow", "Cnear", "Ca", "Cb"],
            "kind": ["station", "station"] + ["candidate"] * 4,
            "lat": [s1[0], s2[0], c_low[0], c_near[0], c_a[0], c_b[0]],
            "lon": [s1[1], s2[1], c_low[1], c_near[1], c_a[1], c_b[1]],
        }
    )
    return groups, pairs, assignment


def test_select_stations_applies_all_rules(scenario):
    res = select_stations(*scenario)
    assert res.threshold == 4.0
    selected = set(res.selected["group_id"])
    assert selected == {"Ca"}


def test_select_stations_reassigns_orphans_to_nearest(scenario):
    res = select_stations(*scenario)
    fa = _final(res)
    assert fa[1] == ("S1", False) and fa[2] == ("S2", False)
    assert fa[5] == ("Ca", True)
    assert fa[3] == ("S1", False)  # Clow 800m from S1, nearer than S2/Ca
    assert fa[4] == ("S1", False)  # Cnear 200m from S1
    assert fa[6] == ("Ca", True)  # Cb 200m from Ca
    # every location still mapped exactly once: trips conserved
    assert len(fa) == 6


def _final(res):
    """``final_assignment`` as location_id -> (station_group, is_new)."""
    fa = res.final_assignment
    return dict(zip(fa["location_id"], zip(fa["station_group"], fa["is_new"])))


def _scene_frames(spark, groups, trips, locs):
    """Inputs of ``select_stations``: ``groups`` rows (group_id, kind,
    lat, lon, station_id), ``trips`` (src, dst) group pairs (counted
    through Spark into the pair table), ``locs`` (location_id, group_id,
    lat, lon) rows of the assignment."""
    locs = pd.DataFrame(locs, columns=["location_id", "group_id", "lat", "lon"])
    kind = np.where(locs["group_id"].str.startswith("S"), "station", "candidate")
    assignment = locs.assign(kind=kind)[["location_id", "group_id", "kind", "lat", "lon"]]
    return _groups(groups), _pairs(spark, trips), assignment


def test_select_stations_requires_a_fixed_station(spark):
    c = _pt(0, 0)
    inputs = _scene_frames(
        spark, [("C1", "candidate", *c, None)], [("C1", "C1")], [(1, "C1", *c)]
    )
    with pytest.raises(ValueError, match="station"):
        select_stations(*inputs)


def test_orphan_equidistant_stations_go_to_smaller_group_id(spark):
    # S7 and S3 share one coordinate, so the orphan's two distances are
    # bit-identical; it must join S3, the smaller group id.
    s, c = _pt(0, 0), _pt(500, 0)
    inputs = _scene_frames(
        spark,
        [("S7", "station", *s, 7), ("S3", "station", *s, 3), ("C1", "candidate", *c, None)],
        [("S7", "S3")] * 3 + [("C1", "S7")],
        [(1, "S7", *s), (2, "S3", *s), (3, "C1", *c)],
    )
    res = select_stations(*inputs)
    assert res.n_selected == 0
    fa = dict(zip(res.final_assignment["location_id"], res.final_assignment["station_group"]))
    assert fa == {1: "S7", 2: "S3", 3: "S3"}


def test_no_candidate_passes_threshold(spark):
    s1, s2 = _pt(0, 0), _pt(2000, 0)
    c1, c2, c3 = _pt(0, 800), _pt(1700, 300), _pt(800, 1500)
    inputs = _scene_frames(
        spark,
        [
            ("S1", "station", *s1, 1), ("S2", "station", *s2, 2),
            ("C1", "candidate", *c1, None), ("C2", "candidate", *c2, None),
            ("C3", "candidate", *c3, None),
        ],
        # degrees: S1 = S2 = 4 (threshold); C1 = C2 = 1; C3 = 2 (self-trip)
        [("S1", "S2")] * 4 + [("C1", "C2"), ("C3", "C3")],
        [(1, "S1", *s1), (2, "S2", *s2), (3, "C1", *c1), (4, "C2", *c2), (5, "C3", *c3)],
    )
    res = select_stations(*inputs)
    assert res.threshold == 4.0
    assert res.n_selected == 0
    assert len(res.selected) == 0
    assert res.selected.dtypes.astype(str).to_dict() == {
        "group_id": "object", "lat": "float64", "lon": "float64", "degree": "float64",
    }
    fa = _final(res)
    assert fa == {
        1: ("S1", False), 2: ("S2", False), 3: ("S1", False), 4: ("S2", False), 5: ("S1", False),
    }


@pytest.fixture(scope="module")
def city():
    """Seeded scene: 4 stations and 40 candidates of 1-3 locations each in
    a 3 km square, with 600 trips between groups of exponentially
    distributed popularity. Threshold 7: 9 candidates fall below it, 3 lie
    within 250 m of a station, 17 pairs within 250 m of each other, and
    degrees tie."""
    rng = np.random.default_rng(7)
    groups, locs = [], []
    for i, (x, y) in enumerate([(300, 300), (2700, 300), (300, 2700), (1500, 1500)]):
        p = _pt(x, y)
        groups.append((f"S{i}", "station", *p, i))
        locs.append((len(locs), f"S{i}", *p))
    for i in range(40):
        x, y = rng.uniform(0, 3000, 2)
        groups.append((f"C{i:02d}", "candidate", *_pt(x, y), None))
        for _ in range(rng.integers(1, 4)):
            locs.append((len(locs), f"C{i:02d}", *_pt(x + rng.normal(0, 20), y + rng.normal(0, 20))))
    ids = [g[0] for g in groups]
    pop = rng.exponential(1.0, len(ids))
    ends = rng.choice(ids, size=(600, 2), p=pop / pop.sum())
    return groups, [tuple(e) for e in ends], locs


def _selection_rows(spark, groups, trips, locs):
    res = select_stations(*_scene_frames(spark, groups, trips, locs))
    return (
        res.threshold,
        sorted(res.selected.itertuples(index=False, name=None)),
        sorted(res.final_assignment.itertuples(index=False, name=None)),
    )


def test_selection_independent_of_row_order_and_partitions(spark, city):
    """Row order reaches selection as the order of the groups and the
    assignment, and shuffle partitioning as the order of the collected
    pair table; no output may follow either."""
    want = _selection_rows(spark, *city)
    assert want[0] == 7.0 and 0 < len(want[1]) < 31
    rng = np.random.default_rng(1)
    shuffled = [[rows[i] for i in rng.permutation(len(rows))] for rows in city]
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    try:
        for parts in ("1", "7"):
            spark.conf.set(key, parts)
            assert _selection_rows(spark, *shuffled) == want
    finally:
        spark.conf.set(key, old)


def test_select_stations_starts_no_spark_job(spark, city):
    """Algorithm 1 runs on the driver: its inputs are pandas and its
    outputs stay pandas, so no Spark job runs in its job group."""
    inputs = _scene_frames(spark, *city)
    sc = spark.sparkContext
    try:
        sc.setJobGroup("test-select-stations", "select_stations")
        res = select_stations(*inputs)
        sc.setJobGroup("test-select-stations-probe", "one Spark job")
        spark.range(3).collect()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    assert tracker.getJobIdsForGroup("test-select-stations-probe")  # the tracker sees jobs
    assert list(tracker.getJobIdsForGroup("test-select-stations")) == []
    assert res.n_selected > 0
