"""Property-based tests (hypothesis) for the pure-numpy substrates:
Haversine metric axioms, integer allocation, complete-linkage invariants,
suppression invariants, reference-modularity bounds, the community
tables' sums over pair counts, the relabelling of endpoint pairs to group
pairs and the connectedness of Louvain's communities. These run without
Spark, so they are cheap enough for many examples."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.communities import community_table, intra_community_share
from repro.geo import haversine_np, pairwise_haversine_np
from repro.graph.builder import relabel_pairs
from repro.graph.components import component_labels
from repro.hac.linkage import complete_linkage_labels
from repro.louvain.louvain import louvain
from repro.louvain.reference import louvain_ref, modularity_ref
from repro.moby.generator import _largest_remainder
from repro.oracle import assert_equivalent
from tests.test_analysis import COMMUNITY_SQL
from tests.test_louvain import _symmetric

lat_st = st.floats(min_value=-89.0, max_value=89.0)
lon_st = st.floats(min_value=-180.0, max_value=180.0)


@given(lat_st, lon_st)
def test_haversine_identity(lat, lon):
    assert haversine_np(lat, lon, lat, lon) == pytest.approx(0.0, abs=1e-6)


@given(lat_st, lon_st, lat_st, lon_st)
def test_haversine_symmetry(lat1, lon1, lat2, lon2):
    a = haversine_np(lat1, lon1, lat2, lon2)
    b = haversine_np(lat2, lon2, lat1, lon1)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


@given(lat_st, lon_st, lat_st, lon_st)
def test_haversine_bounded_by_half_circumference(lat1, lon1, lat2, lon2):
    d = haversine_np(lat1, lon1, lat2, lon2)
    assert 0.0 <= d <= np.pi * 6_371_000.0 + 1.0


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=10_000),
)
def test_largest_remainder_sums_to_total(weights, total):
    alloc = _largest_remainder(np.array(weights), total)
    assert alloc.sum() == total
    assert (alloc >= 0).all()


@given(
    st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=10),
    st.integers(min_value=100, max_value=1000),
)
def test_largest_remainder_proportionality(weights, total):
    w = np.array(weights)
    alloc = _largest_remainder(w, total)
    ideal = w / w.sum() * total
    assert (np.abs(alloc - ideal) < 1.0 + 1e-9).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=30))
def test_linkage_partition_is_valid(seed, n):
    rng = np.random.default_rng(seed)
    lat = 53.33 + rng.normal(0, 0.0006, n)
    lon = -6.27 + rng.normal(0, 0.0009, n)
    labels = complete_linkage_labels(lat, lon, max_diameter_m=100.0)
    assert labels.shape == (n,)
    # labels dense 0..k-1
    assert set(labels) == set(range(labels.max() + 1))
    # diameter rule
    d = pairwise_haversine_np(lat, lon)
    for l in set(labels):
        m = np.where(labels == l)[0]
        if len(m) > 1:
            assert d[np.ix_(m, m)].max() <= 100.0 + 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reference_louvain_modularity_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    edges = []
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.3:
                edges.append((i, j, float(rng.random() + 0.1)))
    if not edges:
        edges = [(0, 1, 1.0)]
    comm = louvain_ref(edges)
    q = modularity_ref(edges, comm)
    assert -1.0 <= q <= 1.0
    # never worse than all-singletons or all-in-one
    nodes = {u for e in edges for u in e[:2]}
    assert q >= modularity_ref(edges, {u: u for u in nodes}) - 1e-12
    assert q >= modularity_ref(edges, {u: 0 for u in nodes}) - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_suppress_result_is_independent_set(seed):
    import pandas as pd

    from repro.geo import haversine_np as hv
    from repro.stations.selection import _suppress

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    pdf = pd.DataFrame(
        {
            "group_id": [f"C{i}" for i in range(n)],
            "lat": 53.33 + rng.uniform(-0.01, 0.01, n),
            "lon": -6.27 + rng.uniform(-0.015, 0.015, n),
            "degree": rng.integers(1, 20, n).astype(float),
        }
    )
    keep = _suppress(pdf, 250.0)
    kept = np.where(keep)[0]
    assert len(kept) >= 1
    if len(kept) > 1:
        d = hv(
            pdf.lat.to_numpy()[kept][:, None], pdf.lon.to_numpy()[kept][:, None],
            pdf.lat.to_numpy()[kept][None, :], pdf.lon.to_numpy()[kept][None, :],
        )
        np.fill_diagonal(d, np.inf)
        assert (d >= 250.0).all()


GROUP_IDS = [f"G{i}" for i in range(6)]


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(GROUP_IDS), st.sampled_from(GROUP_IDS)),  # loops included
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=25,
    ),
    st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_community_table_sums_pair_counts(counts, communities, is_new):
    pairs = pd.DataFrame(
        [(s, d, n) for (s, d), n in counts.items()], columns=["src_group", "dst_group", "count"]
    )
    labels = pd.DataFrame({"group_id": GROUP_IDS, "community": communities})
    kinds = pd.DataFrame({"group_id": GROUP_IDS, "is_new": is_new})
    table = community_table(labels, kinds, pairs)
    # the oracle counts trip rows: one per trip of each pair
    trips = pairs.loc[pairs.index.repeat(pairs["count"]), ["src_group", "dst_group"]]
    assert_equivalent(
        table[["community", "trips_within", "trips_out", "trips_in"]],
        COMMUNITY_SQL, trips=trips, assign=labels,
    )
    within, out, n = table["trips_within"].sum(), table["trips_out"].sum(), pairs["count"].sum()
    assert within + out == n
    assert out == table["trips_in"].sum()
    assert sorted(table["community"]) == sorted(set(communities))
    assert table["total_stations"].sum() == len(GROUP_IDS)
    assert table["new_stations"].sum() == sum(is_new)
    assert intra_community_share(table) == within / n


LOCATION_IDS = list(range(101, 109))

RELABEL_SQL = """
SELECT a.group_id AS src_group, b.group_id AS dst_group, SUM(p.count) AS count
FROM pairs p
JOIN assign a ON p.rental_location_id = a.location_id
JOIN assign b ON p.return_location_id = b.location_id
GROUP BY a.group_id, b.group_id
"""


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(LOCATION_IDS), st.sampled_from(LOCATION_IDS)),  # loops included
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=30,
    ),
    st.lists(
        st.sampled_from(GROUP_IDS[:4]), min_size=len(LOCATION_IDS), max_size=len(LOCATION_IDS)
    ),
)
def test_relabel_pairs_matches_join_oracle(counts, groups):
    """The driver-side relabel of an endpoint-pair table by a location ->
    group map equals a SQL join and aggregate, comes sorted with one row
    per group pair, conserves the trips, and raises on an endpoint that
    the map does not hold."""
    pairs = pd.DataFrame(
        [(a, b, n) for (a, b), n in counts.items()],
        columns=["rental_location_id", "return_location_id", "count"],
    )
    assign = pd.DataFrame({"location_id": LOCATION_IDS, "group_id": groups})
    got = relabel_pairs(pairs, assign)
    assert_equivalent(got, RELABEL_SQL, pairs=pairs, assign=assign)
    assert list(got.columns) == ["src_group", "dst_group", "count"]
    keys = list(zip(got["src_group"], got["dst_group"]))
    assert keys == sorted(set(keys))
    assert got["count"].sum() == pairs["count"].sum()
    missing = pairs["return_location_id"].iloc[-1]
    with pytest.raises(ValueError, match="no group"):
        relabel_pairs(pairs, assign[assign["location_id"] != missing])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_louvain_communities_are_connected(seed):
    """On random weighted graphs (self-loops and isolated vertices
    included), every community ``louvain`` returns is connected by its
    intra-community edges, the labels run 0..k-1 in order of each
    community's minimum vertex, and the reported Q is the reference Q of
    the returned partition."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    p = rng.uniform(0.05, 0.4)
    edges = [
        (i, j, float(rng.integers(1, 10)))
        for i in range(n) for j in range(i, n) if rng.random() < p
    ] or [(0, 1, 1.0)]
    src, dst, weight = _symmetric(edges)
    res = louvain(src, dst, weight, n)
    community = res.community
    intra = community[src] == community[dst]
    parts = component_labels(n, src[intra], dst[intra])
    assert len(np.unique(parts)) == len(np.unique(community))
    _, first = np.unique(community, return_index=True)
    assert (np.diff(first) > 0).all()
    assign = dict(enumerate(community.tolist()))
    assert res.modularity == pytest.approx(modularity_ref(edges, assign), abs=1e-9)
