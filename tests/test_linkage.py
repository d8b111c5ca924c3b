"""Complete-linkage HAC vs a brute-force reference, plus the diameter
invariant the paper's Rule 1 requires."""
from __future__ import annotations

import numpy as np
import pytest

from repro.geo import pairwise_haversine_np
from repro.hac.linkage import complete_linkage_labels


def _brute_force_complete_linkage(lat, lon, cutoff):
    """O(n^3) reference: repeatedly merge the closest pair of clusters by
    complete linkage until the minimum linkage distance exceeds cutoff."""
    d = pairwise_haversine_np(np.asarray(lat, float), np.asarray(lon, float))
    clusters = [[i] for i in range(len(lat))]
    while len(clusters) > 1:
        best = (None, None, np.inf)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                dist = max(d[a, b] for a in clusters[i] for b in clusters[j])
                if dist < best[2]:
                    best = (i, j, dist)
        i, j, dist = best
        if dist > cutoff:
            break
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    labels = np.empty(len(lat), dtype=int)
    for k, members in enumerate(clusters):
        for m in members:
            labels[m] = k
    return labels


def _as_partition(labels):
    groups = {}
    for i, l in enumerate(labels):
        groups.setdefault(l, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def _patches(rng, n):
    """Two loose patches, so both merge and stop paths are exercised."""
    lat = np.concatenate(
        [53.30 + rng.normal(0, 0.0004, n // 2), 53.3100 + rng.normal(0, 0.0004, n - n // 2)]
    )
    lon = np.concatenate(
        [-6.26 + rng.normal(0, 0.0006, n // 2), -6.2550 + rng.normal(0, 0.0006, n - n // 2)]
    )
    return lat, lon


def _grid(rng, n):
    """Points on random cells of a dyadic grid (~14 m steps over ~110 x
    90 m), repeats included: pairs with the same offset along a parallel or
    a meridian are exactly equally far apart, so the merge order rests on
    the tie-break."""
    cells = rng.integers(0, [8, 6], size=(n, 2))
    return 53.25 + cells[:, 0] * 2.0**-13, -6.25 + cells[:, 1] * 2.0**-12


@pytest.mark.parametrize("seed,n,layout", [
    *(pytest.param(seed, n, _patches, id=f"{seed}-{n}")
      for seed, n in [(0, 12), (1, 20), (2, 30), (3, 8), (4, 25)]),
    *(pytest.param(seed, n, _grid, id=f"grid-{seed}-{n}") for seed, n in [(5, 30), (6, 40)]),
])
def test_matches_brute_force(seed, n, layout):
    lat, lon = layout(np.random.default_rng(seed), n)
    got = complete_linkage_labels(lat, lon, max_diameter_m=100.0)
    ref = _brute_force_complete_linkage(lat, lon, 100.0)
    assert _as_partition(got) == _as_partition(ref)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cutoff", [60.0, 100.0])
def test_cluster_diameter_never_exceeds_cutoff(seed, cutoff):
    rng = np.random.default_rng(seed)
    n = 40
    lat = 53.33 + rng.normal(0, 0.0008, n)
    lon = -6.27 + rng.normal(0, 0.0012, n)
    labels = complete_linkage_labels(lat, lon, max_diameter_m=cutoff)
    d = pairwise_haversine_np(lat, lon)
    for l in np.unique(labels):
        members = np.where(labels == l)[0]
        if len(members) > 1:
            assert d[np.ix_(members, members)].max() <= cutoff + 1e-6


def test_empty_and_singleton():
    assert complete_linkage_labels(np.array([]), np.array([]), max_diameter_m=100).size == 0
    assert (complete_linkage_labels(np.array([53.3]), np.array([-6.2]), max_diameter_m=100) == [0]).all()


def test_two_far_points_stay_apart():
    labels = complete_linkage_labels(
        np.array([53.30, 53.31]), np.array([-6.26, -6.26]), max_diameter_m=100.0
    )
    assert labels[0] != labels[1]


def test_two_close_points_merge():
    labels = complete_linkage_labels(
        np.array([53.3000, 53.30005]), np.array([-6.26, -6.26]), max_diameter_m=100.0
    )
    assert labels[0] == labels[1]


def test_deterministic():
    rng = np.random.default_rng(9)
    lat = 53.33 + rng.normal(0, 0.0005, 25)
    lon = -6.27 + rng.normal(0, 0.0008, 25)
    a = complete_linkage_labels(lat, lon, max_diameter_m=100.0)
    b = complete_linkage_labels(lat, lon, max_diameter_m=100.0)
    assert (a == b).all()
