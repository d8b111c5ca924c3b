"""The numpy eps-grid join (:func:`repro.geo.eps_pairs`) vs brute-force
all-pairs distances: the same pairs as ``pairwise_haversine_np(...) <= eps``
and the same distances, to the last bit."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.geo import (
    GRID_REF_LAT_DEG,
    cell_size_deg,
    eps_pairs,
    haversine_np,
    pairwise_haversine_np,
)


def _brute(lat, lon, eps):
    """``{(i, j): dist}`` for every pair ``i < j`` within ``eps``."""
    d = pairwise_haversine_np(lat, lon)
    ii, jj = np.nonzero(np.triu(d <= eps, k=1))
    return dict(zip(zip(ii.tolist(), jj.tolist()), d[ii, jj].tolist()))


def _grid(lat, lon, eps):
    i, j, d = eps_pairs(lat, lon, eps_m=eps)
    assert (i < j).all()
    got = dict(zip(zip(i.tolist(), j.tolist()), d.tolist()))
    assert len(got) == len(i)  # each pair once
    return got


@pytest.mark.parametrize("seed,eps", [(0, 100.0), (1, 100.0), (2, 60.0), (3, 250.0)])
def test_eps_edges_match_brute_force(seed, eps):
    rng = np.random.default_rng(seed)
    n = 200
    pdf = pd.DataFrame(
        {
            "location_id": rng.permutation(np.arange(1, n + 1)),
            "lat": rng.uniform(53.33, 53.345, n),
            "lon": rng.uniform(-6.28, -6.255, n),
        }
    )
    lat, lon = pdf.lat.to_numpy(), pdf.lon.to_numpy()
    want = _brute(lat, lon, eps)
    assert want
    assert _grid(lat, lon, eps) == want


def _edge_scene(lat0, eps):
    """The corners of a 4x4 block of grid cells near ``lat0`` (each
    coordinate exactly ``k * cell side``), and around each corner points
    moved along either axis by 0.5 eps, a hair and eps give or take a
    hair, both ways."""
    dlat, dlon = cell_size_deg(eps)
    k_lat, k_lon = np.floor(lat0 / dlat), np.floor(-6.26 / dlon)
    lat, lon = (
        a.ravel()
        for a in np.meshgrid((k_lat + np.arange(4)) * dlat, (k_lon + np.arange(4)) * dlon)
    )
    s = np.array([0.5, 1e-9, 0.999999, 1.0, 1.000001])
    s = np.concatenate([s, -s])
    step = np.concatenate([
        np.c_[s * eps / 111_194.93, 0 * s],
        np.c_[0 * s, s * eps / (111_194.93 * np.cos(np.radians(lat0)))],
    ])
    return (
        np.concatenate([lat, (lat[:, None] + step[:, 0]).ravel()]),
        np.concatenate([lon, (lon[:, None] + step[:, 1]).ravel()]),
    )


@pytest.mark.parametrize("lat0", [53.35, GRID_REF_LAT_DEG - 0.01])
@pytest.mark.parametrize("eps", [50.0, 100.0])
def test_eps_edges_on_cell_edges(lat0, eps):
    """Points exactly on cell edges, and pairs within a hair of eps across
    them, down to just south of the grid's reference latitude (where a
    cell's longitude side is closest to eps)."""
    lat, lon = _edge_scene(lat0, eps)
    dlat, dlon = cell_size_deg(eps)
    assert (np.floor(lat / dlat) * dlat == lat).any()
    assert (np.floor(lon / dlon) * dlon == lon).any()
    want = _brute(lat, lon, eps)
    assert any(d > 0.99 * eps for d in want.values())
    assert _grid(lat, lon, eps) == want


@pytest.mark.parametrize("seed", range(3))
def test_eps_pairs_two_sets_match_brute_force(seed):
    """The form HAC's pre-assignment uses: points against a second set."""
    rng = np.random.default_rng(seed)
    lat, lon = rng.uniform(53.33, 53.34, 300), rng.uniform(-6.28, -6.265, 300)
    st_lat, st_lon = rng.uniform(53.33, 53.34, 40), rng.uniform(-6.28, -6.265, 40)
    d = haversine_np(lat[:, None], lon[:, None], st_lat[None, :], st_lon[None, :])
    ii, jj = np.nonzero(d <= 50.0)
    want = dict(zip(zip(ii.tolist(), jj.tolist()), d[ii, jj].tolist()))
    i, j, dist = eps_pairs(lat, lon, st_lat, st_lon, eps_m=50.0)
    got = dict(zip(zip(i.tolist(), j.tolist()), dist.tolist()))
    assert len(got) == len(i) and got == want and want


def test_eps_edges_distances_are_exact():
    i, j, d = eps_pairs(np.array([53.3000, 53.3004]), np.array([-6.26, -6.26]), eps_m=100.0)
    assert (i.tolist(), j.tolist()) == ([0], [1])
    # 0.0004 deg lat = ~44.5 m
    assert d[0] == pytest.approx(44.48, abs=0.1)


def test_eps_edges_no_self_pairs():
    i, j, d = eps_pairs(np.full(3, 53.3), np.full(3, -6.26), eps_m=100.0)
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (1, 2)]  # each once
    assert (d == 0).all()


def test_eps_pairs_empty():
    i, j, d = eps_pairs(
        np.array([53.3]), np.array([-6.26]), np.array([]), np.array([]), eps_m=50.0
    )
    assert len(i) == len(j) == len(d) == 0
