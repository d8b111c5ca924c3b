"""Unit tests for repro.geo: the numpy Haversine and grid cells. The
grid join is tested against brute force in test_proximity.py, and HAC's
50 m station pre-assignment, which uses it, against a DuckDB oracle in
test_hac_cluster.py."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geo import (
    EARTH_RADIUS_M,
    GRID_REF_LAT_DEG,
    cell_size_deg,
    grid_cells,
    haversine_np,
    pairwise_haversine_np,
)

# (lat1, lon1, lat2, lon2, expected metres) — computed from the Haversine
# formula with R=6,371,000 m.
KNOWN = [
    (53.3498, -6.2603, 53.3498, -6.2603, 0.0),  # same point (Dublin)
    (53.3498, -6.2603, 53.3438, -6.2546, 766.99),  # across Dublin centre
    (53.3498, -6.2603, 51.8985, -8.4756, 219985.13),  # Dublin -> Cork
    (0.0, 0.0, 0.0, 1.0, 111194.93),  # 1 degree lon at equator
    (89.0, 0.0, 89.0, 180.0, 222389.85),  # near-pole wrap
]


def _ref_haversine(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1) / 2
    dl = math.radians(lon2 - lon1) / 2
    a = math.sin(dp) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, a)))


@pytest.mark.parametrize("lat1,lon1,lat2,lon2,expected", KNOWN)
def test_haversine_np_known(lat1, lon1, lat2, lon2, expected):
    got = haversine_np(np.array([lat1]), np.array([lon1]), np.array([lat2]), np.array([lon2]))
    assert got[0] == pytest.approx(expected, abs=0.5)


def test_pairwise_matches_scalar_reference():
    rng = np.random.default_rng(0)
    lat = rng.uniform(53.2, 53.45, 20)
    lon = rng.uniform(-6.5, -6.1, 20)
    d = pairwise_haversine_np(lat, lon)
    assert d.shape == (20, 20)
    for i in range(0, 20, 5):
        for j in range(0, 20, 7):
            assert d[i, j] == pytest.approx(_ref_haversine(lat[i], lon[i], lat[j], lon[j]), abs=1e-6)
    np.testing.assert_allclose(d, d.T, atol=1e-9)
    assert np.allclose(np.diag(d), 0.0)


@pytest.mark.parametrize("eps", [50.0, 100.0, 250.0])
def test_cell_size_upper_bounds_eps(eps):
    dlat, dlon = cell_size_deg(eps)
    # one cell side must be >= eps metres in both axes at the reference lat
    assert dlat * 111_194.9 >= eps * 0.999
    assert dlon * 111_194.9 * math.cos(math.radians(GRID_REF_LAT_DEG)) >= eps * 0.999


@pytest.mark.parametrize("eps", [60.0, 100.0])
def test_grid_cell_neighbours_cover_eps_pairs(eps):
    """Any pair within eps must be in the same or adjacent grid cell."""
    rng = np.random.default_rng(1)
    n = 300
    lat, lon = rng.uniform(53.30, 53.32, n), rng.uniform(-6.28, -6.24, n)
    ci, cj = grid_cells(lat, lon, eps_m=eps)
    d = pairwise_haversine_np(lat, lon)
    ii, jj = np.where((d <= eps) & (d > 0))
    assert len(ii)
    assert (np.abs(ci[ii] - ci[jj]) <= 1).all()
    assert (np.abs(cj[ii] - cj[jj]) <= 1).all()
