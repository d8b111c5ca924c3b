"""Exact complete-linkage agglomerative clustering (numpy, no scipy).

Run on the driver on one eps-connected component at a time, so ``n`` is
small (tens to low hundreds); the O(n^3) worst case of the naive
Lance-Williams update is irrelevant at that size and keeps the
implementation dependency-free and auditable. Each merge scans the full
distance matrix, in which merged-away clusters are rows and columns of
+inf, so no merge copies a submatrix.

Complete linkage: d(A, B) = max over pairs — merging stops when the next
merge would create a cluster whose *diameter* exceeds the cutoff, which is
exactly the paper's Rule 1 (no two members more than 100 m apart).
"""
from __future__ import annotations

import numpy as np

from repro.geo import pairwise_haversine_np


def complete_linkage_labels(
    lat: np.ndarray, lon: np.ndarray, *, max_diameter_m: float
) -> np.ndarray:
    """Cluster points by complete-linkage HAC with a diameter cutoff.

    Returns integer labels 0..k-1, numbered by each cluster's first row;
    ties in merge distance break on the smaller pair of cluster indices.
    Both depend on the row order, so callers fix it (``build_candidates``
    sorts each component by location id).
    """
    n = len(lat)
    if n == 0:
        return np.zeros(0, dtype=int)
    if n == 1:
        return np.zeros(1, dtype=int)
    d = pairwise_haversine_np(np.asarray(lat, float), np.asarray(lon, float))
    np.fill_diagonal(d, np.inf)

    active = np.ones(n, dtype=bool)
    members: list[list[int]] = [[i] for i in range(n)]
    while True:
        # smallest inter-cluster (complete-linkage) distance: merged-away
        # rows and columns are +inf, so the first minimum in row-major
        # order over the whole matrix is the first over the active indices
        i, j = divmod(int(np.argmin(d)), n)
        if i == j or d[i, j] > max_diameter_m:  # i == j: all +inf, one cluster
            break
        # merge j into i (i < j: the matrix is symmetric); complete
        # linkage: new dist = max of the two rows
        d[i, :] = np.maximum(d[i, :], d[j, :])
        d[:, i] = d[i, :]
        d[i, i] = np.inf
        d[j, :] = np.inf
        d[:, j] = np.inf
        active[j] = False
        members[i].extend(members[j])
        members[j] = []

    labels = np.empty(n, dtype=int)
    next_label = 0
    for a in range(n):
        if active[a]:
            for m in members[a]:
                labels[m] = next_label
            next_label += 1
    return labels
