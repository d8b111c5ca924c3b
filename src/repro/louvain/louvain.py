"""Louvain community detection on the driver, in numpy.

Implements the two-phase Louvain scheme (paper refs [27], [34]). The
station graphs it runs on have a few hundred vertices and at most ~10^4
symmetric edges, so the caller collects the level-0 edge list once and
every level runs over integer arrays with ``np.unique``/``bincount``/
``lexsort``; Spark stays with the trip-scale work that builds the graph.

* **Local moving** is synchronous: every round scores each vertex against
  the community assignment of the previous round, then applies all moves
  at once. For vertex ``i`` and neighbouring community ``c`` the gain is
  ``w_ic - k_i * tot_adj / (2m)``, where ``tot_adj`` is the community's
  total degree without ``i``. The best candidate has the largest gain,
  ties going to the smaller community id. A vertex with no neighbour in
  its own community scores ``-k_i * (tot - k_i) / (2m)`` for staying; it
  moves only if its best gain beats the stay score by more than ``TOL``.

* **Swap safety** — fully synchronous moving lets two vertices swap
  communities forever (each sees a positive gain against the *old*
  assignment; Lu, Halappanavar & Kalyanaraman 2015 discuss the
  oscillation). Rounds alternate move direction: even rounds only allow
  moves to a community id ≤ the vertex's own, odd rounds ≥. A swap needs
  both directions at once, so it cannot occur, while any merge remains
  reachable within two rounds. A level stops after two quiet rounds or
  ``MAX_ROUNDS``.

* **Aggregation** — communities are contracted into super-nodes whose id
  is the community label, intra-community weight becomes a self-loop, and
  the process recurses until a level improves modularity by no more than
  ``TOL`` (at most ``MAX_LEVELS`` levels).

Vertices are ``0..n-1``. Edges are in symmetric form
(:meth:`repro.graph.graph.Graph.symmetrize`): each undirected non-loop edge
in both directions, self-loops once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-7
MAX_ROUNDS = 40
MAX_LEVELS = 10


@dataclass(frozen=True)
class LouvainResult:
    """``community[v]`` is the label of vertex ``v`` (0..k-1, ordered by
    each community's minimum member). ``levels`` is the number of
    aggregation levels that improved modularity."""

    community: np.ndarray
    modularity: float
    levels: int


def modularity(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
               community: np.ndarray) -> float:
    """Modularity Q (paper eq. 2) of ``community`` (vertex -> label) on the
    symmetric edge list ``src``/``dst``/``weight``. A self-loop of weight w
    counts 2w towards its vertex's degree and w towards m."""
    loop = src == dst
    m = weight[~loop].sum() / 2.0 + weight[loop].sum()
    if m == 0.0:
        return 0.0
    k = np.where(loop, 2.0 * weight, weight)
    c_src = community[src]
    intra = c_src == community[dst]
    tot = np.bincount(c_src, weights=k)
    inn = np.bincount(c_src[intra], weights=k[intra], minlength=len(tot))
    return float(np.sum(inn / (2.0 * m) - (tot / (2.0 * m)) ** 2))


def louvain(src: np.ndarray, dst: np.ndarray, weight: np.ndarray, n: int) -> LouvainResult:
    """Run Louvain on the symmetric graph over vertices ``0..n-1``. Vertices
    without edges stay singletons."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    mapping = np.arange(n)  # original vertex -> current super-node
    best_q = modularity(src, dst, weight, mapping)
    levels = 0
    for _ in range(MAX_LEVELS):
        comm, moved = _local_moving(src, dst, weight, n)
        if not moved:
            break
        q = modularity(src, dst, weight, comm)
        if q <= best_q + TOL:
            break
        best_q = q
        levels += 1
        mapping = comm[mapping]
        src, dst, weight = _aggregate(src, dst, weight, comm, n)

    # relabel 0..k-1 in order of each community's minimum member
    _, first, inverse = np.unique(mapping, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return LouvainResult(community=rank[inverse], modularity=best_q, levels=levels)


def _local_moving(src, dst, weight, n) -> tuple[np.ndarray, bool]:
    """One level's synchronous local moving over the vertices that have
    edges. Returns (vertex -> community, whether any vertex moved)."""
    loop = src == dst
    k = np.bincount(src, weights=np.where(loop, 2.0 * weight, weight), minlength=n)
    two_m = k.sum()
    comm = np.arange(n)
    if two_m <= 0.0:
        return comm, False
    s, d, w = src[~loop], dst[~loop], weight[~loop]

    moved_any = False
    quiet = 0
    for it in range(MAX_ROUNDS):
        tot = np.bincount(comm, weights=k, minlength=n)
        # w_ic: weight from vertex i to each neighbouring community c
        keys, inverse = np.unique(s * n + comm[d], return_inverse=True)
        w_ic = np.bincount(inverse, weights=w)
        i, c = keys // n, keys % n
        own = comm[i]
        allowed = c <= own if it % 2 == 0 else c >= own
        i, c, own, w_ic = i[allowed], c[allowed], own[allowed], w_ic[allowed]
        tot_adj = tot[c] - np.where(c == own, k[i], 0.0)
        gain = w_ic - k[i] * tot_adj / two_m

        stay = -k * (tot[comm] - k) / two_m
        at_home = c == own
        stay[i[at_home]] = gain[at_home]
        # best candidate per vertex: max gain, ties to the smaller c
        order = np.lexsort((c, -gain, i))
        i, c, gain = i[order], c[order], gain[order]
        head = np.diff(i, prepend=-1) != 0
        i, c, gain = i[head], c[head], gain[head]
        movers = (gain > stay[i] + TOL) & (c != comm[i])
        if movers.any():
            comm[i[movers]] = c[movers]
            moved_any = True
            quiet = 0
        else:
            quiet += 1
            # both move directions must pass a quiet round before stopping
            if quiet >= 2:
                break
    return comm, moved_any


def _aggregate(src, dst, weight, comm, n):
    """Contract communities into super-nodes named by their label, keeping
    the symmetric form: inter edges in both directions, loops once (a
    symmetric intra pair appears twice, so each copy adds w/2)."""
    c_src, c_dst = comm[src], comm[dst]
    w = np.where((c_src == c_dst) & (src != dst), weight / 2.0, weight)
    keys, inverse = np.unique(c_src * n + c_dst, return_inverse=True)
    return keys // n, keys % n, np.bincount(inverse, weights=w)
