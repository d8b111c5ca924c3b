"""Pure-Python reference Louvain, used to validate the distributed one.

Operates on plain dict-of-dict adjacency for graphs small enough to hold on
the driver (every station graph in the paper is; the reference is also the
test oracle for the Spark implementation on tiny random graphs).

Conventions match :func:`repro.graph.builder.temporal_graph`: the input
edge list is
*undirected* — pass each non-loop edge once (either direction, duplicates
are summed) — and a self-loop of weight w contributes 2w to its endpoint's
degree and w to total edge weight m.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable

Edge = tuple[Hashable, Hashable, float]


def _adjacency(edges: Iterable[Edge]):
    adj: dict = defaultdict(lambda: defaultdict(float))
    loops: dict = defaultdict(float)
    for u, v, w in edges:
        if u == v:
            loops[u] += w
            adj[u]  # ensure node exists
        else:
            adj[u][v] += w
            adj[v][u] += w
    nodes = set(adj) | set(loops)
    return adj, loops, nodes


def modularity_ref(edges: Iterable[Edge], communities: dict) -> float:
    """Modularity Q (paper eq. 2) of ``communities`` (node -> community)."""
    adj, loops, nodes = _adjacency(edges)
    m = sum(w for nbrs in adj.values() for w in nbrs.values()) / 2.0 + sum(loops.values())
    if m == 0:
        return 0.0
    sigma_in: dict = defaultdict(float)  # sum of A_ij for i,j in c (loops as 2w)
    sigma_tot: dict = defaultdict(float)  # sum of degrees k_i in c
    for u in nodes:
        c = communities[u]
        k_u = sum(adj[u].values()) + 2.0 * loops.get(u, 0.0)
        sigma_tot[c] += k_u
        sigma_in[c] += 2.0 * loops.get(u, 0.0)
        for v, w in adj[u].items():
            if communities[v] == c:
                sigma_in[c] += w  # each intra pair hit from both sides -> 2w total
    return sum(
        sigma_in[c] / (2.0 * m) - (sigma_tot[c] / (2.0 * m)) ** 2 for c in sigma_tot
    )


def louvain_ref(
    edges: Iterable[Edge], *, tol: float = 1e-9, max_levels: int = 20
) -> dict:
    """Full Louvain (local moving + aggregation levels). Deterministic:
    nodes are visited in sorted-by-str order, ties break on the smaller
    community label. Returns node -> community (0..k-1, relabelled by
    first appearance in sorted node order)."""
    edges = list(edges)
    adj, loops, nodes = _adjacency(edges)
    mapping = {u: u for u in nodes}  # original node -> current super-node

    for _level in range(max_levels):
        comm, improved = _one_level(adj, loops, nodes, tol)
        if not improved:
            break
        mapping = {orig: comm[sup] for orig, sup in mapping.items()}
        adj, loops, nodes = _aggregate(adj, loops, comm)

    # Relabel to consecutive ints, stable in sorted(original node) order.
    out: dict = {}
    labels: dict = {}
    for u in sorted(mapping, key=str):
        c = mapping[u]
        if c not in labels:
            labels[c] = len(labels)
        out[u] = labels[c]
    return out


def _one_level(adj, loops, nodes, tol):
    """Local-moving phase: greedy single-node moves until no gain."""
    comm = {u: u for u in nodes}
    k = {u: sum(adj[u].values()) + 2.0 * loops.get(u, 0.0) for u in nodes}
    m = sum(k.values()) / 2.0
    if m == 0:
        return comm, False
    sigma_tot = defaultdict(float)
    for u in nodes:
        sigma_tot[comm[u]] += k[u]

    improved_any = False
    order = sorted(nodes, key=str)
    while True:
        moved = False
        for u in order:
            cu = comm[u]
            # weight from u to each neighbouring community (loops excluded)
            w_to = defaultdict(float)
            for v, w in adj[u].items():
                w_to[comm[v]] += w
            sigma_tot[cu] -= k[u]  # remove u from its community
            best_c, best_gain = cu, w_to.get(cu, 0.0) - sigma_tot[cu] * k[u] / (2.0 * m)
            for c in sorted(w_to, key=str):
                if c == cu:
                    continue
                gain = w_to[c] - sigma_tot[c] * k[u] / (2.0 * m)
                if gain > best_gain + tol or (
                    abs(gain - best_gain) <= tol and str(c) < str(best_c)
                ):
                    best_c, best_gain = c, gain
            comm[u] = best_c
            sigma_tot[best_c] += k[u]
            if best_c != cu:
                moved = improved_any = True
        if not moved:
            return comm, improved_any


def _aggregate(adj, loops, comm):
    """Contract each community into a super-node.

    An intra-community undirected edge of weight w becomes super-loop
    weight w (contributing 2w to the super-node degree, exactly what the
    two original endpoints contributed). ``adj`` stores both directions of
    every non-loop edge, so each intra pair is visited twice -> += w/2 each.
    """
    new_adj: dict = defaultdict(lambda: defaultdict(float))
    new_loops: dict = defaultdict(float)
    nodes = set()
    for u in set(adj) | set(loops):
        cu = comm[u]
        nodes.add(cu)
        new_loops[cu] += loops.get(u, 0.0)
        for v, w in adj[u].items():
            cv = comm[v]
            if cu == cv:
                new_loops[cu] += w / 2.0
            else:
                new_adj[cu][cv] += w  # symmetric: v's pass adds the reverse
    for n in nodes:
        new_adj[n]  # materialise empty neighbourhoods
    return new_adj, dict(new_loops), nodes
