"""Driver-side Louvain and modularity vs the Python reference."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.louvain.louvain import louvain, modularity
from repro.louvain.reference import louvain_ref, modularity_ref


def _symmetric(edges):
    """Symmetric-form arrays of an undirected edge list: each non-loop
    edge in both directions, each loop once."""
    rows = [(u, v, w) for u, v, w in edges] + [(v, u, w) for u, v, w in edges if u != v]
    src, dst, weight = (np.array(col) for col in zip(*rows))
    return src, dst, weight.astype(float)


def _n(edges):
    return max(max(u, v) for u, v, _ in edges) + 1


CASES = {
    "two_triangles": [
        (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
        (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 0.5),
    ],
    "loops_and_weights": [
        (0, 1, 3.0), (1, 2, 2.0), (0, 0, 5.0), (2, 3, 0.3),
        (3, 4, 2.0), (4, 5, 2.5), (5, 3, 1.0), (5, 5, 1.0),
    ],
}


def _planted(seed, blocks, n_per, p_in=0.7, p_out=0.05):
    rng = np.random.default_rng(seed)
    nodes = list(range(blocks * n_per))
    return [
        (u, v, 1.0)
        for u, v in itertools.combinations(nodes, 2)
        if rng.random() < (p_in if u // n_per == v // n_per else p_out)
    ]


CASES["planted_3x8"] = _planted(0, 3, 8)


@pytest.mark.parametrize("name", sorted(CASES))
def test_louvain_matches_reference_quality(name):
    """Same #communities and same modularity as the reference (both find
    an optimum of the same greedy family on these graphs)."""
    edges = CASES[name]
    ref = louvain_ref(edges)
    q_ref = modularity_ref(edges, ref)
    res = louvain(*_symmetric(edges), _n(edges))
    assign = dict(enumerate(res.community.tolist()))
    assert len(set(assign.values())) == len(set(ref.values()))
    assert res.modularity == pytest.approx(q_ref, abs=1e-6)
    # the reported modularity must equal the recomputed (reference) Q of
    # the returned assignment — no drift between claim and partition
    assert modularity_ref(edges, assign) == pytest.approx(res.modularity, abs=1e-9)


@pytest.mark.parametrize("name", sorted(CASES))
def test_modularity_matches_reference(name):
    """Modularity of an arbitrary partition == reference."""
    edges = CASES[name]
    part = np.arange(_n(edges)) % 2  # arbitrary 2-colouring
    got = modularity(*_symmetric(edges), part)
    assert got == pytest.approx(modularity_ref(edges, dict(enumerate(part))), abs=1e-9)


def test_modularity_singletons():
    edges = CASES["two_triangles"]
    part = np.arange(_n(edges))
    got = modularity(*_symmetric(edges), part)
    assert got == pytest.approx(modularity_ref(edges, dict(enumerate(part))), abs=1e-9)


def test_louvain_isolated_vertices_stay_singleton():
    res = louvain(*_symmetric([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]), 5)
    assign = res.community
    assert len(assign) == 5
    assert assign[0] == assign[1] == assign[2]
    assert len({assign[3], assign[4], assign[0]}) == 3


def test_louvain_assignment_labels_dense():
    edges = CASES["two_triangles"]
    res = louvain(*_symmetric(edges), _n(edges))
    labels = sorted(set(res.community.tolist()))
    assert labels == list(range(len(labels)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_louvain_invariant_to_edge_row_order(name):
    edges = CASES[name]
    src, dst, weight = _symmetric(edges)
    res = louvain(src, dst, weight, _n(edges))
    perm = np.random.default_rng(7).permutation(len(src))
    shuffled = louvain(src[perm], dst[perm], weight[perm], _n(edges))
    assert shuffled.community.tolist() == res.community.tolist()
    assert shuffled.modularity == pytest.approx(res.modularity, abs=1e-12)


def test_louvain_k2_does_not_swap_forever():
    """Both endpoints of a single edge gain by joining the other; moved
    synchronously without the direction rule they would swap every round."""
    res = louvain(*_symmetric([(0, 1, 1.0)]), 2)
    assert res.community.tolist() == [0, 0]
    assert res.modularity == pytest.approx(0.0)
    assert res.levels == 1
