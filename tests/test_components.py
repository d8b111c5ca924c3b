"""Connected components: the numpy labelling vs a pure-Python union-find
reference, plus the frame of the array entry point. Also checks that the frames
built on the driver (these labels, ``louvain_groups``' assignment and the
pipeline's location -> group maps) are local relations, and that both
maps are broadcast."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro import pipeline
from repro.graph.builder import trips_with_groups
from repro.graph.components import component_labels, connected_components
from repro.pipeline import louvain_groups


def _union_find(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    # canonical label = min member id
    labels = {}
    for x in range(n):
        r = find(x)
        labels.setdefault(r, min(i for i in range(n) if find(i) == r))
    return {x: labels[find(x)] for x in range(n)}


@pytest.mark.parametrize("seed,n,p", [(0, 30, 0.05), (1, 40, 0.02), (2, 25, 0.15)])
def test_components_match_union_find(seed, n, p):
    rng = np.random.default_rng(seed)
    edges = [
        (int(i), int(j))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    got = component_labels(n, src, dst)
    ref = _union_find(n, edges)
    assert got.tolist() == [ref[x] for x in range(n)]


def test_components_chain_and_direction_ignored():
    # directed chain 4 -> 3 -> 2 -> 1 -> 0 must still collapse to one comp
    got = component_labels(5, np.arange(1, 5), np.arange(4))
    assert got.tolist() == [0] * 5


def test_components_long_reverse_chain(spark):
    """A 200-vertex path whose ids fall along it: plain min-label
    propagation needs 199 rounds to carry label 0 to the far end."""
    n = 200
    comp = connected_components(spark, np.arange(n), np.arange(1, n), np.arange(n - 1))
    got = {r["id"]: r["component"] for r in comp.collect()}
    assert got == {i: 0 for i in range(n)}


def test_components_singletons(spark):
    """Every vertex comes back as ``(id, component)``, isolated ones and
    self-loops included."""
    comp = connected_components(spark, np.arange(5), np.array([0, 4]), np.array([0, 2]))
    assert comp.columns == ["id", "component"]
    got = {r["id"]: r["component"] for r in comp.collect()}
    assert got == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2}


def test_components_rejects_edge_to_unknown_vertex(spark):
    with pytest.raises(ValueError, match="vertex id"):
        connected_components(spark, np.arange(3), np.array([0]), np.array([7]))


def test_driver_frames_are_local_relations(spark, moby_small, monkeypatch):
    """Frames built on the driver come from pandas through Arrow as a
    ``LocalRelation``. Built from a Python list they would be a
    ``LogicalRDD``, read through a forked Python worker. Checked: these
    labels, ``louvain_groups``' assignment, and the frames the pipeline
    hands Spark: the candidate and final location -> group maps (caught
    on their way into ``trips_with_groups``). Both maps arrive with a
    broadcast hint, so resolving the rentals shuffles none of them."""
    e = pd.DataFrame({"src": ["a", "b", "c", "d"], "dst": ["b", "a", "d", "c"], "weight": 1.0})
    labels = connected_components(
        spark, np.arange(1, 5), np.array([1, 2, 3, 4]), np.array([2, 1, 4, 3])
    )
    for df in (labels, louvain_groups(spark.createDataFrame(e))[0]):
        assert df.count() == 4
        assert _plan_leaf(df) == "LocalRelation"

    maps = []

    def spy(rentals, assignment):
        maps.append(assignment)
        return trips_with_groups(rentals, assignment)

    monkeypatch.setattr(pipeline, "trips_with_groups", spy)
    r = pipeline.run_pipeline(spark, data=moby_small, granularities=())
    assert len(maps) == 2
    for df in maps:
        assert df.columns == ["location_id", "group_id"]
        assert df.count() == r.cleaned.clean_locations
    assert [_plan_leaf(df) for df in maps] == ["LocalRelation"] * 2
    for df in maps:
        plan = df._jdf.queryExecution().analyzed()
        assert plan.nodeName() == "ResolvedHint"
        assert plan.hints().strategy().get().toString() == "broadcast"


def _plan_leaf(df):
    """The node name of ``df``'s analysed plan below a broadcast hint."""
    plan = df._jdf.queryExecution().analyzed()
    return (plan.child() if plan.nodeName() == "ResolvedHint" else plan).nodeName()
