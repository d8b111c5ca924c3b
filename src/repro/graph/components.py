"""Connected components, labelled on the driver.

The HAC stage needs the connected components of the 100 m proximity graph
of the locations that are not near a station: a few thousand vertices in a
few hundred small components, far too small to be a distributed workload.
:func:`connected_components` collects the vertex ids and the edges once,
labels them in numpy with :func:`component_labels` and hands the labels
back as a local frame built from pandas through Arrow (a ``LocalRelation``,
so no Python worker process is needed to read it).

Edges are taken as undirected, so the input may be directed, e.g. the
symmetric form of :func:`repro.graph.builder.temporal_graph`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import StructField, StructType


def component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Label vertices ``0..n-1`` of the undirected graph with edges
    ``src[i] -- dst[i]`` by the smallest vertex of their component.

    Min-label propagation with pointer jumping: every vertex starts with
    its own label; each round pulls both endpoints of every edge down to
    the smaller of their labels, then replaces every label by its label's
    label until that changes nothing. A label only ever falls and always
    names a vertex of the same component, so the loop ends, and it ends
    only when every edge joins equal labels, i.e. at the component minima.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[src], label[dst])
        new = label.copy()
        np.minimum.at(new, src, low)
        np.minimum.at(new, dst, low)
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def connected_components(vertices: DataFrame, edges: DataFrame) -> DataFrame:
    """Return ``(id, component)`` for every ``id`` of ``vertices``, isolated
    ones included, where ``component`` is the minimum vertex id in the
    component. Every ``src``/``dst`` endpoint of ``edges`` must be a vertex."""
    ids = np.unique(vertices.select("id").toPandas()["id"].to_numpy())
    ends = edges.select("src", "dst").toPandas().to_numpy()
    if not np.isin(ends, ids).all():
        raise ValueError("every edge endpoint must be a vertex id")
    src, dst = np.searchsorted(ids, ends).T
    # ids are sorted, so the smallest index of a component is its min id
    component = ids[component_labels(len(ids), src, dst)]
    field = vertices.schema["id"]
    schema = StructType([field, StructField("component", field.dataType, field.nullable)])
    return vertices.sparkSession.createDataFrame(
        pd.DataFrame({"id": ids, "component": component}), schema
    )
