"""Connected components, labelled on the driver.

The HAC stage needs the connected components of the 100 m proximity graph
of the locations that are not near a station: a few thousand vertices in a
few hundred small components, far too small to be a distributed workload.
HAC builds that graph on the driver, so :func:`connected_components` takes
its vertex ids and edges as numpy arrays, labels them with
:func:`component_labels` and hands the labels to Spark as a local frame
built from pandas through Arrow (a ``LocalRelation``, so no Python worker
process is needed to read it).

Edges are taken as undirected, so they may be given in one direction or
in both.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


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


def connected_components(
    spark: SparkSession, ids: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> DataFrame:
    """Return ``(id, component)`` for every vertex id in ``ids``, isolated
    ones included, where ``component`` is the minimum vertex id in the
    component. ``src[k] -- dst[k]`` are the edges, given as vertex ids;
    every endpoint must be in ``ids``."""
    ids = np.unique(ids)
    ends = np.stack([np.asarray(src), np.asarray(dst)])
    if not np.isin(ends, ids).all():
        raise ValueError("every edge endpoint must be a vertex id")
    src, dst = np.searchsorted(ids, ends)
    # ids are sorted, so the smallest index of a component is its min id
    component = ids[component_labels(len(ids), src, dst)]
    return spark.createDataFrame(
        pd.DataFrame({"id": ids, "component": component}), schema="id long, component long"
    )
