"""A GraphX-style property graph on Spark DataFrames.

The paper's substrate is Neo4j; the reproduction hint asks for a GraphX-like
distributed-dataflow graph. GraphFrames is not available offline, so this
module provides the minimal property-graph layer the pipeline needs:

- :class:`Graph` — ``vertices (id, ...)`` + ``edges (src, dst, weight, ...)``
- symmetrisation (the paper's graphs are bidirectional)
- connected components (see :mod:`repro.graph.components`)

Conventions
-----------
Edges are *directed* rows. An undirected ("bidirectional") graph is
represented in symmetric form: every non-loop edge appears in both
directions with the same weight, and every self-loop appears exactly once.
Under this convention, for the undirected interpretation:

- total edge weight  ``m = (sum of non-loop w)/2 + (sum of loop w)``
- weighted degree    ``k_i = sum of non-loop w at i + 2 * (loop w at i)``

which matches the networkx/Louvain convention where a self-loop contributes
2w to its endpoint's degree and w to m.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

SRC, DST, WEIGHT = "src", "dst", "weight"


@dataclass(frozen=True)
class Graph:
    """Property graph: ``vertices`` has an ``id`` column; ``edges`` has
    ``src``, ``dst`` and ``weight`` columns (plus arbitrary extras)."""

    vertices: DataFrame
    edges: DataFrame

    def __post_init__(self) -> None:
        if "id" not in self.vertices.columns:
            raise ValueError("vertices must have an 'id' column")
        missing = {SRC, DST, WEIGHT} - set(self.edges.columns)
        if missing:
            raise ValueError(f"edges missing columns: {sorted(missing)}")

    def symmetrize(self) -> "Graph":
        """Return the symmetric (bidirectional) form of this graph.

        Non-loop edges in both directions are summed into one weight per
        direction; self-loop weights are summed into a single loop row.
        Idempotent on already-symmetric graphs only if each direction holds
        the full undirected weight — to build from an undirected edge list,
        pass each undirected edge once (either direction).
        """
        e = self.edges.select(SRC, DST, WEIGHT)
        nonloop = e.filter(F.col(SRC) != F.col(DST))
        loops = e.filter(F.col(SRC) == F.col(DST))
        # Collapse direction: undirected weight per unordered pair.
        und = (
            nonloop.select(
                F.least(SRC, DST).alias("a"),
                F.greatest(SRC, DST).alias("b"),
                WEIGHT,
            )
            .groupBy("a", "b")
            .agg(F.sum(WEIGHT).alias(WEIGHT))
        )
        fwd = und.select(F.col("a").alias(SRC), F.col("b").alias(DST), WEIGHT)
        bwd = und.select(F.col("b").alias(SRC), F.col("a").alias(DST), WEIGHT)
        loop = loops.groupBy(SRC).agg(F.sum(WEIGHT).alias(WEIGHT)).withColumn(DST, F.col(SRC))
        sym = fwd.unionByName(bwd).unionByName(loop.select(SRC, DST, WEIGHT))
        return Graph(self.vertices, sym)


def graph_from_edges(edges: DataFrame) -> Graph:
    """Build a :class:`Graph` whose vertex set is every id appearing as an
    endpoint. ``edges`` must have ``src``/``dst``; a missing ``weight``
    column defaults to 1.0."""
    if WEIGHT not in edges.columns:
        edges = edges.withColumn(WEIGHT, F.lit(1.0))
    verts = (
        edges.select(F.col(SRC).alias("id"))
        .unionByName(edges.select(F.col(DST).alias("id")))
        .distinct()
    )
    return Graph(verts, edges)
