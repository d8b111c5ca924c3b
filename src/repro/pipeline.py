"""End-to-end reproduction pipeline.

``run_pipeline`` chains every stage of the paper: generate (or accept)
the Moby tables -> clean (Table I) -> HAC candidates (Table II) ->
Algorithm 1 selection (Table III) -> Louvain on G_Basic/G_Day/G_Hour
(Tables IV/V/VI). Each stage's outputs are exposed on the result object
so tests and ``perfbench/`` can exercise them independently.

Cleaning, HAC and Algorithm 1 hand their tables to each other as
pandas, on the driver. The candidate graph is cleaning's collected
endpoint-pair table relabelled by HAC's location -> group map
(:func:`repro.graph.builder.relabel_pairs`), so no Spark job runs between
HAC and the selected graph.

The selected side stays in Catalyst: the community stage's station
graphs aggregate the selected trips by day and hour in Spark, so the
rentals are resolved to groups again, by a broadcast join with
Algorithm 1's final ``(location_id, group_id)`` map (built here from
pandas through Arrow with an explicit schema). The selected trips are a
local checkpoint filled by their first reader, the collect of their pair
counts here, not by a job of their own; the station graphs then read the
checkpoint. Table III and the community tables (IV-VI) are computed on
the driver from those pair counts. Relabelling the endpoint pairs would
give the same pair counts, but would leave the checkpoint to be filled
inside the community stage; the selected side moves to the driver with
the station graphs, as one aggregate (ROADMAP item 4).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.analysis.communities import community_table, intra_community_share
from repro.graph.builder import (
    GraphStats,
    graph_stats,
    pair_counts,
    relabel_pairs,
    temporal_graph,
    trips_with_groups,
)
from repro.hac.cluster import CandidateResult, build_candidates
from repro.louvain.louvain import LouvainResult, louvain
from repro.moby.cleaning import CleanResult, clean
from repro.moby.generator import MobyConfig, MobyData, generate, paper_config
from repro.stations.selection import SelectionResult, select_stations


@dataclass(frozen=True)
class CommunityRun:
    """Louvain output for one temporal granularity, station-id keyed."""

    granularity: str
    assignment: DataFrame  # (group_id, community)
    modularity: float
    n_communities: int
    intra_share: float
    table: pd.DataFrame  # Tables IV/V/VI layout


@dataclass
class PipelineResult:
    data: MobyData
    cleaned: CleanResult
    candidates: CandidateResult
    candidate_pairs: pd.DataFrame  # (src_group, dst_group, count)
    candidate_stats: GraphStats
    selection: SelectionResult
    selected_trips: DataFrame
    selected_pairs: pd.DataFrame  # (src_group, dst_group, count)
    communities: dict = field(default_factory=dict)  # granularity -> CommunityRun


def louvain_groups(edges: DataFrame) -> tuple[DataFrame, LouvainResult]:
    """Run Louvain on the symmetric ``(src, dst, weight)`` edges of a
    :func:`temporal_graph`, whose vertex ids are strings (group ids) and
    are all edge endpoints: collect the edges, index the ids in sorted
    order and detect on the driver. Returns the ``(group_id, community)``
    frame, built from pandas through Arrow, and the result over the
    indices."""
    e = edges.select("src", "dst", "weight").toPandas()
    ids, index = np.unique(np.concatenate([e["src"], e["dst"]]), return_inverse=True)
    src, dst = np.split(index, 2)
    res = louvain(src, dst, e["weight"].to_numpy(), len(ids))
    assignment = edges.sparkSession.createDataFrame(
        pd.DataFrame({"group_id": ids, "community": res.community}),
        schema="group_id string, community long",
    )
    return assignment, res


def run_pipeline(
    spark: SparkSession,
    cfg: MobyConfig | None = None,
    *,
    granularities: tuple[str, ...] = ("basic", "day", "hour"),
    data: MobyData | None = None,
) -> PipelineResult:
    """Execute the full paper pipeline. Pass ``data`` to reuse an already
    generated dataset (``perfbench/``), else ``cfg`` controls generation."""
    data = data or generate(spark, cfg or paper_config())
    cleaned = clean(data.locations, data.rentals)

    candidates = build_candidates(cleaned.locations, spark)
    # Table II and Algorithm 1 read the candidate graph as a pair table,
    # relabelled on the driver, so its trips are not materialised.
    candidate_pairs = relabel_pairs(cleaned.endpoint_pairs, candidates.assignment)
    candidate_stats = graph_stats(candidate_pairs)

    selection = select_stations(candidates.groups, candidate_pairs, candidates.assignment)
    final_map = spark.createDataFrame(
        selection.final_assignment[["location_id", "station_group"]],
        schema="location_id long, group_id string",
    )
    selected_trips = trips_with_groups(cleaned.rentals, F.broadcast(final_map)).localCheckpoint(
        eager=False
    )

    result = PipelineResult(
        data=data,
        cleaned=cleaned,
        candidates=candidates,
        candidate_pairs=candidate_pairs,
        candidate_stats=candidate_stats,
        selection=selection,
        selected_trips=selected_trips,
        selected_pairs=pair_counts(selected_trips),
    )
    for gran in granularities:
        result.communities[gran] = run_communities(result, gran)
    return result


def run_communities(result: PipelineResult, granularity: str) -> CommunityRun:
    """Louvain + community table for one temporal granularity of the
    selected graph. Only the station graph's edge collect runs on Spark:
    the labels are read back from the local assignment frame without a
    job, and the community table is computed on the driver."""
    g = temporal_graph(result.selected_trips, granularity)
    assignment, res = louvain_groups(g.edges)
    labels = pd.DataFrame(assignment.collect(), columns=assignment.columns)
    table = community_table(labels, result.selection.station_kinds, result.selected_pairs)
    return CommunityRun(
        granularity=granularity,
        assignment=assignment,
        modularity=res.modularity,
        n_communities=len(np.unique(res.community)),
        intra_share=intra_community_share(table),
        table=table,
    )
