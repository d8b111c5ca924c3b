"""One function per paper table, each returning a small pandas DataFrame
shaped like the table in the paper (plus the headline scalars around it).

These functions consume a :class:`repro.pipeline.PipelineResult`, so a
single pipeline run yields every table; ``jobs/`` wraps them for
spark-submit and ``perfbench/`` times them.
"""
from __future__ import annotations

import pandas as pd

from repro.pipeline import PipelineResult

#: The paper's reported values, used by EXPERIMENTS.md and asserted
#: (shape-wise) in tests.
PAPER = {
    "table1": {
        "raw": {"stations": 95, "rentals": 62_324, "locations": 14_239},
        "clean": {"stations": 92, "rentals": 61_872, "locations": 14_156},
    },
    "table2": {
        "nodes": 1_172,
        "undirected_edges": 8_240,
        "undirected_edges_no_loops": 7_820,
        "directed_edges": 16_042,
        "directed_edges_no_loops": 15_604,
        "trips": 61_872,
    },
    "table3": {
        "stations": {"old": 92, "new": 146, "total": 238},
        "trips_from": {"old": 54_670, "new": 7_202},
        "trips_to": {"old": 54_727, "new": 7_145},
        "edges_from": {"old": 6_437, "new": 2_072},
        "edges_to": {"old": 6_310, "new": 2_199},
        "edges_total": 8_509,
    },
    "table4": {"communities": 3, "modularity": 0.25, "intra_share": 0.74},
    "table5": {"communities": 7, "modularity": 0.32},
    "table6": {"communities": 10, "modularity": 0.54},
}


def table1(result: PipelineResult) -> pd.DataFrame:
    """Table I — dataset overview (raw vs cleaned cardinalities)."""
    c = result.cleaned
    return pd.DataFrame(
        {
            "measure": ["#stations", "#rental", "#location"],
            "original": [c.raw_stations, c.raw_rentals, c.raw_locations],
            "cleaned": [c.clean_stations, c.clean_rentals, c.clean_locations],
        }
    )


def table2(result: PipelineResult) -> pd.DataFrame:
    """Table II — the candidate graph generated by HAC."""
    s = result.candidate_stats
    return pd.DataFrame(
        {
            "measure": [
                "#nodes",
                "#undirected edges",
                "#undirected edges (no loops)",
                "#directed edges",
                "#directed edges (no loops)",
                "#trips",
            ],
            "value": [
                s.n_nodes,
                s.undirected_edges,
                s.undirected_edges_no_loops,
                s.directed_edges,
                s.directed_edges_no_loops,
                s.n_trips,
            ],
        }
    )


def table3(result: PipelineResult) -> pd.DataFrame:
    """Table III — the selected graph: trips and directed edges split by
    pre-existing vs newly selected stations (From = by source station
    kind, To = by destination kind).

    The split is derived on the driver from the trips per directed
    station pair that ``run_pipeline`` collected (at most a few thousand
    rows) and from Algorithm 1's station kinds; no Spark job runs."""
    pairs = result.selected_pairs
    kinds = result.selection.station_kinds.set_index("group_id")["is_new"]
    src_new = pairs["src_group"].map(kinds)
    dst_new = pairs["dst_group"].map(kinds)
    rows = [
        {
            "kind": kind,
            "stations": int((kinds == is_new).sum()),
            "trips_from": int(pairs["count"][src_new == is_new].sum()),
            "trips_to": int(pairs["count"][dst_new == is_new].sum()),
            "edges_from": int((src_new == is_new).sum()),
            "edges_to": int((dst_new == is_new).sum()),
        }
        for kind, is_new in (("pre-existing", False), ("selected", True))
    ]
    total = {"kind": "total", **{k: sum(r[k] for r in rows) for k in rows[0] if k != "kind"}}
    return pd.DataFrame(rows + [total])


def _community_pdf(result: PipelineResult, granularity: str) -> pd.DataFrame:
    table = result.communities[granularity].table
    return table.assign(community=table["community"] + 1)  # paper ids are 1-based


def table4(result: PipelineResult) -> pd.DataFrame:
    """Table IV — communities in G_Basic (stations old/new, trips
    within/out/in per community)."""
    return _community_pdf(result, "basic")


def table5(result: PipelineResult) -> pd.DataFrame:
    """Table V — communities in G_Day."""
    return _community_pdf(result, "day")


def table6(result: PipelineResult) -> pd.DataFrame:
    """Table VI — communities in G_Hour."""
    return _community_pdf(result, "hour")


def headline(result: PipelineResult) -> dict:
    """The scalar headlines quoted in the paper's text: community counts,
    modularity scores, intra-community share, selected-station count."""
    out = {
        "threshold": result.selection.threshold,
        "n_selected": result.selection.n_selected,
    }
    for gran, run in result.communities.items():
        out[f"{gran}_communities"] = run.n_communities
        out[f"{gran}_modularity"] = round(run.modularity, 4)
        out[f"{gran}_intra_share"] = round(run.intra_share, 4)
    return out
