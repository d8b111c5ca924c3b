"""Synthetic Moby Bikes dataset (Rental + Location tables).

The paper's data is proprietary; this generator replays its *exact* raw
cardinalities (62,324 rentals / 14,239 locations / 95 stations at SF=1,
scaling linearly in ``sf``) and plants the latent spatiotemporal hierarchy
from :mod:`repro.moby.profiles` so that every downstream stage — cleaning,
HAC candidate generation, Algorithm 1 selection and Louvain at three
temporal granularities — exercises the same behaviour the paper reports.

Dirty records are injected *by construction* in the exact quantities the
paper's cleaning rules remove (Table I deltas), so Table I reproduces
exactly at SF=1. The clean core is generated first; dirt is appended.

Output schemas (mirroring the paper's two SQL tables):

``Location``: location_id (long), lat, lon (double, nullable for the
missing-coordinate dirt), is_station (bool), station_id (long, null for
non-stations).

``Rental``: rental_id (long), bike_id (long), rental_location_id,
return_location_id (long, nullable), start_time, end_time (timestamp).

Ground truth (node ids, leaf groups, location->node map) is returned for
tests and calibration only — the pipeline itself consumes just the two
tables, like the paper.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.geo import haversine_np
from repro.moby.profiles import (
    DAY_NEUTRAL,
    HOUR_NEUTRAL,
    LEAF_GROUPS,
    LeafGroup,
)

# Dublin bounding box used by the cleaning rules (lat_min, lat_max, lon_min,
# lon_max) and a crude "Dublin Bay" sea half-plane: everything east of
# SEA_LON_MIN within SEA_LAT band is water. Synthetic land nodes are
# rejected out of these regions with a safety margin.
DUBLIN_BBOX = (53.15, 53.50, -6.60, -5.95)
SEA_LON_MIN = -6.09
SEA_LAT = (53.25, 53.45)

_M_PER_DEG_LAT = 111_194.9
_WEEK0 = np.datetime64("2020-01-06")  # first Monday in the data window
_N_WEEKS = 88  # last generated day = 2021-09-12, inside the paper window

# endpoint mass split station vs hotspot
STATION_SHARE = 0.70
# destination relation mix: self / same-leaf / same-day-group / same-zone / any
P_SELF = 0.035
P_LEAF = 0.33
P_DAYGROUP = 0.13
P_ZONE = 0.22
_RELATION_MIX = (P_SELF, P_LEAF, P_DAYGROUP, P_ZONE, 1.0 - (P_SELF + P_LEAF + P_DAYGROUP + P_ZONE))
assert _RELATION_MIX[-1] >= 0.0, "relation probabilities exceed 1"
# per-zone override of the relation mix (self, leaf, daygroup, zone, any).
# Suburb pockets (Phoenix Park, Dun Laoghaire) are geographically
# isolated and ride mostly locally — without this, the uniform mix gives
# small groups disproportionally heavy boundaries and Louvain's
# resolution limit absorbs them into their zone's commuter community.
ZONE_MIX = {"suburb": (0.04, 0.58, 0.02, 0.12, 0.24)}
assert all(abs(sum(mix) - 1.0) < 1e-9 for mix in ZONE_MIX.values())
# zipf exponents for node popularity
STATION_ALPHA = 0.40
HOTSPOT_ALPHA = 0.75
# destination-choice sharpening: dst sampled with prob ~ mass^gamma
# within the chosen relation subset. gamma > 1 concentrates trips onto
# fewer distinct (src, dst) pairs — calibrated against Table II's
# trips-per-edge ratio (61,872 trips over 16,042 directed edges).
DST_SHARPEN = 4.75
# fraction of trips that are *return journeys*: the reverse of another
# sampled trip's (src, dst), with temporal features redrawn under the
# same rules. Produces the near-perfect edge bidirectionality of the
# paper's graph (15,604 directed non-loop edges over 7,820 unordered
# pairs — ratio 2.0).
P_RETURN = 0.40
# geometry
HOTSPOT_MIN_SEP_M = 180.0
HOTSPOT_STATION_MIN_SEP_M = 300.0
STATION_MIN_SEP_M = 260.0
STATION_LOC_RADIUS_M = 45.0
HOTSPOT_LOC_RADIUS_M = 32.0
# bike ids are drawn uniformly from 1..N_BIKES
N_BIKES = 95


@dataclass(frozen=True)
class MobyConfig:
    """The generator's scale, seed and dirt counts. ``paper_config`` builds
    the calibrated preset; the calibrated shape is the module constants."""

    seed: int = 10
    n_rentals: int = 61_872  # clean rentals
    n_locations: int = 14_156  # clean, referenced locations
    n_hotspots: int = 1_080
    station_scale: float = 1.0  # multiplies per-leaf station counts (92 total at 1.0)
    # endpoint counts for the deliberately weak "dud" stations; the realized
    # minimum fixed-station degree (about half of these after destination
    # sharpening) becomes Algorithm 1's threshold at SF=1
    dud_station_endpoints: tuple[int, ...] = (56, 64, 72, 80)
    # dirty-record counts (Table I deltas at SF=1)
    dirty_rentals_null_ref: int = 120
    dirty_rentals_phantom_ref: int = 100
    dirty_rentals_outside: int = 90
    dirty_rentals_sea: int = 80
    dirty_rentals_no_coords: int = 62
    dirty_locs_outside: int = 20  # includes the 3 bad stations
    dirty_locs_sea: int = 15
    dirty_locs_no_coords: int = 18
    dirty_locs_unreferenced: int = 30
    n_bad_stations: int = 3

    @property
    def n_dirty_rentals(self) -> int:
        return (
            self.dirty_rentals_null_ref
            + self.dirty_rentals_phantom_ref
            + self.dirty_rentals_outside
            + self.dirty_rentals_sea
            + self.dirty_rentals_no_coords
        )

    @property
    def n_dirty_locations(self) -> int:
        return (
            self.dirty_locs_outside
            + self.dirty_locs_sea
            + self.dirty_locs_no_coords
            + self.dirty_locs_unreferenced
        )


def paper_config(sf: float = 1.0, *, seed: int = 10) -> MobyConfig:
    """Paper-calibrated config. SF=1 reproduces Table I exactly; smaller
    SF scales rentals/locations/hotspots/dirt linearly (stations stay 92
    so the station-level analyses keep their structure)."""

    def s(x: int, lo: int = 1) -> int:
        return max(lo, round(x * sf))

    locs_outside = s(20, lo=3)  # must cover the 3 bad stations
    locs_sea = s(15, lo=0)
    locs_no_coords = s(18, lo=0)

    def rentals_for(n: int, pool: int) -> int:
        # a dirty-rental category needs at least one matching dirty location
        return s(n, lo=0) if pool > 0 else 0

    return MobyConfig(
        seed=seed,
        n_rentals=s(61_872),
        n_locations=s(14_156),
        n_hotspots=s(1_080, lo=10),
        dirty_rentals_null_ref=s(120, lo=0),
        dirty_rentals_phantom_ref=s(100, lo=0),
        dirty_rentals_outside=rentals_for(90, locs_outside),
        dirty_rentals_sea=rentals_for(80, locs_sea),
        dirty_rentals_no_coords=rentals_for(62, locs_no_coords),
        dirty_locs_outside=locs_outside,
        dirty_locs_sea=locs_sea,
        dirty_locs_no_coords=locs_no_coords,
        dirty_locs_unreferenced=s(30, lo=0),
        dud_station_endpoints=tuple(max(4, round(x * sf)) for x in (56, 64, 72, 80)),
    )


@dataclass
class MobyData:
    """Generated dataset plus ground truth for tests/calibration."""

    locations: DataFrame  # Location table (dirty included)
    rentals: DataFrame  # Rental table (dirty included)
    locations_pdf: pd.DataFrame = field(repr=False)
    rentals_pdf: pd.DataFrame = field(repr=False)
    nodes_pdf: pd.DataFrame = field(repr=False)  # ground truth nodes
    loc_node_pdf: pd.DataFrame = field(repr=False)  # clean location -> node
    config: MobyConfig = field(repr=False, default=None)


# ----------------------------------------------------------------------
# node placement
# ----------------------------------------------------------------------

def _on_land(lat: np.ndarray, lon: np.ndarray, margin_deg: float = 0.005) -> np.ndarray:
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    in_box = (
        (lat > lat_min + margin_deg)
        & (lat < lat_max - margin_deg)
        & (lon > lon_min + margin_deg)
        & (lon < SEA_LON_MIN - margin_deg)  # stay strictly west of the bay
    )
    return in_box


def _place_points(
    rng: np.random.Generator,
    n: int,
    anchor: tuple[float, float],
    spread_m: float,
    existing: list[np.ndarray],
    min_sep_other_m: float,
    min_sep_self_m: float,
) -> np.ndarray:
    """Rejection-sample ``n`` points around ``anchor`` keeping ``min_sep``
    metres from ``existing`` points and from each other. Returns (n, 2)."""
    placed: list[np.ndarray] = []
    others = np.vstack(existing) if existing else np.zeros((0, 2))
    attempts = 0
    while len(placed) < n:
        attempts += 1
        if attempts > 400 * n + 500:
            raise RuntimeError(
                f"node placement failed near {anchor}: separation constraints too tight"
            )
        dlat = rng.normal(0.0, spread_m / _M_PER_DEG_LAT)
        dlon = rng.normal(0.0, spread_m / (_M_PER_DEG_LAT * np.cos(np.radians(anchor[0]))))
        p = np.array([anchor[0] + dlat, anchor[1] + dlon])
        if not _on_land(p[:1], p[1:2])[0]:
            continue
        if others.shape[0]:
            if haversine_np(p[0], p[1], others[:, 0], others[:, 1]).min() < min_sep_other_m:
                continue
        if placed:
            mine = np.vstack(placed)
            if haversine_np(p[0], p[1], mine[:, 0], mine[:, 1]).min() < min_sep_self_m:
                continue
        placed.append(p)
    return np.vstack(placed)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of ``total`` proportional to ``weights``."""
    w = np.asarray(weights, dtype=float)
    if w.sum() <= 0:
        raise ValueError("weights must sum > 0")
    raw = w / w.sum() * total
    base = np.floor(raw).astype(int)
    rem = total - base.sum()
    if rem > 0:
        order = np.argsort(-(raw - base))
        base[order[:rem]] += 1
    return base


def _build_nodes(cfg: MobyConfig, rng: np.random.Generator) -> pd.DataFrame:
    """Place stations and hotspots per leaf group and allocate endpoint
    mass. Returns one row per node with ground-truth leaf labels."""
    rows = []
    station_coords: list[np.ndarray] = []
    node_id = 0
    leaf_station_counts = {
        g.leaf_id: max(1, round(g.n_stations * cfg.station_scale)) for g in LEAF_GROUPS
    }
    # stations first (hotspots must keep distance from them)
    for g in LEAF_GROUPS:
        pts = _place_points(
            rng, leaf_station_counts[g.leaf_id], g.anchor, g.spread_m,
            station_coords, STATION_MIN_SEP_M, STATION_MIN_SEP_M,
        )
        station_coords.append(pts)
        for lat, lon in pts:
            rows.append(
                dict(node_id=node_id, kind="station", leaf_id=g.leaf_id,
                     day_group=g.day_group, zone=g.zone, lat=lat, lon=lon)
            )
            node_id += 1
    all_station = np.vstack(station_coords)
    hotspot_counts = _largest_remainder(
        np.array([g.n_hotspots_frac for g in LEAF_GROUPS]), cfg.n_hotspots
    )
    hotspot_coords: list[np.ndarray] = [all_station]
    for g, n_h in zip(LEAF_GROUPS, hotspot_counts):
        if n_h == 0:
            continue
        pts = _place_points(
            rng, int(n_h), g.anchor, g.spread_m * 1.6,
            hotspot_coords, HOTSPOT_STATION_MIN_SEP_M, HOTSPOT_MIN_SEP_M,
        )
        # after the first leaf, "other" includes stations + prior hotspots;
        # hotspot-hotspot separation uses the tighter self threshold.
        hotspot_coords.append(pts)
        for lat, lon in pts:
            rows.append(
                dict(node_id=node_id, kind="hotspot", leaf_id=g.leaf_id,
                     day_group=g.day_group, zone=g.zone, lat=lat, lon=lon)
            )
            node_id += 1
    nodes = pd.DataFrame(rows)

    # --- endpoint mass allocation -------------------------------------
    total_endpoints = 2 * cfg.n_rentals
    station_total = int(round(total_endpoints * STATION_SHARE))
    hotspot_total = total_endpoints - station_total

    mass = np.zeros(len(nodes), dtype=int)
    st_idx = nodes.index[nodes.kind == "station"].to_numpy()
    duds = np.array(cfg.dud_station_endpoints[: max(0, len(st_idx) - 1)], dtype=int)
    # duds go to a deterministic subset (spread across leaves by stride)
    dud_pos = st_idx[:: max(1, len(st_idx) // max(1, len(duds)))][: len(duds)]
    mass[dud_pos] = duds
    rest = np.setdiff1d(st_idx, dud_pos)
    # per-leaf station mass share, zipf within leaf
    rest_nodes = nodes.loc[rest]
    leaf_mass = {g.leaf_id: g.station_mass for g in LEAF_GROUPS}
    w = np.zeros(len(rest))
    for leaf, grp in rest_nodes.groupby("leaf_id"):
        ranks = np.arange(1, len(grp) + 1, dtype=float)
        zw = ranks ** (-STATION_ALPHA)
        zw = zw / zw.sum() * leaf_mass[leaf]
        w[np.isin(rest, grp.index.to_numpy())] = rng.permutation(zw)
    mass[rest] = _largest_remainder(w, station_total - int(duds.sum()))

    hs_idx = nodes.index[nodes.kind == "hotspot"].to_numpy()
    if len(hs_idx):
        hs_nodes = nodes.loc[hs_idx]
        leaf_hmass = {g.leaf_id: g.hotspot_mass for g in LEAF_GROUPS}
        hw = np.zeros(len(hs_idx))
        for leaf, grp in hs_nodes.groupby("leaf_id"):
            ranks = np.arange(1, len(grp) + 1, dtype=float)
            zw = ranks ** (-HOTSPOT_ALPHA)
            zw = zw / zw.sum() * leaf_hmass[leaf]
            hw[np.isin(hs_idx, grp.index.to_numpy())] = rng.permutation(zw)
        mass[hs_idx] = _largest_remainder(hw, hotspot_total)
    nodes["endpoint_mass"] = np.maximum(mass, 2)
    return nodes


# ----------------------------------------------------------------------
# trips
# ----------------------------------------------------------------------

def _sample_trips(cfg: MobyConfig, rng: np.random.Generator, nodes: pd.DataFrame):
    """Sample (src_node, dst_node, relation, day, hour) for every clean
    rental, honouring the latent hierarchy's preference structure.

    ``P_RETURN`` of the trips are return journeys: they reverse the
    endpoints of a random base trip; their temporal features are redrawn
    below under the same (symmetric) rules, so the planted day/hour
    structure is preserved while edge reciprocity matches the paper's.
    """
    n = cfg.n_rentals
    n_ret = int(round(n * P_RETURN))
    n_base = n - n_ret
    mass = nodes["endpoint_mass"].to_numpy().astype(float)
    p_node = mass / mass.sum()
    src = rng.choice(len(nodes), size=n_base, p=p_node)

    leaf = nodes["leaf_id"].to_numpy()
    dgrp = nodes["day_group"].to_numpy()
    zone = nodes["zone"].to_numpy()
    zones = pd.unique(nodes["zone"])
    zone_code = {z: i for i, z in enumerate(zones)}
    zcode = np.array([zone_code[z] for z in zone])

    # relation classes: 0=self 1=same-leaf 2=same-day-group 3=same-zone 4=any
    rel = np.empty(n_base, dtype=int)
    src_zone = zone[src]
    for z in zones:
        sel = src_zone == z
        cnt = int(sel.sum())
        if cnt:
            rel[sel] = rng.choice(5, size=cnt, p=ZONE_MIX.get(z, _RELATION_MIX))

    dst = np.empty(n_base, dtype=int)
    dst[rel == 0] = src[rel == 0]

    # Pre-compute conditional destination distributions per (leaf, relation).
    # Destination mass is sharpened (mass^gamma) to concentrate trips on
    # popular pairs, matching the paper's trips-per-edge density.
    sharp = mass ** DST_SHARPEN

    def masked_p(mask: np.ndarray) -> np.ndarray | None:
        m = sharp * mask
        s = m.sum()
        return m / s if s > 0 else None

    for lf in np.unique(leaf):
        g_mask_leaf = leaf == lf
        g_dg = dgrp[g_mask_leaf][0]
        g_zone = zcode[g_mask_leaf][0]
        cond = {
            1: masked_p(g_mask_leaf),
            2: masked_p((dgrp == g_dg) & ~g_mask_leaf),
            3: masked_p((zcode == g_zone) & (dgrp != g_dg)),
            4: masked_p(zcode != g_zone),
        }
        for r in (1, 2, 3, 4):
            sel = (leaf[src] == lf) & (rel == r)
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            p = cond[r]
            if p is None:  # fall back to same-leaf, then anywhere
                p = cond[1] if cond[1] is not None else p_node
            dst[sel] = rng.choice(len(nodes), size=cnt, p=p)

    # --- return journeys: reverse a random base trip's endpoints --------
    if n_ret:
        base_idx = rng.integers(0, n_base, n_ret)
        src = np.concatenate([src, dst[base_idx]])
        dst = np.concatenate([dst, src[base_idx]])
        rel = np.concatenate([rel, rel[base_idx]])

    # --- temporal draws (over all n trips; rules are pair-symmetric) ----
    day = np.empty(n, dtype=int)
    hour = np.empty(n, dtype=int)
    same_dg = dgrp[src] == dgrp[dst]
    same_leaf = leaf[src] == leaf[dst]
    dg_dist = {g.day_group: g.day_dist for g in LEAF_GROUPS}
    leaf_hour = {g.leaf_id: g.hour_dist for g in LEAF_GROUPS}

    for dg in range(len(dg_dist)):
        sel = same_dg & (dgrp[src] == dg)
        cnt = int(sel.sum())
        if cnt:
            day[sel] = rng.choice(7, size=cnt, p=dg_dist[dg])
    sel = ~same_dg
    if sel.sum():
        day[sel] = rng.choice(7, size=int(sel.sum()), p=DAY_NEUTRAL)

    for lf, hdist in leaf_hour.items():
        sel = same_leaf & (leaf[src] == lf)
        cnt = int(sel.sum())
        if cnt:
            hour[sel] = rng.choice(24, size=cnt, p=hdist)
    sel = ~same_leaf
    if sel.sum():
        hour[sel] = rng.choice(24, size=int(sel.sum()), p=HOUR_NEUTRAL)

    return src, dst, rel, day, hour


def _timestamps(rng: np.random.Generator, day: np.ndarray, hour: np.ndarray):
    n = len(day)
    week = rng.integers(0, _N_WEEKS, n)
    start = (
        _WEEK0.astype("datetime64[s]")
        + (week * 7 + day).astype("timedelta64[D]").astype("timedelta64[s]")
        + (hour * 3600 + rng.integers(0, 3600, n)).astype("timedelta64[s]")
    )
    dur_s = np.clip(rng.lognormal(np.log(18 * 60), 0.6, n), 120, 4 * 3600).astype(
        "timedelta64[s]"
    )
    return start, start + dur_s


# ----------------------------------------------------------------------
# locations
# ----------------------------------------------------------------------

def _build_locations(
    cfg: MobyConfig,
    rng: np.random.Generator,
    nodes: pd.DataFrame,
    endpoints_per_node: np.ndarray,
) -> pd.DataFrame:
    """Distribute ``cfg.n_locations`` distinct GPS points over nodes
    (sub-linear in endpoint mass, every node >= 1, never more locations
    than endpoint references so each can be referenced at least once)."""
    if (endpoints_per_node < 1).any():
        raise RuntimeError("every node must have at least one trip endpoint")
    cap = endpoints_per_node.astype(int)
    if cfg.n_locations < len(cap) or cfg.n_locations > int(cap.sum()):
        raise ValueError(
            f"n_locations={cfg.n_locations} must lie in [n_nodes={len(cap)}, "
            f"total_endpoints={int(cap.sum())}]"
        )
    w = np.sqrt(cap.astype(float))
    n_locs = np.clip(_largest_remainder(w, cfg.n_locations), 1, cap)
    # rebalance to the exact total: add on spare capacity / trim holders >1
    deficit = cfg.n_locations - int(n_locs.sum())
    while deficit > 0:
        spare = cap - n_locs
        i = int(np.argmax(spare))
        add = min(int(spare[i]), deficit)
        if add <= 0:
            raise RuntimeError("cannot place all locations: endpoint mass too small")
        n_locs[i] += add
        deficit -= add
    while deficit < 0:
        i = int(np.argmax(n_locs))
        cut = min(int(n_locs[i]) - 1, -deficit)
        if cut <= 0:
            raise RuntimeError("cannot trim locations below one per node")
        n_locs[i] -= cut
        deficit += cut

    # r and theta per node, in node order: each node's points draw r, then theta
    draws = [(rng.random(k), rng.random(k)) for k in n_locs]
    u_r = np.concatenate([d[0] for d in draws])
    u_theta = np.concatenate([d[1] for d in draws])
    station = nodes["kind"].to_numpy() == "station"
    node_lat = nodes["lat"].to_numpy()
    node_lon = nodes["lon"].to_numpy()
    radius = np.where(station, STATION_LOC_RADIUS_M, HOTSPOT_LOC_RADIUS_M)
    r = np.repeat(radius, n_locs) * np.sqrt(u_r)
    theta = u_theta * 2 * np.pi
    lat = np.repeat(node_lat, n_locs) + (r * np.cos(theta)) / _M_PER_DEG_LAT
    lon = np.repeat(node_lon, n_locs) + (r * np.sin(theta)) / np.repeat(
        _M_PER_DEG_LAT * np.cos(np.radians(node_lat)), n_locs
    )
    # the station's own coordinate is location 0 of its group
    station_first = (np.cumsum(n_locs) - n_locs)[station]
    lat[station_first] = node_lat[station]
    lon[station_first] = node_lon[station]
    is_station = np.zeros(len(lat), dtype=bool)
    is_station[station_first] = True
    return pd.DataFrame(
        {"node_id": np.repeat(nodes["node_id"].to_numpy(), n_locs),
         "lat": lat, "lon": lon, "is_station": is_station}
    )


def _assign_endpoint_locations(
    rng: np.random.Generator,
    node_of_endpoint: np.ndarray,
    locs: pd.DataFrame,
) -> np.ndarray:
    """Map every trip endpoint (given its node) to one of the node's
    location row-indices; each location is referenced at least once."""
    out = np.empty(len(node_of_endpoint), dtype=int)
    loc_groups = locs.groupby("node_id").indices  # node -> loc row positions
    ep_order = np.argsort(node_of_endpoint, kind="stable")
    ep_sorted = node_of_endpoint[ep_order]
    bounds = np.searchsorted(ep_sorted, np.unique(ep_sorted))
    uniq = np.unique(ep_sorted)
    bounds = np.append(bounds, len(ep_sorted))
    for u, lo, hi in zip(uniq, bounds[:-1], bounds[1:]):
        eps = ep_order[lo:hi]
        lids = loc_groups.get(int(u))
        if lids is None:
            raise RuntimeError(f"node {u} has endpoints but no locations")
        lids = np.asarray(lids)
        k, m = len(lids), len(eps)
        if m < k:
            raise RuntimeError(f"node {u}: {m} endpoints < {k} locations")
        first = rng.permutation(eps)[:k]
        out[first] = lids
        rest = np.setdiff1d(eps, first, assume_unique=False)
        if len(rest):
            # skewed reuse: a few popular points get most references
            ranks = np.arange(1, k + 1, dtype=float)
            p = ranks**-0.8
            p /= p.sum()
            out[rest] = lids[rng.choice(k, size=len(rest), p=p)]
    return out


# ----------------------------------------------------------------------
# top-level
# ----------------------------------------------------------------------

def generate(spark: SparkSession, cfg: MobyConfig | None = None) -> MobyData:
    """Generate the full dataset (clean core + dirty records) and return
    Spark DataFrames plus ground truth."""
    cfg = cfg or paper_config()
    rng = np.random.default_rng(cfg.seed)

    nodes = _build_nodes(cfg, rng)
    src, dst, rel, day, hour = _sample_trips(cfg, rng, nodes)

    # Every node must appear in at least one trip, or its location(s) would
    # be dropped by cleaning rule 6 and Table I would drift. Redirect one
    # trip from the busiest node to each unreferenced node.
    ep_counts = np.bincount(np.concatenate([src, dst]), minlength=len(nodes))
    missing = np.where(ep_counts == 0)[0]
    if len(missing):
        rich = int(np.argmax(ep_counts))
        donors = np.where((src == rich) & (dst == rich))[0]
        if len(donors) < len(missing):
            donors = np.where(src == rich)[0]
        if len(donors) < len(missing):
            raise RuntimeError("too many unreferenced nodes to patch")
        src[donors[: len(missing)]] = missing

    start, end = _timestamps(rng, day, hour)

    # actual endpoint counts drive location allocation
    ep_counts = np.bincount(np.concatenate([src, dst]), minlength=len(nodes))
    locs = _build_locations(cfg, rng, nodes, ep_counts)

    endpoints = np.concatenate([src, dst])
    loc_rows = _assign_endpoint_locations(rng, endpoints, locs)
    src_locrow, dst_locrow = loc_rows[: len(src)], loc_rows[len(src):]

    # --- assign public ids ----------------------------------------------
    n_clean_loc = len(locs)
    n_total_loc = n_clean_loc + cfg.n_dirty_locations
    loc_ids = rng.permutation(np.arange(1, n_total_loc + 1))
    clean_loc_ids = loc_ids[:n_clean_loc]
    dirty_loc_ids = loc_ids[n_clean_loc:]

    locations_pdf = pd.DataFrame(
        {
            "location_id": clean_loc_ids,
            "lat": locs["lat"].to_numpy(),
            "lon": locs["lon"].to_numpy(),
            "is_station": locs["is_station"].to_numpy(),
        }
    )
    # station_id: stable 1..n for clean stations, then the bad ones
    st_mask = locations_pdf["is_station"].to_numpy()
    station_id = np.full(len(locations_pdf), np.nan)
    station_id[st_mask] = np.arange(1, st_mask.sum() + 1)
    locations_pdf["station_id"] = station_id

    rentals_pdf = pd.DataFrame(
        {
            "rental_id": np.arange(1, cfg.n_rentals + 1),
            "bike_id": rng.integers(1, N_BIKES + 1, cfg.n_rentals),
            "rental_location_id": clean_loc_ids[src_locrow].astype(float),
            "return_location_id": clean_loc_ids[dst_locrow].astype(float),
            "start_time": pd.Series(start),
            "end_time": pd.Series(end),
        }
    )

    locations_pdf, rentals_pdf = _inject_dirt(
        cfg, rng, locations_pdf, rentals_pdf, dirty_loc_ids, n_total_loc
    )

    # shuffle row order so nothing downstream depends on generation order
    locations_pdf = locations_pdf.sample(frac=1.0, random_state=cfg.seed).reset_index(
        drop=True
    )
    rentals_pdf = rentals_pdf.sample(frac=1.0, random_state=cfg.seed + 1).reset_index(
        drop=True
    )

    loc_node_pdf = pd.DataFrame(
        {"location_id": clean_loc_ids, "node_id": locs["node_id"].to_numpy()}
    )
    locations_df = spark.createDataFrame(locations_pdf)
    rentals_df = spark.createDataFrame(rentals_pdf)
    return MobyData(
        locations=locations_df,
        rentals=rentals_df,
        locations_pdf=locations_pdf,
        rentals_pdf=rentals_pdf,
        nodes_pdf=nodes,
        loc_node_pdf=loc_node_pdf,
        config=cfg,
    )


def _inject_dirt(
    cfg: MobyConfig,
    rng: np.random.Generator,
    locations_pdf: pd.DataFrame,
    rentals_pdf: pd.DataFrame,
    dirty_loc_ids: np.ndarray,
    n_total_loc: int,
):
    """Append the dirty records each cleaning rule must remove.

    Dirty rentals reference a dirty location on one endpoint and a *popular*
    clean location on the other, so removing them never orphans a clean
    location (Table I stays exact)."""
    lat_min, lat_max, lon_min, lon_max = DUBLIN_BBOX
    dirty_rows = []
    ids = iter(dirty_loc_ids)

    outside_ids, sea_ids, nocoord_ids, unref_ids = [], [], [], []
    for i in range(cfg.dirty_locs_outside):
        lid = int(next(ids))
        outside_ids.append(lid)
        is_station = i < cfg.n_bad_stations
        dirty_rows.append(
            dict(location_id=lid, lat=float(rng.uniform(51.8, 52.9)),
                 lon=float(rng.uniform(-8.6, -7.0)), is_station=is_station,
                 station_id=(1000 + i) if is_station else np.nan)
        )
    for _ in range(cfg.dirty_locs_sea):
        lid = int(next(ids))
        sea_ids.append(lid)
        dirty_rows.append(
            dict(location_id=lid, lat=float(rng.uniform(*SEA_LAT)),
                 lon=float(rng.uniform(SEA_LON_MIN + 0.005, -5.98)),
                 is_station=False, station_id=np.nan)
        )
    for _ in range(cfg.dirty_locs_no_coords):
        lid = int(next(ids))
        nocoord_ids.append(lid)
        dirty_rows.append(
            dict(location_id=lid, lat=np.nan, lon=np.nan, is_station=False,
                 station_id=np.nan)
        )
    for _ in range(cfg.dirty_locs_unreferenced):
        lid = int(next(ids))
        unref_ids.append(lid)
        # perfectly valid Dublin location that simply never appears in Rental
        dirty_rows.append(
            dict(location_id=lid, lat=float(rng.uniform(53.30, 53.37)),
                 lon=float(rng.uniform(-6.35, -6.15)), is_station=False,
                 station_id=np.nan)
        )
    if dirty_rows:
        locations_pdf = pd.concat(
            [locations_pdf, pd.DataFrame(dirty_rows)], ignore_index=True
        )

    # popular clean anchors for dirty rentals' second endpoint
    popular = (
        rentals_pdf["rental_location_id"].value_counts().index.to_numpy()[:200]
    )

    def popular_ref(k: int) -> np.ndarray:
        return rng.choice(popular, size=k)

    dirty_rentals = []
    rid = len(rentals_pdf) + 1

    def add(k: int, rental_ref, return_ref) -> None:
        nonlocal rid
        for j in range(k):
            d = int(rng.integers(0, 7))
            h = int(rng.integers(6, 22))
            wk = int(rng.integers(0, _N_WEEKS))
            st = (
                _WEEK0.astype("datetime64[s]")
                + np.timedelta64(wk * 7 + d, "D").astype("timedelta64[s]")
                + np.timedelta64(h * 3600, "s")
            )
            dirty_rentals.append(
                dict(rental_id=rid, bike_id=int(rng.integers(1, N_BIKES + 1)),
                     rental_location_id=rental_ref(j), return_location_id=return_ref(j),
                     start_time=pd.Timestamp(st), end_time=pd.Timestamp(st) + pd.Timedelta(minutes=15))
            )
            rid += 1

    # 1. missing refs (alternate sides)
    pop = popular_ref(cfg.dirty_rentals_null_ref)
    add(
        cfg.dirty_rentals_null_ref,
        lambda j, p=pop: float(p[j]) if j % 2 == 0 else np.nan,
        lambda j, p=pop: np.nan if j % 2 == 0 else float(p[j]),
    )
    # 2. phantom refs (ids beyond the id space)
    pop = popular_ref(cfg.dirty_rentals_phantom_ref)
    add(
        cfg.dirty_rentals_phantom_ref,
        lambda j, p=pop: float(n_total_loc + 1000 + j) if j % 2 == 0 else float(p[j]),
        lambda j, p=pop: float(p[j]) if j % 2 == 0 else float(n_total_loc + 5000 + j),
    )
    # 3-5. refs to bad-coordinate locations
    for k, bad_ids in (
        (cfg.dirty_rentals_outside, outside_ids),
        (cfg.dirty_rentals_sea, sea_ids),
        (cfg.dirty_rentals_no_coords, nocoord_ids),
    ):
        if k and not bad_ids:
            raise ValueError("dirty rentals configured without matching dirty locations")
        if not k:
            continue
        bad = rng.choice(np.array(bad_ids), size=k)
        pop = popular_ref(k)
        add(
            k,
            lambda j, b=bad, p=pop: float(b[j]) if j % 2 == 0 else float(p[j]),
            lambda j, b=bad, p=pop: float(p[j]) if j % 2 == 0 else float(b[j]),
        )
    if dirty_rentals:
        rentals_pdf = pd.concat(
            [rentals_pdf, pd.DataFrame(dirty_rentals)], ignore_index=True
        )
    return locations_pdf, rentals_pdf
