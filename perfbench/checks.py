"""Correctness gate run on every pass, outside the timed window.

Seed-independent checks hold for any generator seed:

* Table I equals the config's clean counts plus its dirt counts;
* trips are conserved: Table II ``#trips`` equals the Table III from- and
  to-totals, the clean rentals and each community table's out-of-community
  plus within-community trips;
* every reported modularity equals the pure-Python
  :func:`repro.louvain.reference.modularity_ref` on the collected
  ``temporal_graph`` edges to 1e-6, and the community count matches the
  partition.

On the default seed the pass summary (Tables I-VI, headline scalars and a
fingerprint of every partition) must also equal the golden values recorded
in ``golden.json``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

Q_TOL = 1e-6
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def partition_fingerprint(assignment: dict) -> str:
    """sha256 over the sorted ``group_id<TAB>community`` lines."""
    text = "\n".join(f"{g}\t{c}" for g, c in sorted(assignment.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def summary(out) -> dict:
    """JSON-comparable digest of one pass's collected outputs."""
    return {
        "tables": {
            name: [[v if isinstance(v, str) else int(v) for v in row]
                   for row in pdf.itertuples(index=False)]
            for name, pdf in out.tables.items()
        },
        "headline": out.headline,
        "partitions": {
            g: partition_fingerprint(a) for g, a in sorted(out.assignments.items())
        },
    }


def load_golden(workload: str) -> dict | None:
    return json.loads(GOLDEN_PATH.read_text()).get(workload)


def check_pass(cfg, n_stations: int, out, golden: dict | None) -> list[str]:
    """Return one message per failed check (empty when the pass is correct).

    ``cfg`` is the generator config, ``n_stations`` the number of clean
    stations it placed, ``out`` the pass's collected outputs and ``golden``
    the recorded summary for this workload and seed, or None."""
    from repro.louvain.reference import modularity_ref

    errors: list[str] = []

    def expect(what: str, got, want) -> None:
        if got != want:
            errors.append(f"{what}: got {got}, want {want}")

    t1 = out.tables["table1"].set_index("measure")
    expect("table1 clean rentals", int(t1.at["#rental", "cleaned"]), cfg.n_rentals)
    expect("table1 raw rentals", int(t1.at["#rental", "original"]),
           cfg.n_rentals + cfg.n_dirty_rentals)
    expect("table1 clean locations", int(t1.at["#location", "cleaned"]), cfg.n_locations)
    expect("table1 raw locations", int(t1.at["#location", "original"]),
           cfg.n_locations + cfg.n_dirty_locations)
    expect("table1 clean stations", int(t1.at["#stations", "cleaned"]), n_stations)
    expect("table1 raw stations", int(t1.at["#stations", "original"]),
           n_stations + cfg.n_bad_stations)

    trips = int(out.tables["table2"].set_index("measure").at["#trips", "value"])
    expect("table2 #trips vs clean rentals", trips, cfg.n_rentals)
    t3_total = out.tables["table3"].set_index("kind").loc["total"]
    expect("table3 trips_from total", int(t3_total["trips_from"]), trips)
    expect("table3 trips_to total", int(t3_total["trips_to"]), trips)

    for g, assignment in out.assignments.items():
        table = out.tables[f"communities_{g}"]
        expect(f"{g} trips within+out", int(table["trips_within"].sum() + table["trips_out"].sum()),
               trips)
        expect(f"{g} #communities", out.headline[f"{g}_communities"], len(set(assignment.values())))
        expect(f"{g} table rows", len(table), len(set(assignment.values())))
        q_ref = modularity_ref(out.edges[g], assignment)
        if abs(q_ref - out.modularity[g]) > Q_TOL:
            errors.append(f"{g} modularity {out.modularity[g]!r} != reference {q_ref!r}")

    if golden is not None:
        got = json.loads(json.dumps(summary(out)))
        for key in golden:
            if got.get(key) != golden[key]:
                errors.append(f"golden {key} differs: got {got.get(key)}, want {golden[key]}")
    return errors
