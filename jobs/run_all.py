"""Run the reproduction once and print every table (I-VI) plus the
headline scalars — the script that generates the numbers recorded in
EXPERIMENTS.md.

    spark-submit jobs/run_all.py [--sf 1.0] [--seed 7] [--table N]

``--table N`` prints only paper table N (1-6) and the headline, and runs
Louvain only on the granularity that table needs.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))
from _common import get_spark

# table number -> granularities run_pipeline must detect communities on
GRANULARITIES = {1: (), 2: (), 3: (), 4: ("basic",), 5: ("day",), 6: ("hour",)}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Reproduce the paper tables")
    p.add_argument("--sf", type=float, default=1.0, help="scale factor (1.0 = paper size)")
    p.add_argument("--seed", type=int, default=10, help="generator seed (10 = calibrated default)")
    p.add_argument("--table", type=int, choices=sorted(GRANULARITIES),
                   help="print only this paper table (default: all of them)")
    return p.parse_args()


def main() -> None:
    from repro import tables
    from repro.analysis.temporal import day_profile, hour_profile
    from repro.moby.generator import paper_config
    from repro.pipeline import run_pipeline

    args = parse_args()
    spark = get_spark("repro-all")
    spark.sparkContext.setLogLevel("ERROR")
    if args.table is None:
        numbers, granularities = sorted(GRANULARITIES), ("basic", "day", "hour")
    else:
        numbers, granularities = [args.table], GRANULARITIES[args.table]
    t0 = time.time()
    result = run_pipeline(
        spark, paper_config(sf=args.sf, seed=args.seed), granularities=granularities
    )
    print(f"pipeline finished in {time.time() - t0:.0f}s (sf={args.sf}, seed={args.seed})")
    for n in numbers:
        print(f"\n=== table{n} ===")
        print(getattr(tables, f"table{n}")(result).to_string(index=False))
    print("\nheadline:", tables.headline(result))
    if args.table is None:
        # Figure 5 / Figure 7 data (not tables; printed for completeness)
        print("\n=== day profile (fig 5 data, G_Day) ===")
        print(
            day_profile(result.communities["day"].assignment, result.selected_trips)
            .toPandas().pivot(index="community", columns="day_of_week", values="share")
            .round(3).to_string()
        )
        print("\n=== hour profile (fig 7 data, G_Hour) ===")
        print(
            hour_profile(result.communities["hour"].assignment, result.selected_trips)
            .toPandas().pivot(index="community", columns="hour", values="share")
            .fillna(0.0).round(3).to_string()
        )
    spark.stop()

if __name__ == "__main__":
    main()
