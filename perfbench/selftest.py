"""Fast self-test of the benchmark harness at a tiny scale factor.

    python3 perfbench/selftest.py

From the repository root. Runs both workloads, shrunk to SF=0.02 with a
quarter of the stations and only the ``hour`` granularity, untraced and
traced, and checks that

* every metric BENCHMARK.json names is emitted with its unit, and every
  metric of a layer the workload ran is measured rather than filled in;
* traced and untraced passes produce identical tables and partitions;
* ``dense_x4`` opens no ``louvain.*`` span;
* every patched name is restored after the traced pass.

Takes a few minutes, most of it in four Spark session starts.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import checks
import run
from workloads import WORKLOADS

TINY = {"sf": 0.02, "station_scale": 0.25}
COMMUNITY_LAYERS = ("louvain.", "analysis.")  # run only with a granularity


def tiny(workload):
    grans = ("hour",) if workload.granularities else ()
    return dataclasses.replace(workload, granularities=grans, **TINY)


def run_once(workload, trace: int):
    args = run.parse_args(["--workload", workload.name, "--seconds", "0", "--trace", str(trace)])
    r = run.Run(args, workload)
    r.golden = None  # golden values are recorded at full size
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = r.main()
    return code, json.loads(buf.getvalue().strip().splitlines()[-1]), r


def originals():
    import repro.hac.cluster as hac
    import repro.louvain.louvain as louvain
    import repro.pipeline as pipeline

    return {(m.__name__, k): v for m in (hac, louvain, pipeline) for k, v in vars(m).items()
            if callable(v)}


def main() -> int:
    if not run.sources_present():
        return 2
    failures = []
    with run.scratch_dir() as tmp:
        run.configure_environment(tmp)
        before = originals()
        for name in ("paper_small_ghour", "dense_x4"):
            w = tiny(WORKLOADS[name])
            summaries = []
            skipped = {g for g in ("basic", "day", "hour") if g not in w.granularities}
            for trace in (0, 1):
                code, result, r = run_once(w, trace)
                summaries.append(checks.summary(r.outputs[0]) if r.outputs else None)
                declared = run.declared_metrics(bool(trace))
                if code != 0 or not result["correct"]:
                    failures.append(f"{name} trace={trace}: exit {code}, correct={result['correct']}")
                for metric, unit in declared.items():
                    got = result["metrics"].get(metric)
                    if got is None or got["unit"] != unit:
                        failures.append(f"{name} trace={trace}: {metric} missing or not in {unit}")
                    ran = not any(f".{g}" in metric for g in skipped) and (
                        w.granularities or not metric.startswith(COMMUNITY_LAYERS))
                    if ran and metric not in r.measured:
                        failures.append(f"{name} trace={trace}: {metric} not measured")
                if trace and not w.granularities:
                    spans = sorted(s for s in r.span_names if s.startswith("louvain."))
                    if spans:
                        failures.append(f"{name}: louvain spans {spans}")
                if originals() != before:
                    failures.append(f"{name} trace={trace}: patched names not restored")
            if summaries[0] is None or summaries[0] != summaries[1]:
                failures.append(f"{name}: traced and untraced passes differ")
    for f in failures:
        print(f"selftest: FAIL {f}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
