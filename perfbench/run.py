"""Benchmark of the reproduction pipeline, one workload per run.

    python3 perfbench/run.py --workload paper_small_ghour --seed 10 --seconds 20 --trace 0

Run it from the repository root: it imports ``repro`` from ``src/`` and
keeps every temporary file under ``.perfbench_tmp/``. Each run starts one
local Spark session, generates the workload's raw tables and caches them
(set-up), then times passes (see :func:`run_pass`) until ``--seconds`` of
passes have run. Every pass goes through the correctness gate
(``checks.py``) outside the timed window.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one traced
pass (``spans.py``) and reports the per-layer metrics, its wall time
(``trace.wall_s``, to compare with ``wall_s`` of untraced runs: both are the
first pass of a fresh JVM) and the time the tracer itself spent
(``trace.overhead_s``). A traced and an untraced pass in one process would
not compare: the second pass runs on a JIT-warm JVM and is seconds faster.

The last line of standard output is one JSON object; the lines before it
repeat each metric with its unit and record the environment. The exit code
is 0 only when every pass was correct.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, proc_hwm_mb
from workloads import CALIBRATED_SEED, WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
# the session settings of jobs/_common.get_spark
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
SETUP_REPEATS = 3
# collected output name -> repro.tables function
TABLES = {"communities_basic": "table4", "communities_day": "table5", "communities_hour": "table6"}


@dataclass
class PassOutput:
    """What one pass produced, as plain Python values."""

    tables: dict  # name -> pandas DataFrame
    headline: dict
    modularity: dict = field(default_factory=dict)  # granularity -> Q
    assignments: dict = field(default_factory=dict)  # granularity -> {group_id: community}
    edges: dict = field(default_factory=dict)  # granularity -> undirected (u, v, w)
    sym_edges: dict = field(default_factory=dict)  # granularity -> symmetric edge rows


# ----------------------------------------------------------------------
# environment and session
# ----------------------------------------------------------------------

def configure_environment(tmp: Path) -> None:
    """Everything Spark reads at JVM launch; must run before pyspark is
    imported. Spark's Python workers import ``repro`` through PYTHONPATH."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    # no JVM may write hsperfdata to the system temp directory
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.driver.extraJavaOptions": f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}",
        "spark.local.dir": str(tmp),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        # a pass runs more jobs than Spark's default retention of 1,000
        "spark.ui.retainedJobs": "100000",
        "spark.ui.retainedStages": "100000",
    }
    args = ["--master", MASTER, "--driver-memory", DRIVER_MEMORY]
    for key, value in conf.items():
        args += ["--conf", f"{key}={value}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    sys.path.insert(0, str(SRC))


def start_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_process():
    """The Popen of the Spark driver JVM (spark-submit execs into java)."""
    from pyspark import SparkContext

    proc = SparkContext._gateway.proc
    with open(f"/proc/{proc.pid}/comm") as f:
        if f.read().strip() != "java":
            raise RuntimeError(f"pid {proc.pid} is not the Spark JVM")
    return proc


def child_pids(pid: int) -> list[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                out.append(int(entry.name))
    return out


def shutdown(spark, jvm) -> None:
    """Stop Spark, end the JVM and wait for it and its Python workers."""
    from pyspark import SparkContext

    workers = child_pids(jvm.pid)
    gateway = SparkContext._gateway
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    jvm.stdin.close()  # the gateway JVM exits on EOF
    try:
        jvm.wait(timeout=60)
    except subprocess.TimeoutExpired:
        jvm.kill()
        jvm.wait()
    deadline = time.monotonic() + 30
    while any(Path(f"/proc/{p}").exists() for p in workers):
        if time.monotonic() > deadline:
            for p in workers:
                try:
                    os.kill(p, 9)
                except ProcessLookupError:
                    pass
            break
        time.sleep(0.1)


def environment(spark, workload, seed: int) -> dict:
    git_head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if git_head.is_file():
        head = git_head.read_text().strip()
        ref = ROOT / ".git" / head[5:] if head.startswith("ref: ") else None
        commit = ref.read_text().strip() if ref and ref.is_file() else head
    sc = spark.sparkContext
    return {
        **dataclasses.asdict(workload),
        "seed": seed,
        "master": sc.master,
        "nproc": len(os.sched_getaffinity(0)),
        "driver_memory": DRIVER_MEMORY,
        **SESSION_CONF,
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "commit": commit,
    }


# ----------------------------------------------------------------------
# set-up and passes
# ----------------------------------------------------------------------

def set_up(spark, workload, seed: int):
    """Generate the raw tables and cache them. For a pinned dataset the
    seed permutes the row order of both tables."""
    from repro.moby.generator import generate

    cfg = workload.config(seed)
    t0 = time.perf_counter()
    data = generate(spark, cfg)
    generate_s = time.perf_counter() - t0
    if workload.pinned_dataset:
        data.locations_pdf = data.locations_pdf.sample(frac=1.0, random_state=seed)
        data.rentals_pdf = data.rentals_pdf.sample(frac=1.0, random_state=seed + 1)
        data.locations = spark.createDataFrame(data.locations_pdf, data.locations.schema)
        data.rentals = spark.createDataFrame(data.rentals_pdf, data.rentals.schema)
    data.locations = data.locations.cache()
    data.rentals = data.rentals.cache()
    data.locations.count()
    data.rentals.count()
    return data, generate_s, time.perf_counter() - t0


def collect_tables(result, names) -> dict:
    from repro import tables

    return {name: getattr(tables, TABLES.get(name, name))(result) for name in names}


def run_pass(spark, data, workload, tracer=None):
    """One pass; returns (timed seconds, PipelineResult, PassOutput).

    The timed window runs from the cached raw tables to every table the
    workload produces, collected on the driver. For a workload that times
    only the community stage, ``run_pipeline`` up to the selected graph and
    Tables I-III run before the window opens."""
    from repro import pipeline

    base = ("table1", "table2", "table3")
    timed = tuple(f"communities_{g}" for g in workload.granularities) + ("headline",)
    t0 = time.perf_counter()
    if workload.time_communities_only:
        result = pipeline.run_pipeline(spark, data=data, granularities=())
        out = collect_tables(result, base)
        t0 = time.perf_counter()
        for g in workload.granularities:
            result.communities[g] = pipeline.run_communities(result, g)
    else:
        result = pipeline.run_pipeline(spark, data=data, granularities=workload.granularities)
        out, timed = {}, base + timed
    if tracer is None:
        out.update(collect_tables(result, timed))
    else:
        out.update(tracer.call("tables.collect", collect_tables, result, timed))
    wall = time.perf_counter() - t0
    return wall, result, PassOutput(out, out.pop("headline"))


def complete_output(result, out: PassOutput) -> None:
    """Collect the partitions and station graphs the gate checks (untimed)."""
    from repro.graph.builder import temporal_graph

    for g, run in result.communities.items():
        out.modularity[g] = run.modularity
        out.assignments[g] = {r["group_id"]: int(r["community"]) for r in run.assignment.collect()}
        rows = temporal_graph(result.selected_trips, g).edges.select("src", "dst", "weight").collect()
        out.sym_edges[g] = len(rows)
        out.edges[g] = [(r["src"], r["dst"], float(r["weight"])) for r in rows if r["src"] <= r["dst"]]


def traced_pass(spark, data, workload, jvm_pid: int):
    """One pass with a span around every layer call the pipeline makes."""
    import repro.hac.cluster as hac
    import repro.louvain.louvain as louvain
    import repro.pipeline as pipeline

    tracer = Tracer(spark.sparkContext, jvm_pid)
    for attr, name in (
        ("clean", "cleaning.clean"),
        ("build_candidates", "hac.build_candidates"),
        ("graph_stats", "builder.graph_stats"),
        ("select_stations", "selection.select_stations"),
        ("run_pipeline", "pipeline.run_pipeline"),
    ):
        tracer.wrap(pipeline, attr, name)
    for attr, name in (
        ("temporal_graph", "builder.temporal_graph"),
        ("louvain_groups", "louvain.louvain_groups"),
        ("louvain", "louvain.louvain"),
        ("community_table", "analysis.community_table"),
        ("intra_community_share", "analysis.intra_community_share"),
    ):
        tracer.wrap(pipeline, attr, name, per_granularity=True)
    tracer.wrap(louvain, "modularity", "louvain.modularity", per_granularity=True)
    tracer.wrap(pipeline, "run_communities", "pipeline.run_communities", sets_granularity=True)
    tracer.tap(hac, "connected_components", "hac.components")
    try:
        wall, result, out = run_pass(spark, data, workload, tracer)
    finally:
        tracer.restore()
    return wall, result, out, tracer


def layer_counts(result, out: PassOutput, tracer) -> dict:
    """Work counts of single layers, from the pass's outputs."""
    sizes = [r["count"] for r in tracer.taps["hac.components"].groupBy("component").count().collect()]
    counts = {
        "cleaning.rentals_out": result.cleaned.clean_rentals,
        "cleaning.locations_out": result.cleaned.clean_locations,
        "hac.free_points": sum(sizes),
        "hac.components": len(sizes),
        "hac.max_component_points": max(sizes, default=0),
        "hac.linkage_ops": sum(n**3 for n in sizes),
        "selection.new_stations": result.selection.n_selected,
    }
    for g, assignment in out.assignments.items():
        counts[f"louvain.{g}.vertices"] = len(assignment)
        counts[f"louvain.{g}.sym_edges"] = out.sym_edges[g]
        counts[f"louvain.{g}.communities"] = len(set(assignment.values()))
    return {k: (v, "count") for k, v in counts.items()}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=CALIBRATED_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Run:
    """One benchmark run: session, set-up, passes, gate, report."""

    def __init__(self, args, workload):
        import checks

        self.args = args
        self.workload = workload
        golden_applies = workload.pinned_dataset or args.seed == CALIBRATED_SEED
        self.golden = checks.load_golden(workload.name) if golden_applies else None
        self.attempted = 0
        self.failed = 0
        self.measured: dict[str, tuple[float, str]] = {}
        self.span_names: set[str] = set()
        self.outputs: list[PassOutput] = []

    def gate(self, result, out: PassOutput) -> list[str]:
        import checks

        complete_output(result, out)
        return checks.check_pass(self.cfg, self.n_stations, out, self.golden)

    def attempt(self, pass_fn, *args):
        """Run one pass and its gate. A pass that raises or fails a check
        counts as failed and returns None."""
        self.attempted += 1
        try:
            done = pass_fn(*args)
            errors = self.gate(done[1], done[2])
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        for e in errors:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
        self.failed += bool(errors)
        return done

    def execute(self, spark, jvm) -> dict[str, tuple[float, str]]:
        args, workload = self.args, self.workload
        setups = []
        for _ in range(SETUP_REPEATS):
            if setups:
                setups[-1][0].locations.unpersist()
                setups[-1][0].rentals.unpersist()
            setups.append(set_up(spark, workload, args.seed))
        data = setups[-1][0]
        self.cfg = data.config
        self.n_stations = int((data.nodes_pdf["kind"] == "station").sum())
        setup_s = self.session_s + statistics.median(s[2] for s in setups)
        generate_s = statistics.median(s[1] for s in setups)

        if not args.trace:
            walls = []
            while not walls or sum(walls) < args.seconds:
                done = self.attempt(run_pass, spark, data, workload)
                if done is None:
                    break
                walls.append(done[0])
                self.outputs.append(done[2])
                print(f"pass {len(walls)} {done[0]} s")
            if not walls:
                return {}
            return {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (setup_s, "s"),
                "driver_peak_rss_mb": (proc_hwm_mb(), "MiB"),
            }

        traced = self.attempt(traced_pass, spark, data, workload, jvm.pid)
        if traced is None:
            return {}
        wall, result, out, tracer = traced
        jobs = tracer.resolve_jobs()
        metrics = tracer.span_metrics(count_calls=("louvain.modularity",))
        metrics.update({k: (v, "count") for k, v in jobs.items()})
        metrics.update(layer_counts(result, out, tracer))
        metrics["generator.generate_s"] = (generate_s, "s")
        metrics["spark.session_s"] = (self.session_s, "s")
        metrics["spark.jvm_peak_rss_mb"] = (proc_hwm_mb(jvm.pid), "MiB")
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (tracer.overhead_s, "s")
        self.span_names = {s.name for s in tracer.spans}
        self.outputs.append(out)
        return metrics

    def main(self) -> int:
        t0 = time.perf_counter()
        spark = start_session()
        self.session_s = time.perf_counter() - t0
        jvm = jvm_process()
        try:
            print("env " + json.dumps(environment(spark, self.workload, self.args.seed)))
            self.measured = measured = self.execute(spark, jvm)
        finally:
            shutdown(spark, jvm)
        declared = declared_metrics(bool(self.args.trace))
        unknown = sorted(set(measured) - set(declared))
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
        metrics = {}
        for name, unit in declared.items():
            value, got_unit = measured.get(name, (0, unit))
            if got_unit != unit:
                raise RuntimeError(f"{name}: unit {got_unit} != declared {unit}")
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value} {unit}")
        correct = self.failed == 0 and self.attempted > 0 and bool(measured)
        print(f"failed_share {self.failed / max(self.attempted, 1)} share")
        print(json.dumps({
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": metrics,
        }))
        return 0 if correct else 1


def sources_present() -> bool:
    if (SRC / "repro" / "pipeline.py").is_file() and (ROOT / "BENCHMARK.json").is_file():
        return True
    print(f"perfbench: {SRC}/repro or BENCHMARK.json not found; "
          "run from the repository root", file=sys.stderr)
    return False


@contextlib.contextmanager
def scratch_dir():
    """A per-process directory under ``.perfbench_tmp/``, removed on exit."""
    tmp = TMP_ROOT / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not sources_present():
        return 2
    with scratch_dir() as tmp:
        configure_environment(tmp)
        return Run(args, WORKLOADS[args.workload]).main()


if __name__ == "__main__":
    sys.exit(main())
