"""Spans around the calls into each layer of the pipeline, recorded from
outside the program.

A :class:`Tracer` replaces a function *by the name its caller binds*
(``repro.pipeline`` imports ``louvain`` directly, so patching only
``repro.louvain.louvain.louvain`` would miss it) with a wrapper that opens a
span, and puts every original back on :meth:`Tracer.restore`.

Each span sets its own Spark job group, so the jobs a span launches outside
any child span are its *self* jobs. Wall time, driver CPU (this process)
and JVM CPU (the Spark driver JVM, which runs the local executors) are
recorded on entry and exit; self values subtract the child spans.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


@dataclass
class Span:
    name: str
    group: str
    wall_s: float = 0.0
    driver_cpu_s: float = 0.0
    jvm_cpu_s: float = 0.0
    child_wall_s: float = 0.0
    child_driver_cpu_s: float = 0.0
    child_jvm_cpu_s: float = 0.0
    jobs: list = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_wall_s


class Tracer:
    """Records nested spans; one instance per traced pass."""

    def __init__(self, sc, jvm_pid: int):
        self._sc = sc
        self._jvm_pid = jvm_pid
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.granularity: str | None = None
        self.taps: dict[str, object] = {}
        self.overhead_s = 0.0  # time spent in the tracer's own bookkeeping

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> tuple[Span, float, float, float]:
        t = time.perf_counter()
        span = Span(name=name, group=f"perfbench-{len(self.spans)}")
        self.spans.append(span)
        self._stack.append(span)
        self._sc.setJobGroup(span.group, name)
        opened = span, time.perf_counter(), time.process_time(), proc_cpu_s(self._jvm_pid)
        self.overhead_s += time.perf_counter() - t
        return opened

    def _close(self, span: Span, t0: float, c0: float, j0: float) -> None:
        t = time.perf_counter()
        span.wall_s = t - t0
        span.driver_cpu_s = time.process_time() - c0
        span.jvm_cpu_s = proc_cpu_s(self._jvm_pid) - j0
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_wall_s += span.wall_s
            parent.child_driver_cpu_s += span.driver_cpu_s
            parent.child_jvm_cpu_s += span.jvm_cpu_s
            self._sc.setJobGroup(parent.group, parent.name)
        else:
            self._sc.setLocalProperty("spark.jobGroup.id", None)
            self._sc.setLocalProperty("spark.job.description", None)
        self.overhead_s += time.perf_counter() - t

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        opened = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(*opened)

    # -- patching --------------------------------------------------------

    def wrap(self, module, attr: str, span_name: str, *, per_granularity: bool = False,
             sets_granularity: bool = False) -> None:
        """Replace ``module.attr`` with a span-opening wrapper.

        ``per_granularity`` appends the granularity of the enclosing
        ``run_communities`` call to the span name; ``sets_granularity``
        marks the function whose second argument *is* that granularity.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = self.granularity
            if sets_granularity:
                self.granularity = args[1]
            name = span_name
            if (per_granularity or sets_granularity) and self.granularity:
                name = f"{span_name}.{self.granularity}"
            try:
                return self.call(name, original, *args, **kwargs)
            finally:
                self.granularity = outer

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def tap(self, module, attr: str, key: str) -> None:
        """Keep the return value of ``module.attr`` as ``taps[key]`` without
        opening a span (used for counts the program does not expose)."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            self.taps[key] = out
            return out

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- Spark job accounting -------------------------------------------

    def resolve_jobs(self) -> dict[str, int]:
        """Fill each span's job ids from its job group and return
        ``spark.jobs/stages/tasks`` totals. Raises if Spark's status store
        dropped any job id of the application (retention too small)."""
        sc = self._sc
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        seen = set(tracker.getJobIdsForGroup(None))
        for span in self.spans:
            span.jobs = sorted(tracker.getJobIdsForGroup(span.group))
            seen.update(span.jobs)
        if seen and len(seen) != max(seen) + 1:
            raise RuntimeError(
                f"Spark status store retained {len(seen)} of {max(seen) + 1} jobs; "
                "raise spark.ui.retainedJobs/retainedStages"
            )
        stages = tasks = 0
        for span in self.spans:
            for job_id in span.jobs:
                info = tracker.getJobInfo(job_id)
                if info is None:
                    raise RuntimeError(f"Spark job {job_id} evicted from the status store")
                for stage_id in info.stageIds:
                    st = tracker.getStageInfo(stage_id)
                    if st is not None and st.numCompletedTasks > 0:
                        stages += 1
                        tasks += st.numCompletedTasks
        return {
            "spark.jobs": sum(len(s.jobs) for s in self.spans),
            "spark.stages": stages,
            "spark.tasks": tasks,
        }

    # -- reporting -------------------------------------------------------

    def span_metrics(self, count_calls: tuple[str, ...] = ()) -> dict[str, tuple[float, str]]:
        """``<span>.self_s``/``<span>.jobs`` per span name (summed over
        repeated calls, plus ``<span>.calls`` for names starting with one of
        ``count_calls``) and ``<layer>.driver_cpu_s``/``<layer>.jvm_cpu_s``
        per layer."""
        self_s: dict[str, float] = defaultdict(float)
        jobs: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        driver_cpu: dict[str, float] = defaultdict(float)
        jvm_cpu: dict[str, float] = defaultdict(float)
        for s in self.spans:
            self_s[s.name] += s.self_s
            jobs[s.name] += len(s.jobs)
            calls[s.name] += 1
            driver_cpu[s.layer] += s.driver_cpu_s - s.child_driver_cpu_s
            jvm_cpu[s.layer] += s.jvm_cpu_s - s.child_jvm_cpu_s
        out: dict[str, tuple[float, str]] = {}
        for name in self_s:
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.jobs"] = (jobs[name], "count")
            if name.startswith(count_calls):
                out[f"{name}.calls"] = (calls[name], "count")
        for layer in sorted(driver_cpu):
            out[f"{layer}.driver_cpu_s"] = (driver_cpu[layer], "s")
            out[f"{layer}.jvm_cpu_s"] = (jvm_cpu[layer], "s")
        return out
