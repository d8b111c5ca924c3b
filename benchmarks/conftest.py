"""Benchmark fixtures.

Benchmarks run the paper's experiments at SF=0.1 (≈6.2k rentals) by
default — large enough to exercise the shuffle paths, small enough that
each table's stage can be timed in one round. The full SF=1 reproduction
(the numbers in EXPERIMENTS.md) is produced by ``jobs/run_all.py``.

Set ``REPRO_BENCH_SF`` to override the scale factor.
"""
from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def bench_sf() -> float:
    return float(os.environ.get("REPRO_BENCH_SF", "0.1"))


@pytest.fixture(scope="session")
def bench_pipeline(spark, bench_sf):
    """The shared pipeline result (everything up to and including Louvain);
    each benchmark re-runs its own stage against it."""
    from repro.moby.generator import generate, paper_config
    from repro.pipeline import run_pipeline

    return run_pipeline(spark, data=generate(spark, paper_config(sf=bench_sf)))
