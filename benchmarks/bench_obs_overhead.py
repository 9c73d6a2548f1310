"""Observability overhead benchmark: the disabled path must be free.

The tracing statements live inside the engine's hot loops (the SFDM2
chunk ingest, the guess-ladder post-processing), so
the repository's perf story depends on the *disabled* fast path costing
nothing measurable.  This bench quantifies that claim three ways:

1. **Disabled ingest wall-clock** — a store-backed SFDM2 run with the
   tracer off (the default), best of two, as the denominator.
2. **Instrumentation call count** — the same run traced into a
   :class:`~repro.obs.MemorySink`; every span/event record whose start
   falls inside the ``ingest`` span is one tracer call the disabled path
   also executes (as a no-op).
3. **No-op unit cost** — a microbenchmark of the disabled
   ``with obs.span(...)`` statement.

The headline number is ``disabled_overhead_pct = calls x unit_cost /
ingest_seconds`` — the share of the ingest wall-clock the disabled
instrumentation can account for — and must stay <= 2%.  The bench also
re-proves that tracing never changes results: the traced and untraced
runs must return byte-identical solutions and equal distance counts.

Headline numbers land in ``BENCH_hot_paths.json`` (section
``obs_overhead`` at acceptance scale, ``obs_overhead_smoke`` below it)
for ``tools/perf_gate.py``.  Override the scale with
``REPRO_BENCH_OBS_N``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro.core.sfdm2 import SFDM2
from repro.datasets.synthetic import synthetic_blobs
from repro.evaluation.reporting import write_csv
from repro.fairness.constraints import equal_representation
from repro.parallel.backends import usable_cpus

from .conftest import BENCH_SEED, print_table, record_bench_section, scaled_csv_name

#: Acceptance-scale dataset size (override with REPRO_BENCH_OBS_N).
OBS_N = int(os.environ.get("REPRO_BENCH_OBS_N", "100000"))
#: Chunk size for the batched ingest (matches the hot-paths bench).
BATCH_SIZE = int(os.environ.get("REPRO_BENCH_OBS_BATCH", "1024"))
#: Iterations of the disabled no-op span microbenchmark.
NOOP_CALLS = 200_000
#: Acceptance bar: disabled instrumentation may account for at most this
#: share of the SFDM2 ingest wall-clock.
MAX_DISABLED_OVERHEAD_PCT = 2.0

K = 20
M = 2
EPSILON = 0.1

COLUMNS = ["quantity", "value"]


def _run(dataset, constraint):
    """One store-backed SFDM2 run on the bench's fixed stream permutation."""
    algorithm = SFDM2(
        metric=dataset.metric,
        constraint=constraint,
        epsilon=EPSILON,
        batch_size=BATCH_SIZE,
    )
    return algorithm.run(dataset.stream(seed=BENCH_SEED))


def _noop_span_cost() -> float:
    """Seconds per disabled ``with obs.span(...)`` statement."""
    assert not obs.enabled()
    start = time.perf_counter()
    for _ in range(NOOP_CALLS):
        with obs.span("ingest.chunk", size=0):
            pass
    return (time.perf_counter() - start) / NOOP_CALLS


def test_obs_overhead(benchmark, results_dir):
    """Disabled-path tracing overhead <= 2% of SFDM2 ingest; identical results."""
    dataset = synthetic_blobs(n=OBS_N, m=M, seed=BENCH_SEED)
    constraint = equal_representation(K, list(dataset.group_sizes().keys()))
    assert not obs.enabled(), "bench requires the tracer to start disabled"

    def _sweep():
        # Warm pass so allocator/code-path warm-up stays out of the timing.
        warm = synthetic_blobs(n=max(2048, OBS_N // 50), m=M, seed=BENCH_SEED)
        warm_constraint = equal_representation(K, list(warm.group_sizes().keys()))
        _run(warm, warm_constraint)

        disabled_runs = [_run(dataset, constraint) for _ in range(2)]
        with obs.tracing("memory") as sink:
            traced = _run(dataset, constraint)
        noop_cost = _noop_span_cost()
        return disabled_runs, traced, list(sink.records), noop_cost

    disabled_runs, traced, records, noop_cost = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    untraced = min(disabled_runs, key=lambda r: r.stats.stream_seconds)
    ingest_disabled_s = untraced.stats.stream_seconds

    # Tracing must never perturb results: byte-identical solution, equal
    # distance accounting, traced or not.
    for result in disabled_runs:
        assert sorted(result.solution.uids) == sorted(traced.solution.uids)
    assert traced.solution.diversity == pytest.approx(untraced.solution.diversity)
    assert (
        traced.stats.stream_distance_computations
        == untraced.stats.stream_distance_computations
    )
    assert (
        traced.stats.postprocess_distance_computations
        == untraced.stats.postprocess_distance_computations
    )

    # Every record that started inside the ingest span is one tracer call
    # the disabled path also pays (as a no-op).
    ingest = next(r for r in records if r["name"] == "ingest")
    lo, hi = ingest["mono"], ingest["mono"] + ingest["dur"]
    ingest_calls = sum(1 for r in records if lo <= r["mono"] <= hi)
    overhead_pct = ingest_calls * noop_cost / max(ingest_disabled_s, 1e-9) * 100.0

    rows = [
        {"quantity": "ingest_disabled_s", "value": round(ingest_disabled_s, 4)},
        {"quantity": "ingest_tracer_calls", "value": ingest_calls},
        {"quantity": "noop_span_ns", "value": round(noop_cost * 1e9, 1)},
        {"quantity": "disabled_overhead_pct", "value": round(overhead_pct, 4)},
    ]
    print_table(rows, COLUMNS, title=f"tracing overhead on SFDM2 ingest — n={OBS_N}")
    write_csv(
        rows,
        results_dir / scaled_csv_name("obs_overhead", OBS_N, 100_000),
        columns=COLUMNS,
    )
    record_bench_section(
        "obs_overhead" if OBS_N >= 100_000 else "obs_overhead_smoke",
        {
            "n": OBS_N,
            "batch_size": BATCH_SIZE,
            "k": K,
            "m": M,
            "epsilon": EPSILON,
            "cpus": usable_cpus(),
            "ingest_disabled_s": round(ingest_disabled_s, 4),
            "ingest_tracer_calls": ingest_calls,
            "noop_span_ns": round(noop_cost * 1e9, 1),
            "disabled_overhead_pct": round(overhead_pct, 4),
            "stream_distance_computations": untraced.stats.stream_distance_computations,
            "traced_stream_distance_computations": traced.stats.stream_distance_computations,
        },
    )

    if not os.environ.get("REPRO_BENCH_HOT_NO_ASSERT"):
        assert overhead_pct <= MAX_DISABLED_OVERHEAD_PCT
