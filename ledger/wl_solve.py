"""Workload ``solve-d64``: back-to-back ``repro.solve`` calls on 100k x 64 rows."""

from __future__ import annotations

from time import perf_counter

import numpy as np

import repro
from repro import SFDM2, ElementStore, equal_representation, euclidean

from common import (
    Deadline,
    HostSpeed,
    Outcome,
    blobs,
    fingerprint,
    median,
    draw_mean,
    draw_percentile,
    ms,
    percentile,
    same_diversity,
    single_core,
    timed_child,
    vm_hwm_mb,
    beyond,
)
from tracing import (
    SpanRecorder,
    TimingMetric,
    delta,
    kernel_metrics,
    snapshot,
    stream_kernel_seconds,
)

N, D, K, BATCH = 100_000, 64, 20, 1024
#: Independent draws of the 100k rows that one run cycles through (about
#: 35 calls fit in a 50 s run).
DATASETS = 3
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


def _solve(features, groups, metric=None):
    return repro.solve(
        features, k=K, groups=groups, algorithm="SFDM2",
        batch_size=BATCH, epsilon=0.1, metric=metric,
    )


def _simplest(features, groups, metric=None):
    """The ROADMAP yardstick: a direct columnar SFDM2 run."""
    constraint = equal_representation(K, [0, 1])
    return SFDM2(
        metric if metric is not None else euclidean(),
        constraint, epsilon=0.1, batch_size=BATCH,
    ).run(ElementStore(features, groups))


def _check(out: Outcome, result, features, groups, reference) -> None:
    uids = np.asarray(result.solution.uids)
    out.check(len(uids) == K, f"solution size {len(uids)} != k={K}")
    vectors = np.asarray([e.vector for e in result.solution.elements])
    out.check(np.array_equal(features[uids], vectors), "uids do not address the input rows")
    counts = np.bincount(groups[uids], minlength=2).tolist()
    out.check(counts == [K // 2, K // 2], f"group counts {counts} miss the quotas")
    out.check(same_diversity(result.diversity, features[uids]),
              "reported diversity differs from the NumPy recomputation")
    out.check(fingerprint(result)[:2] == fingerprint(reference)[:2],
              "uids/diversity differ from the direct simplest-path run")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    # How long a solve takes and how diverse its answer is depend on the draw
    # as much as on the program, so one run cycles through a fixed set of
    # draws, visits each at least once, and weighs each draw equally.
    datasets = [blobs(np.random.default_rng([seed, D, j]), N, D) for j in range(DATASETS)]
    if trace:
        return _traced(out, *datasets[0], seconds)

    host = HostSpeed()
    host.sample()
    setup = timed_child(IMPORT_CODE, 5)
    loop = Deadline(seconds)
    calls, stream, prints = ([[] for _ in datasets] for _ in range(3))
    # Only the first result per draw is kept, so that the peak RSS does not
    # grow with the number of calls that fit.
    firsts = [None] * DATASETS
    units = []
    done = 0
    while done < DATASETS or loop.fits(median(units), done):
        j = done % DATASETS
        start = perf_counter()
        result = _solve(*datasets[j])
        calls[j].append(perf_counter() - start)
        stream[j].append(result.stats.stream_seconds)
        prints[j].append(fingerprint(result))
        if firsts[j] is None:
            firsts[j] = result
        host.sample()
        units.append(perf_counter() - start)
        done += 1
    rss = vm_hwm_mb()
    out.ops(done)

    for (features, groups), first, same_rows in zip(datasets, firsts, prints):
        _check(out, first, features, groups, _simplest(features, groups))
        out.check(all(p == same_rows[0] for p in same_rows), "repeated solves disagree")

    # Every timing is divided by the host's speed factor (common.HostSpeed).
    speed = host.factor
    out.metrics.update({
        "setup_s": median(setup) / speed,
        "solve_s": draw_percentile(calls, 50) / speed,
        "ingest_rows_per_s": N / draw_percentile(stream, 50) * speed,
        # Restates solve_s, with the mean in place of the median.
        "capacity_rows_per_s": N / draw_mean(calls) * speed,
        "diversity": float(np.mean([first.diversity for first in firsts])),
        "peak_rss_mb": rss,
    })
    every = sum(calls, [])
    out.note(f"solves: {done} calls over {DATASETS} draws; p90 "
             f"{ms(percentile(every, 90)):.1f} ms ({beyond(every, 90)} beyond)")
    out.note(f"host speed factor {speed:.4f} over {len(host.samples)} reference runs; "
             f"wall-clock solve_s {draw_percentile(calls, 50):.4f} s, "
             f"setup_s {median(setup):.4f} s")
    return out


def _traced(out: Outcome, features, groups, seconds: float) -> Outcome:
    recorder = SpanRecorder()
    timing = TimingMetric(recorder)
    loop = Deadline(seconds)
    plain, traced, simplest, simplest_stream, stores, per_call = [], [], [], [], [], []
    plain_results, traced_results, stream_share = [], [], []
    _solve(features, groups)  # lazy set-up and caches, before anything is timed
    unit = 0.0
    while len(plain) < 2 or loop.fits(unit, len(plain)):
        began = perf_counter()
        start = perf_counter()
        plain_results.append(_solve(features, groups))
        plain.append(perf_counter() - start)

        with single_core():
            start = perf_counter()
            reference = _simplest(features, groups)
            simplest.append(perf_counter() - start)
        simplest_stream.append(reference.stats.stream_seconds)

        before = snapshot(timing.kernels)
        with recorder.span("repro.solve", "repro.api") as span:
            traced_results.append(_solve(features, groups, metric=timing))
        traced.append(span["end"] - span["start"])
        per_call.append(delta(timing.kernels, before))

        with recorder.span("ElementStore", "repro.data") as span:
            ElementStore(features, groups)
        stores.append(span["end"] - span["start"])

        with recorder.span("SFDM2.run", "repro.core") as span:
            direct = _simplest(features, groups, metric=timing)
        stream_share.append(stream_kernel_seconds(recorder, span, direct.stats.stream_seconds)
                            / direct.stats.stream_seconds)
        unit = perf_counter() - began
    out.ops(len(plain) + len(traced))

    _check(out, plain_results[0], features, groups, reference)
    first = fingerprint(plain_results[0])
    out.check(all(fingerprint(r) == first for r in plain_results + traced_results),
              "traced and untraced solves disagree (uids, diversity or evals)")

    stats = [r.stats for r in plain_results]
    kernels = [kernel_metrics(table) for table in per_call]
    metrics = {
        name: (median([k[name] for k in kernels]) if name.endswith("_s")
               else kernels[0][name])
        for name in kernels[0]
    }
    out.check(all(k[n] == kernels[0][n] for k in kernels for n in k if not n.endswith("_s")),
              "kernel evaluation counts differ between calls")
    out.metrics.update(metrics)
    out.metrics.update({
        "simplest.run_s": median(simplest),
        "simplest.stream_s": median(simplest_stream),
        "api.resolve_s": median(plain) - median(simplest),
        "api.vs_simplest": median(plain) / median(simplest),
        "data.store_build_s": median(stores),
        "core.stream_s": median([s.stream_seconds for s in stats]),
        "core.postprocess_s": median([s.postprocess_seconds for s in stats]),
        "core.stream_evals": float(stats[0].stream_distance_computations),
        "core.postprocess_evals": float(stats[0].postprocess_distance_computations),
        "core.stored_elements": float(stats[0].final_stored_elements),
        "core.num_guesses": float(stats[0].extra["num_guesses"]),
        "core.eligible_ratio": stats[0].extra["eligible_guesses"] / stats[0].extra["num_guesses"],
        # repro.solve gives no edge between its phases; the direct run does.
        "metrics.kernel_share": median(stream_share),
        "bench.trace_overhead_pct": 100.0 * (median(traced) / median(plain) - 1.0),
    })
    out.note(f"api.vs_simplest = solve {median(plain):.3f} s / simplest "
             f"{median(simplest):.3f} s over {len(plain)} pairs")
    out.recorder = recorder
    return out
