"""Workload ``session-d16``: sessions of 100k x 16 rows, a query after every 10th chunk."""

from __future__ import annotations

import os
import tempfile
from time import perf_counter

import numpy as np

import repro
from repro import SFDM2, ElementStore, equal_representation, euclidean

from common import (
    WORK,
    Deadline,
    HostSpeed,
    Outcome,
    beyond,
    blobs,
    fingerprint,
    median,
    draw_mean,
    draw_percentile,
    ms,
    percentile,
    single_core,
    timed_child,
    vm_hwm_mb,
)
from tracing import SpanRecorder, TimingMetric, kernel_metrics, kernel_seconds_under

N, D, K, BATCH, CHUNK = 100_000, 16, 20, 1024, 1_000
#: A query follows every QUERY_EVERY-th chunk.  Query cost depends on the
#: stream (the median over one stream's queries ranged from 60 to 125 ms
#: between draws), so a run spends its time on many sparsely queried
#: streams rather than on a few densely queried ones.
QUERY_EVERY = 10
#: Independent draws of the 100k rows that one run cycles through (a
#: session takes about 3.3 s, so fourteen or so fit in a 50 s run).
DRAWS = 12
SESSION_LAYER = "repro.api.session"
SETUP_CODE = (
    "import time; t = time.perf_counter(); import repro; "
    "repro.open_session(k=20, groups=[0, 1], algorithm='SFDM2', batch_size=1024); "
    "print(time.perf_counter() - t)"
)


def _open(metric=None):
    return repro.open_session(
        k=K, groups=[0, 1], algorithm="SFDM2", batch_size=BATCH, metric=metric
    )


def _one_session(out, features, groups, metric=None, recorder=None):
    """Offer every chunk, query after every QUERY_EVERY-th; returns timings and the session."""
    session = _open(metric)
    offers, queries, extracts = [], [], []
    result = None
    started = perf_counter()
    for index, start in enumerate(range(0, N, CHUNK)):
        rows, labels = features[start:start + CHUNK], groups[start:start + CHUNK]
        began = perf_counter()
        if recorder is None:
            session.offer_rows(rows, groups=labels)
        else:
            with recorder.span("offer_rows", SESSION_LAYER):
                session.offer_rows(rows, groups=labels)
        offers.append(perf_counter() - began)
        if index % QUERY_EVERY != QUERY_EVERY - 1:
            continue
        began = perf_counter()
        if recorder is None:
            result = session.solution()
        else:
            with recorder.span("solution", SESSION_LAYER):
                result = session.solution()
        queries.append(perf_counter() - began)
        extracts.append(result.stats.postprocess_seconds)
        counts = np.bincount(groups[np.asarray(result.solution.uids)], minlength=2)
        out.check(counts.tolist() == [K // 2, K // 2],
                  f"query after {start + CHUNK} rows is not a fair size-{K} solution")
    out.ops(len(offers) + len(queries))
    return {
        "offers": offers,
        "queries": queries,
        "extracts": extracts,
        "wall": perf_counter() - started,
        "result": result,
        "session": session,
    }


def _one_shot(features, groups):
    """The simplest path over the same rows in the same order."""
    return SFDM2(
        euclidean(), equal_representation(K, [0, 1]), epsilon=0.1, batch_size=BATCH
    ).run(ElementStore(features, groups))


def _check_final(out, result, reference):
    out.check(fingerprint(result)[:3] == fingerprint(reference)[:3],
              "final session solution differs from the one-shot run "
              "(uids, diversity or stream distance count)")


def _draw(seed: int, j: int):
    return blobs(np.random.default_rng([seed, D, j]), N, D)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    if trace:
        return _traced(out, *_draw(seed, 0))

    host = HostSpeed()
    host.sample()
    setup = timed_child(SETUP_CODE, 5)
    loop = Deadline(seconds)
    # Session j streams draw j % DRAWS; every draw is streamed at least once
    # and weighs the same in every figure, however many sessions fit.
    by_draw = [[] for _ in range(DRAWS)]
    done, last = 0, 0.0
    while done < DRAWS or loop.fits(last, done):
        began = perf_counter()
        one = _one_session(out, *_draw(seed, done % DRAWS))
        del one["session"]
        by_draw[done % DRAWS].append(one)
        host.sample()
        last = perf_counter() - began
        done += 1
    rss = vm_hwm_mb()

    # Draws are made again for the checks, so that only one is ever held and
    # the peak RSS does not grow with the number of sessions that fit.
    for j, sessions in enumerate(by_draw):
        reference = _one_shot(*_draw(seed, j))
        for one in sessions:
            _check_final(out, one["result"], reference)

    def pooled(key):
        return [[t for one in sessions for t in one[key]] for sessions in by_draw]

    offers, queries = pooled("offers"), pooled("queries")
    answer = draw_percentile(
        [[sum(one["offers"]) + one["queries"][-1] for one in sessions]
         for sessions in by_draw], 50)
    # Every timing is divided by the host's speed factor (common.HostSpeed).
    speed = host.factor
    out.metrics.update({
        "setup_s": median(setup) / speed,
        "solve_s": answer / speed,
        "ingest_rows_per_s": N / draw_mean(
            [[sum(one["offers"]) for one in sessions] for sessions in by_draw]) * speed,
        "capacity_rows_per_s": N / draw_mean(
            [[one["wall"] for one in sessions] for sessions in by_draw]) * speed,
        "diversity": float(np.mean([sessions[0]["result"].diversity for sessions in by_draw])),
        "peak_rss_mb": rss,
    })
    every_query, every_offer = sum(queries, []), sum(offers, [])
    out.note(f"sessions: {done} over {DRAWS} draws; {len(every_query)} queries, p90 "
             f"{ms(percentile(every_query, 90)):.1f} ms ({beyond(every_query, 90)} beyond); "
             f"{len(every_offer)} offers ({beyond(every_offer, 95)} beyond the p95)")
    query_p50, offer_p95 = ms(draw_percentile(queries, 50)), ms(draw_percentile(offers, 95))
    out.note(f"not gated: query_ms_p50 {query_p50 / speed:.2f} ms, offer_ms_p95 "
             f"{offer_p95 / speed:.2f} ms (host-normalised)")
    out.note(f"host speed factor {speed:.4f} over {len(host.samples)} reference runs; "
             f"wall-clock solve_s {answer:.4f} s, query_ms_p50 {query_p50:.2f} ms, "
             f"offer_ms_p95 {offer_p95:.2f} ms, setup_s {median(setup):.4f} s")
    return out


def _traced(out: Outcome, features, groups) -> Outcome:
    """One untraced session, one traced, the simplest path, checkpoint/resume."""
    _one_shot(features, groups)  # lazy set-up and caches, before anything is timed
    plain = _one_session(out, features, groups)
    recorder = SpanRecorder()
    timing = TimingMetric(recorder)
    traced = _one_session(out, features, groups, metric=timing, recorder=recorder)
    out.check(fingerprint(traced["result"]) == fingerprint(plain["result"]),
              "traced and untraced sessions disagree (uids, diversity or evals)")

    with single_core():
        started = perf_counter()
        reference = _one_shot(features, groups)
        simplest = perf_counter() - started
    _check_final(out, plain["result"], reference)

    WORK.mkdir(parents=True, exist_ok=True)
    checkpoints, resumes, state_bytes = [], [], 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = os.path.join(tmp, "session.ckpt")
        for _ in range(3):
            with recorder.span("checkpoint", SESSION_LAYER) as span:
                plain["session"].checkpoint(path)
            checkpoints.append(span["end"] - span["start"])
            state_bytes = os.path.getsize(path)
            with recorder.span("resume", SESSION_LAYER) as span:
                resumed = repro.resume(path)
            resumes.append(span["end"] - span["start"])
    out.check(fingerprint(resumed.solution()) == fingerprint(plain["result"]),
              "resumed session answers differently")

    stats = plain["result"].stats
    snapshots = [q - e for q, e in zip(plain["queries"], plain["extracts"])]
    offer_s = sum(plain["offers"])
    stream_kernels = kernel_seconds_under(recorder, ["offer_rows"])
    out.metrics.update(kernel_metrics(timing.kernels))
    out.metrics.update({
        "simplest.run_s": simplest,
        "simplest.stream_s": reference.stats.stream_seconds,
        "core.stream_s": stats.stream_seconds,
        "core.postprocess_s": stats.postprocess_seconds,
        "core.stream_evals": float(stats.stream_distance_computations),
        "core.postprocess_evals": float(stats.postprocess_distance_computations),
        "core.stored_elements": float(stats.final_stored_elements),
        "core.num_guesses": float(stats.extra["num_guesses"]),
        "core.eligible_ratio": stats.extra["eligible_guesses"] / stats.extra["num_guesses"],
        "metrics.kernel_share": stream_kernels / traced["result"].stats.stream_seconds,
        "session.offer_s": offer_s,
        "session.vs_simplest": offer_s / reference.stats.stream_seconds,
        "session.query_ms_p50": ms(median(plain["queries"])),
        "session.offer_ms_p95": ms(percentile(plain["offers"], 95)),
        "session.extract_ms_p50": ms(median(plain["extracts"])),
        "session.snapshot_ms_p50": ms(median(snapshots)),
        "session.state_bytes": float(state_bytes),
        "session.checkpoint_ms": ms(median(checkpoints)),
        "session.resume_ms": ms(median(resumes)),
        "bench.trace_overhead_pct": 100.0 * (traced["wall"] / plain["wall"] - 1.0),
    })
    out.note(f"session.vs_simplest = offer_rows {offer_s:.3f} s / one-shot stream "
             f"{reference.stats.stream_seconds:.3f} s")
    out.recorder = recorder
    return out
