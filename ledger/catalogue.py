"""Workload rationale and metric catalogue of the layer ledger.

Later changes cite workloads and metrics by the names defined here.  Every
metric carries its unit, its direction, the layer it belongs to, and the
end-to-end metric and workload it is expected to move.  ``run.py`` prints
metrics in this order with these units, and refuses to start when
``BENCHMARK.json`` lists a different set.

Every end-to-end metric is printed on every workload.  The
``per_workload`` entry records what each name measures there; where a
workload has nothing distinct to measure under a name, the entry says
which other metric it restates, so that no alias is read as independent
evidence.  On ``solve-d64`` and ``session-d16`` a closed loop cycles a
fixed set of seeded draws (3 and 12); every median, percentile and mean
over their operations weighs each draw equally, and diversity is the mean
over the draws, so no figure depends on how many operations fit in a run.

Every end-to-end timing of the gated workloads, ``setup_s`` included, is
wall-clock divided by the run's host speed factor (``common.HostSpeed``):
the median time of a fixed reference computation, sampled after every
solve or session of the run, over its nominal time.  A timing therefore
reads as it would on a host of nominal speed; the wall-clock figures and
the factor are printed as notes.  On a 2-vCPU virtual machine the same
session on the same rows took 1.6 to 2.7 s of CPU time (not wall time) in
phases of a minute or two, with whatever else the host ran; over 45 s
windows that spread the medians of the raw timings by 0.07 to 0.2 of their
value, and the host-normalised ones by about half as much.  The reference
cannot hide a regression: it runs no program code, with the cyclic garbage
collector off, so a change to the program leaves it alone.  The
per-layer timings of the traced runs are wall-clock.

Workloads
---------
``solve-d64``
    Closed loop of back-to-back ``repro.solve(features, k=20, groups,
    algorithm='SFDM2', batch_size=1024, epsilon=0.1)`` calls.  n=100,000,
    d=64, ten Gaussian blobs, two groups drawn uniformly, equal quotas.  A
    run cycles through 3 draws, because solve time and diversity vary with
    the draw.  In a traced run the pairwise kernels take most of the solve,
    and ``repro.solve`` is compared with the direct
    ``SFDM2(...).run(ElementStore)`` simplest path on the same rows.  Kernel
    (ROADMAP item 3) and ingress (item 5) changes show here; session and
    serving changes must not.

``session-d16``
    Closed loop.  A ``repro.open_session(k=20, groups=[0, 1],
    algorithm='SFDM2', batch_size=1024)`` takes 100,000 rows with d=16
    through ``offer_rows`` in 1,000-row chunks (deliberately not aligned to
    ``batch_size``); ``solution()`` runs after every 10th chunk, 10 queries
    per session.  Query cost depends on the stream (the median over one
    stream's queries ranged from 60 to 125 ms between draws), so a run
    cycles through 12 draws, one session each and more while its time
    allows, and weighs every draw equally.  This is the ingest-and-query path ROADMAP item 2
    rewrites; the one-shot workload bypasses it.

``http-tenants-d2``
    ``repro serve --port 0 --max-live 8`` as a subprocess, other flags at
    their defaults.  One generator process, at most 2 keep-alive
    connections, 16 tenants (k=8, m=2, d=2 rows as in the paper's synthetic
    setting), 16 rows per offer, tenants drawn Zipf(s=1.1).  Phase (a), 70%
    of the run: open loop, offers at 2,000 rows/s on one connection and
    solution queries at 5/s on the other, each timed from when it was due.
    (At 10 queries/s, queries of about 50 ms alone kept the server half
    busy, phase (a) ran near saturation and offer latency swung from 5 to
    777 ms between runs.)  Phase (b): closed loop at saturation, each
    connection sending its next offer when the previous one answers, each
    owning half of the tenants so every tenant's row order is known; a fixed
    number of offers (enough for the rest of the run at 9,000 rows/s), so
    the final state depends on the seed alone.  Skew keeps hot tenants
    resident while cold tenants churn through checkpoints; offers and
    queries share one event loop, so query cost shows in offer tail
    latency.  Capacity is closed-loop because a rate ladder's 'highest rate
    with p99 <= 100 ms' did not repeat.  Not gated (see ``UNGATED``): its
    spans and ``/metrics`` deltas feed the serving-layer metrics of the
    ``session-d16`` traced run.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

SOLVE = "solve-d64"
SESSION = "session-d16"
HTTP = "http-tenants-d2"

#: Gated workloads: name -> why it was chosen (one line, copied into
#: BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    SOLVE: (
        "repro.solve on 100k x 64 rows, k=20, m=2: the paper's batch job, "
        "kernel-bound; kernel and ingress changes show here, session and "
        "serving changes must not; capacity restates solve_s"
    ),
    SESSION: (
        "ingest-and-query via repro.open_session, 100k x 16 rows in 1000-row "
        "chunks, solution() after every 10th; one-shot solves bypass it; its "
        "traced run also drives repro serve"
    ),
}

#: Runnable by name, printed like the others, but not gated: across ten
#: seeds its offer p99 spread 0.27 and its capacity 0.23 of their medians
#: (host interference, amplified by queueing and cross-process wake-ups),
#: more than the largest bound a gate may have.  The traced run of
#: session-d16 runs it to measure the serving layers.
UNGATED: Dict[str, str] = {
    HTTP: (
        "repro serve with 16 Zipf-skewed tenants and 16-row d=2 offers: HTTP "
        "decode, manager queue, micro-batch flush and LRU evict/restore do the "
        "work, the kernel almost none"
    ),
}


class MetricSpec(NamedTuple):
    """One catalogue row."""

    name: str
    unit: str
    better: str
    layer: str
    moves: str
    #: End-to-end metrics: what the name measures on each workload.
    per_workload: Optional[Dict[str, str]] = None
    #: End-to-end metrics: regression bound as a share of the parent median.
    bound: Optional[float] = None


END_TO_END: List[MetricSpec] = [
    MetricSpec(
        "setup_s", "s", "lower", "end-to-end", "-",
        {
            SOLVE: "`import repro` in a fresh interpreter; median of 5",
            SESSION: "`import repro` plus open_session in a fresh interpreter; median of 5",
            HTTP: "spawning the server until its `serving on` line, plus creating "
                  "the 16 sessions; median of 3 spawns",
        },
        0.25,
    ),
    MetricSpec(
        "solve_s", "s", "lower", "end-to-end", "-",
        {
            SOLVE: "median time per repro.solve call",
            SESSION: "median per session of all its offer_rows calls plus its "
                     "final solution(): the time to an answer over 100k rows",
            HTTP: "median of 3 sweeps that fetch every tenant's final solution "
                  "in turn after phase (b) (restores included)",
        },
        0.25,
    ),
    MetricSpec(
        "ingest_rows_per_s", "rows/s", "higher", "end-to-end", "-",
        {
            SOLVE: "100k rows over the median RunResult.stats.stream_seconds: "
                   "the paper's stream-phase rate",
            SESSION: "100k rows over the mean per-session total time inside "
                     "offer_rows",
            HTTP: "phase (a) goodput: rows accepted per second at the "
                  "2,000 rows/s reference rate (falls only when the server "
                  "cannot keep up)",
        },
        0.25,
    ),
    # Latency percentiles are not gated.  On session-d16, across ten seeds
    # in a stretch when the host's speed factor swung from 0.69 to 1.10, the
    # host-normalised query_ms_p50 spread 0.23 and offer_ms_p95 0.13 (0.33
    # and 0.22 before normalising), while the whole-session aggregates below
    # spread 0.05 to 0.08: a query is slowed more than the reference by
    # whatever else the host runs, and its cost also depends on the draw.
    # Both are printed as notes on every run, and the traced run reports
    # them as session.query_ms_p50 and session.offer_ms_p95; a query's cost
    # is gated through capacity_rows_per_s, which includes every query.
    MetricSpec(
        "capacity_rows_per_s", "rows/s", "higher", "end-to-end", "-",
        {
            SOLVE: "restates solve_s: 100k rows over the mean repro.solve call",
            SESSION: "100k rows over the mean wall time of a whole session, "
                     "its 10 queries included",
            HTTP: "median over one-second windows of the rows accepted in the "
                  "closed-loop phase (b)",
        },
        0.25,
    ),
    MetricSpec(
        "diversity", "distance", "higher", "end-to-end", "-",
        {
            SOLVE: "minimum pairwise distance of the solution",
            SESSION: "minimum pairwise distance of the final solution",
            HTTP: "mean over tenants of the final solution's diversity",
        },
        0.25,
    ),
    MetricSpec(
        "peak_rss_mb", "MB", "lower", "end-to-end", "-",
        {
            SOLVE: "VmHWM of the benchmark process, which runs the solves",
            SESSION: "VmHWM of the benchmark process, which runs the session",
            HTTP: "VmHWM of the server process, read before SIGTERM",
        },
        0.1,
    ),
]

_SOLVE_MOVE = f"solve_s on {SOLVE}"
_QUERY_MOVE = f"capacity_rows_per_s on {SESSION} (every query included) and session.query_ms_p50"
_HTTP_MOVE = f"capacity_rows_per_s and the phase (a) latencies on {HTTP}"
_VALIDITY = "run validity; not an optimisation target"

PER_LAYER: List[MetricSpec] = [
    MetricSpec("api.resolve_s", "s", "lower", "repro.api", _SOLVE_MOVE),
    MetricSpec("api.vs_simplest", "ratio", "lower", "repro.api",
               f"{_SOLVE_MOVE} (base: simplest.run_s)"),
    MetricSpec("simplest.run_s", "s", "lower", "repro.core",
               "base of api.vs_simplest: direct SFDM2(...).run(ElementStore) on one core"),
    MetricSpec("simplest.stream_s", "s", "lower", "repro.core",
               "base of session.vs_simplest: stream_seconds of that one-shot run"),
    MetricSpec("data.store_build_s", "s", "lower", "repro.data", _SOLVE_MOVE),
    MetricSpec("core.stream_s", "s", "lower", "repro.core", _SOLVE_MOVE),
    MetricSpec("core.postprocess_s", "s", "lower", "repro.core",
               f"{_SOLVE_MOVE}; {_QUERY_MOVE}"),
    MetricSpec("core.stream_evals", "count", "lower", "repro.core",
               f"{_SOLVE_MOVE}; exact, repeats across runs"),
    MetricSpec("core.postprocess_evals", "count", "lower", "repro.core",
               f"{_QUERY_MOVE}; exact, repeats across runs"),
    MetricSpec("core.stored_elements", "count", "lower", "repro.core", _QUERY_MOVE),
    MetricSpec("core.num_guesses", "count", "lower", "repro.core", _SOLVE_MOVE),
    MetricSpec("core.eligible_ratio", "ratio", "higher", "repro.core", _QUERY_MOVE),
    MetricSpec("metrics.distance_s", "s", "lower", "repro.metrics",
               "scalar distance calls; few on every workload"),
    MetricSpec("metrics.distance_evals", "count", "lower", "repro.metrics",
               "scalar distance calls; few on every workload"),
    MetricSpec("metrics.distances_to_s", "s", "lower", "repro.metrics",
               f"{_SOLVE_MOVE}, then ingest_rows_per_s on {SESSION}"),
    MetricSpec("metrics.distances_to_evals", "count", "lower", "repro.metrics",
               f"{_SOLVE_MOVE}, then ingest_rows_per_s on {SESSION}"),
    MetricSpec("metrics.distances_idx_s", "s", "lower", "repro.metrics",
               f"post-processing of store-backed elements: {_QUERY_MOVE}"),
    MetricSpec("metrics.distances_idx_evals", "count", "lower", "repro.metrics",
               f"post-processing of store-backed elements: {_QUERY_MOVE}"),
    MetricSpec("metrics.pairwise_s", "s", "lower", "repro.metrics", _SOLVE_MOVE),
    MetricSpec("metrics.pairwise_evals", "count", "lower", "repro.metrics", _SOLVE_MOVE),
    MetricSpec("metrics.pairwise_idx_s", "s", "lower", "repro.metrics",
               f"post-processing of store-backed elements: {_QUERY_MOVE}"),
    MetricSpec("metrics.pairwise_idx_evals", "count", "lower", "repro.metrics",
               f"post-processing of store-backed elements: {_QUERY_MOVE}"),
    MetricSpec("metrics.pairwise_min_s", "s", "lower", "repro.metrics",
               f"{_SOLVE_MOVE}, then ingest_rows_per_s on {SESSION}"),
    MetricSpec("metrics.pairwise_min_evals", "count", "lower", "repro.metrics", _SOLVE_MOVE),
    MetricSpec("metrics.other_s", "s", "lower", "repro.metrics",
               "every other forwarded method: index box bounds and kernels "
               "added later (timed, not named)"),
    MetricSpec("metrics.other_evals", "count", "lower", "repro.metrics",
               "result entries of those methods (box bounds count none)"),
    MetricSpec("metrics.distance_calls", "count", "lower", "repro.metrics",
               f"{_SOLVE_MOVE}: kernel invocations of every kind"),
    MetricSpec("metrics.kernel_bytes", "bytes", "lower", "repro.metrics",
               f"{_SOLVE_MOVE}: operand plus result bytes of every kernel call"),
    MetricSpec("metrics.kernel_share", "ratio", "lower", "repro.metrics",
               f"{_SOLVE_MOVE}: kernel seconds in the stream phase / stream "
               f"seconds (on {SOLVE} of the direct SFDM2.run, whose stages the "
               f"benchmark can tell apart; on {SESSION} of offer_rows and the "
               f"manager replay's offers); predicted unchanged on {HTTP}"),
    MetricSpec("session.offer_s", "s", "lower", "repro.api.session",
               f"ingest_rows_per_s on {SESSION}"),
    MetricSpec("session.vs_simplest", "ratio", "lower", "repro.api.session",
               f"ingest_rows_per_s on {SESSION} (base: simplest.stream_s)"),
    MetricSpec("session.query_ms_p50", "ms", "lower", "repro.api.session",
               f"capacity_rows_per_s on {SESSION}: median solution() latency of "
               f"one session (not gated; see END_TO_END)"),
    MetricSpec("session.offer_ms_p95", "ms", "lower", "repro.api.session",
               f"ingest_rows_per_s on {SESSION}: p95 offer_rows latency per "
               f"1,000-row chunk of one session (not gated; see END_TO_END)"),
    MetricSpec("session.extract_ms_p50", "ms", "lower", "repro.api.session",
               "session.query_ms_p50"),
    MetricSpec("session.snapshot_ms_p50", "ms", "lower", "repro.api.session",
               "session.query_ms_p50"),
    MetricSpec("session.state_bytes", "bytes", "lower", "repro.api.session", _HTTP_MOVE),
    MetricSpec("session.checkpoint_ms", "ms", "lower", "repro.api.session", _HTTP_MOVE),
    MetricSpec("session.resume_ms", "ms", "lower", "repro.api.session", _HTTP_MOVE),
    MetricSpec("manager.offer_ms_p50", "ms", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("manager.offer_ms_p99", "ms", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("manager.solution_ms_p50", "ms", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("manager.flushes", "count", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("manager.flush_rows_mean", "rows", "higher", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("manager.evictions", "count", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("manager.restores", "count", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("manager.rejected_rows", "count", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("http.server_ms_mean", "ms", "lower", "repro.serving.server",
               f"capacity_rows_per_s and phase (a) offer latency on {HTTP}"),
    MetricSpec("http.requests", "count", "lower", "repro.serving.server",
               f"capacity_rows_per_s on {HTTP}"),
    MetricSpec("http.errors", "count", "lower", "repro.serving.server", f"error rate on {HTTP}"),
    MetricSpec("http.body_bytes_mean", "bytes", "lower", "repro.serving.server",
               f"capacity_rows_per_s and phase (a) offer latency on {HTTP}"),
    MetricSpec("api.self_s", "s", "lower", "repro.api", _SOLVE_MOVE),
    MetricSpec("data.self_s", "s", "lower", "repro.data", _SOLVE_MOVE),
    MetricSpec("core.self_s", "s", "lower", "repro.core", _SOLVE_MOVE),
    MetricSpec("metrics.self_s", "s", "lower", "repro.metrics",
               f"{_SOLVE_MOVE}: every kernel call the traced run timed (on "
               f"{SESSION}, the manager replay's too)"),
    MetricSpec("session.self_s", "s", "lower", "repro.api.session",
               f"ingest_rows_per_s and capacity_rows_per_s on {SESSION}"),
    MetricSpec("manager.self_s", "s", "lower", "repro.serving.manager", _HTTP_MOVE),
    MetricSpec("http.self_s", "s", "lower", "repro.serving.server", _HTTP_MOVE),
    MetricSpec("gen.a.lag_ms_max", "ms", "lower", "generator", _VALIDITY),
    MetricSpec("gen.a.sent", "count", "higher", "generator", _VALIDITY),
    MetricSpec("gen.a.succeeded", "count", "higher", "generator", _VALIDITY),
    MetricSpec("gen.a.failed", "count", "lower", "generator", _VALIDITY),
    MetricSpec("gen.b.sent", "count", "higher", "generator", _VALIDITY),
    MetricSpec("gen.b.succeeded", "count", "higher", "generator", _VALIDITY),
    MetricSpec("gen.b.failed", "count", "lower", "generator", _VALIDITY),
    MetricSpec("bench.trace_overhead_pct", "%", "lower", "bench", _VALIDITY),
    MetricSpec("error_rate", "ratio", "lower", "bench",
               "operations failed, refused or answered wrongly / attempted; "
               "also the JSON's failed/attempted"),
]

#: Layer name used in spans -> prefix of its ``*.self_s`` metric.
LAYER_PREFIX: Dict[str, str] = {
    "repro.api": "api",
    "repro.data": "data",
    "repro.core": "core",
    "repro.metrics": "metrics",
    "repro.api.session": "session",
    "repro.serving.manager": "manager",
    "repro.serving.server": "http",
}

SPECS: Dict[str, MetricSpec] = {spec.name: spec for spec in END_TO_END + PER_LAYER}
