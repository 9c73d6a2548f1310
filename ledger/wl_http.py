"""Workload ``http-tenants-d2``: 16 skewed tenants against ``repro serve``.

The server runs as a subprocess (``--port 0 --max-live 8``, every other flag
at its default, a temporary ``--state-dir`` under ``ledger/out``).  The
generator is this process: at most two keep-alive connections, every body
encoded before the timed phases.

* Warm-up: every tenant gets 8 offers (128 rows, past the 64-row bound
  estimate) and one solution query, so no timed query can legitimately
  return 409.
* Phase (a), open loop: offers of 16 rows at 2,000 rows/s on one
  connection, solution queries at 5/s on the other, tenants Zipf(1.1);
  each request is timed from when it was due.
* Phase (b), closed loop at saturation: each connection sends its next
  offer when the previous one answers.  Connection ``c`` owns the tenants
  of Zipf rank parity ``c``, so each tenant's rows arrive in a known order.
* Then three sweeps fetch every tenant's final solution, which must equal a
  one-shot ``SFDM2(batch_size=256)`` run over exactly the rows the server
  accepted for that tenant (256 is the server's default ``--max-batch``).
"""

from __future__ import annotations

import asyncio
import json
import math
import select
import signal
import subprocess
import sys
import tempfile
import threading
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import SFDM2, ElementStore, equal_representation, euclidean
from repro.serving import ManagerConfig, SessionManager

from common import (
    ROOT,
    WORK,
    Outcome,
    beyond,
    child_env,
    layout,
    fingerprint,
    median,
    ms,
    percentile,
    vm_hwm_mb,
)
from tracing import SpanRecorder, TimingMetric, kernel_metrics, kernel_seconds_under

TENANTS, K, D, ROWS_PER_OFFER = 16, 8, 2, 16
MAX_LIVE, SERVER_BATCH = 8, 256
WARMUP_OFFERS = 8
OFFER_RATE_ROWS = 2_000.0
QUERY_RATE = 5.0
ZIPF_S = 1.1
#: Share of the run given to phase (a); phase (b) gets the rest.
PHASE_A_SHARE = 0.7
#: Phase (b) sends a fixed number of offers, sized to last its share of the
#: run at this rate, so every tenant's final rows depend on the seed alone.
NOMINAL_CAPACITY_ROWS = 9_000.0
SETUP_SPAWNS = 3
SWEEPS = 3
SERVER_LAYER = "repro.serving.server"
MANAGER_LAYER = "repro.serving.manager"
HEADERS = {"Content-Type": "application/json"}


def _name(tenant: int) -> str:
    return f"t{tenant:02d}"


class Offer:
    """One pre-encoded offer: its tenant, rows, and JSON body."""

    __slots__ = ("tenant", "features", "groups", "uids", "path", "body")

    def __init__(self, tenant, features, groups, uids) -> None:
        self.tenant = tenant
        self.features = features
        self.groups = groups
        self.uids = uids
        self.path = f"/sessions/{_name(tenant)}/offer"
        self.body = json.dumps({
            "features": features.tolist(),
            "groups": groups.tolist(),
            "uids": uids.tolist(),
        }).encode()


class Inputs:
    """Everything the generator sends, derived from the seed before any timing."""

    def __init__(self, seed: int, phase_a: float, phase_b: float) -> None:
        rank = np.arange(1, TENANTS + 1, dtype=float)
        weights = rank ** -ZIPF_S
        weights /= weights.sum()
        pick = np.random.default_rng([seed, 3])
        self._rngs = [np.random.default_rng([seed, 2, t]) for t in range(TENANTS)]
        self._centers = [layout(D, tenant=t) for t in range(TENANTS)]
        self._next_uid = [0] * TENANTS

        self.warmup = [self._offer(t) for _ in range(WARMUP_OFFERS) for t in range(TENANTS)]
        offer_gap = ROWS_PER_OFFER / OFFER_RATE_ROWS
        self.offers_a = [
            (i * offer_gap, self._offer(int(t)))
            for i, t in enumerate(pick.choice(TENANTS, size=int(phase_a / offer_gap), p=weights))
        ]
        self.queries_a = [
            (j / QUERY_RATE, f"/sessions/{_name(int(t))}/solution")
            for j, t in enumerate(pick.choice(TENANTS, size=int(phase_a * QUERY_RATE), p=weights))
        ]
        per_connection = int(NOMINAL_CAPACITY_ROWS * phase_b / ROWS_PER_OFFER / 2)
        self.offers_b = []
        for parity in (0, 1):
            owned = np.arange(parity, TENANTS, 2)
            p = weights[owned] / weights[owned].sum()
            self.offers_b.append(
                [self._offer(int(t)) for t in pick.choice(owned, size=per_connection, p=p)]
            )

    def _offer(self, tenant: int) -> Offer:
        rng = self._rngs[tenant]
        features = rng.standard_normal((ROWS_PER_OFFER, D))
        features += self._centers[tenant][rng.integers(0, 10, size=ROWS_PER_OFFER)]
        groups = rng.integers(0, 2, size=ROWS_PER_OFFER)
        first = self._next_uid[tenant]
        self._next_uid[tenant] = first + ROWS_PER_OFFER
        return Offer(tenant, features, groups, np.arange(first, first + ROWS_PER_OFFER))


class Client:
    """One keep-alive connection; a dropped connection is reopened on the next request."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._conn: Optional[HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One round trip; status 0 when the connection failed."""
        try:
            if self._conn is None:
                self._conn = HTTPConnection("127.0.0.1", self._port, timeout=60)
            self._conn.request(method, path, body=body, headers=HEADERS if body else {})
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, HTTPException):
            self.close()
            return 0, b""

    def json(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, dict]:
        status, raw = self.request(method, path, json.dumps(body).encode() if body else None)
        return status, (json.loads(raw) if raw else {})

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Server:
    """A ``repro serve`` subprocess with its own state directory."""

    def __init__(self, state_dir: Path) -> None:
        state_dir.mkdir(parents=True)
        self.stderr = open(state_dir / "server.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-live", str(MAX_LIVE), "--state-dir", str(state_dir / "state")],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on http://"):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def stop(self) -> Tuple[float, int]:
        """Read the server's VmHWM, SIGTERM it, and wait; returns (MB, exit code)."""
        rss = vm_hwm_mb(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self.proc.stdout.close()
        self.stderr.close()
        return rss, code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def _create_sessions(client: Client) -> bool:
    ok = True
    for tenant in range(TENANTS):
        status, _ = client.json(
            "POST", "/sessions", {"name": _name(tenant), "k": K, "groups": 2, "algorithm": "SFDM2"}
        )
        ok &= status == 201
    return ok


def _open_loop(client: Client, schedule, t0: float, samples: list, recorder=None) -> None:
    """Send each request when due; record (status, seconds since due, lag, item)."""
    for due_in, item in schedule:
        due = t0 + due_in
        wait = due - perf_counter()
        if wait > 0:
            sleep(wait)
        sent = perf_counter()
        if isinstance(item, Offer):
            status, _ = client.request("POST", item.path, item.body)
        else:
            status, _ = client.request("GET", item)
        done = perf_counter()
        samples.append((status, done - due, sent - due, item))
        if recorder is not None:
            recorder.add("http.request", SERVER_LAYER, sent, done)


def _closed_loop(client: Client, offers: List[Offer], samples: list, recorder=None) -> None:
    for offer in offers:
        sent = perf_counter()
        status, _ = client.request("POST", offer.path, offer.body)
        done = perf_counter()
        samples.append((status, done - sent, done, offer))
        if recorder is not None:
            recorder.add("http.request", SERVER_LAYER, sent, done)


def _threads(*targets) -> None:
    threads = [threading.Thread(target=fn, args=args) for fn, *args in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _metrics(client: Client) -> Dict[str, object]:
    status, payload = client.json("GET", "/metrics")
    return payload if status == 200 else {}


def _metric_delta(after: dict, before: dict, name: str) -> float:
    return float(after.get(name, 0)) - float(before.get(name, 0))


def _hist_mean(after: dict, before: dict, name: str) -> float:
    a, b = after.get(name) or {}, before.get(name) or {}
    count = a.get("count", 0) - b.get("count", 0)
    return (a.get("total", 0.0) - b.get("total", 0.0)) / count if count else 0.0


def _one_shot(offers: List[Offer]):
    """The simplest path over exactly the rows a tenant's server session accepted."""
    store = ElementStore(
        np.concatenate([o.features for o in offers]),
        np.concatenate([o.groups for o in offers]),
        np.concatenate([o.uids for o in offers]),
    )
    return SFDM2(
        euclidean(), equal_representation(K, [0, 1]), epsilon=0.1, batch_size=SERVER_BATCH
    ).run(store)


def run(seed: int, seconds: float, trace: bool,
        recorder: Optional[SpanRecorder] = None) -> Outcome:
    """One run; a traced run records into ``recorder`` when one is given."""
    out = Outcome()
    phase_a = PHASE_A_SHARE * seconds
    phase_b = seconds - phase_a
    inputs = Inputs(seed, phase_a, phase_b)
    if trace and recorder is None:
        recorder = SpanRecorder()
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        setups, server = [], None
        try:
            for spawn in range(SETUP_SPAWNS):
                started = perf_counter()
                server = Server(Path(tmp) / f"spawn{spawn}")
                control = Client(server.port)
                out.check(_create_sessions(control), "creating the 16 sessions failed")
                setups.append(perf_counter() - started)
                if spawn + 1 < SETUP_SPAWNS:
                    control.close()
                    _, code = server.stop()
                    out.check(code == 0, f"server exited with code {code}")
                    server = None
            _drive(out, inputs, server, control, recorder)
            control.close()
            rss, code = server.stop()
            server = None
            out.check(code == 0, f"server exited with code {code} after SIGTERM")
        finally:
            if server is not None:
                server.kill()
    if not trace:
        out.metrics["setup_s"] = median(setups)
        out.metrics["peak_rss_mb"] = rss
    else:
        _replays(out, inputs, recorder)
        out.recorder = recorder
    return out


def _drive(out, inputs: Inputs, server: Server, control: Client,
           recorder) -> None:
    for offer in inputs.warmup:
        status, _ = control.request("POST", offer.path, offer.body)
        out.check(status == 202, f"warm-up offer answered {status}")
    for tenant in range(TENANTS):
        status, _ = control.request("GET", f"/sessions/{_name(tenant)}/solution")
        out.check(status == 200, f"warm-up query answered {status}")
    accepted: Dict[int, List[Offer]] = {t: [] for t in range(TENANTS)}
    for offer in inputs.warmup:
        accepted[offer.tenant].append(offer)

    other = Client(server.port)
    snapshots = [_metrics(control)] if recorder is not None else []
    offers_a, queries_a = [], []
    t0 = perf_counter() + 0.05
    _threads(
        (_open_loop, control, inputs.offers_a, t0, offers_a, recorder),
        (_open_loop, other, inputs.queries_a, t0, queries_a, recorder),
    )
    ended_a = perf_counter()
    if recorder is not None:
        snapshots.append(_metrics(control))
    offers_b: List[list] = [[], []]
    start_b = perf_counter()
    _threads(
        (_closed_loop, control, inputs.offers_b[0], offers_b[0], recorder),
        (_closed_loop, other, inputs.offers_b[1], offers_b[1], recorder),
    )
    samples_b = offers_b[0] + offers_b[1]
    ended_b = max(s[2] for s in samples_b)
    if recorder is not None:
        snapshots.append(_metrics(control))

    # Rows the server accepted, per tenant, in the order it accepted them.
    for samples in (offers_a, offers_b[0], offers_b[1]):
        for status, _, _, offer in samples:
            if status == 202:
                accepted[offer.tenant].append(offer)

    sweeps, finals = [], []
    for _ in range(SWEEPS):
        started = perf_counter()
        sweep = [control.json("GET", f"/sessions/{_name(t)}/solution") for t in range(TENANTS)]
        sweeps.append(perf_counter() - started)
        finals.append(sweep)
    other.close()
    _check_finals(out, finals, accepted)

    def failed(samples):
        return sum(1 for s in samples if s[0] not in (200, 202))

    offer_lat = [s[1] if s[0] == 202 else math.inf for s in offers_a]
    query_lat = [s[1] if s[0] == 200 else math.inf for s in queries_a]
    rows_a = ROWS_PER_OFFER * sum(1 for s in offers_a if s[0] == 202)
    # Host interference comes in bursts; the median of one-second windows
    # keeps a burst from moving the whole phase's rate.
    windows = [0] * max(1, int(ended_b - start_b))
    for status, _, done, _ in samples_b:
        slot = int(done - start_b)
        if status == 202 and slot < len(windows):
            windows[slot] += ROWS_PER_OFFER
    sent_a = len(offers_a) + len(queries_a)
    failed_a = failed(offers_a) + failed(queries_a)
    out.ops(sent_a + len(samples_b) + TENANTS * SWEEPS,
            failed_a + failed(samples_b))
    lag = max(s[2] for s in offers_a + queries_a)
    out.note(f"phase (a): {len(offers_a)} offers (p99: {beyond(offer_lat, 99)} beyond), "
             f"{len(queries_a)} queries (p90: {beyond(query_lat, 90)} beyond), "
             f"generator lag max {ms(lag):.2f} ms; phase (b): {len(samples_b)} offers")
    out.note("phase (b) rows per one-second window: " + " ".join(str(w) for w in windows))
    out.note("phase (a) offer ms at p10/25/50/75/90/99: " + " ".join(
        f"{ms(percentile(offer_lat, q)):.2f}" for q in (10, 25, 50, 75, 90, 99)))
    out.note("phase (a) query ms at p10/25/50/75/90: " + " ".join(
        f"{ms(percentile(query_lat, q)):.2f}" for q in (10, 25, 50, 75, 90)))
    out.metrics.update({
        "solve_s": median(sweeps),
        "ingest_rows_per_s": rows_a / (ended_a - t0),
        "capacity_rows_per_s": median(windows),
        "diversity": float(np.mean([payload["diversity"] for _, payload in finals[-1]])),
    })
    if recorder is None:
        return
    before, mid, after = snapshots
    prefix = "repro.serving."
    bodies = [len(s[3].body) if isinstance(s[3], Offer) else 0
              for s in offers_a + queries_a + samples_b]
    out.metrics.update({
        "manager.flushes": _metric_delta(after, before, prefix + "flushes"),
        "manager.flush_rows_mean": _hist_mean(after, before, prefix + "flush.rows"),
        "manager.evictions": _metric_delta(after, before, prefix + "sessions.evicted"),
        "manager.restores": _metric_delta(after, before, prefix + "sessions.restored"),
        "manager.rejected_rows": _metric_delta(after, before, prefix + "rejected_rows"),
        "http.server_ms_mean": _hist_mean(after, before, prefix + "http.ms"),
        "http.requests": _metric_delta(after, before, prefix + "http.requests"),
        "http.errors": _metric_delta(after, before, prefix + "http.errors"),
        "http.body_bytes_mean": float(np.mean(bodies)),
        "gen.a.lag_ms_max": ms(lag),
        "gen.a.sent": float(sent_a),
        "gen.a.succeeded": float(sent_a - failed_a),
        "gen.a.failed": float(failed_a),
        "gen.b.sent": float(len(samples_b)),
        "gen.b.succeeded": float(len(samples_b) - failed(samples_b)),
        "gen.b.failed": float(failed(samples_b)),
    })
    out.note(f"/metrics phase (a) evictions "
             f"{_metric_delta(mid, before, prefix + 'sessions.evicted'):.0f}, "
             f"phase (b) evictions {_metric_delta(after, mid, prefix + 'sessions.evicted'):.0f}")


def _check_finals(out: Outcome, finals, accepted: Dict[int, List[Offer]]) -> None:
    for tenant in range(TENANTS):
        answers = [sweep[tenant] for sweep in finals]
        if not out.check(all(status == 200 for status, _ in answers),
                         f"{_name(tenant)} final solution request failed"):
            continue
        payloads = [payload for _, payload in answers]
        out.check(all(p == payloads[0] for p in payloads), f"{_name(tenant)} sweeps disagree")
        reference = _one_shot(accepted[tenant])
        got = (payloads[0]["uids"], payloads[0]["diversity"],
               payloads[0]["stream_distance_computations"])
        want = fingerprint(reference)[:3]
        out.check(list(got) == list(want),
                  f"{_name(tenant)} HTTP solution differs from the one-shot run over "
                  f"its {sum(len(o.uids) for o in accepted[tenant])} accepted rows")


async def _replay(inputs: Inputs, state_dir: Path, metric, recorder: SpanRecorder):
    """Phase (a)'s offers and queries, in due order, straight into a SessionManager."""
    manager = SessionManager(ManagerConfig(state_dir=state_dir, max_live=MAX_LIVE))
    for tenant in range(TENANTS):
        await manager.create(_name(tenant), k=K, groups=2, algorithm="SFDM2", metric=metric)
    for offer in inputs.warmup:
        await manager.offer(_name(offer.tenant), offer.features, offer.groups, offer.uids)
    for tenant in range(TENANTS):
        await manager.solution(_name(tenant))
    ops = sorted(
        [(due, 0, i, offer) for i, (due, offer) in enumerate(inputs.offers_a)]
        + [(due, 1, i, path) for i, (due, path) in enumerate(inputs.queries_a)],
        key=lambda op: op[:3],
    )
    offers, queries = [], []
    started = perf_counter()
    for _, kind, _, item in ops:
        if kind == 0:
            with recorder.span("manager.offer", MANAGER_LAYER) as span:
                await manager.offer(_name(item.tenant), item.features, item.groups, item.uids)
            offers.append(span["end"] - span["start"])
        else:
            name = item.split("/")[2]
            with recorder.span("manager.solution", MANAGER_LAYER) as span:
                await manager.solution(name)
            queries.append(span["end"] - span["start"])
    wall = perf_counter() - started
    finals = [await manager.solution(_name(t)) for t in range(TENANTS)]
    await manager.shutdown()
    return offers, queries, wall, finals


def _replays(out: Outcome, inputs: Inputs, recorder: SpanRecorder) -> None:
    """Untraced and traced in-process replays of phase (a) on the manager."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        plain = asyncio.run(_replay(inputs, Path(tmp) / "plain", None, SpanRecorder()))
        timing = TimingMetric(recorder)
        traced = asyncio.run(_replay(inputs, Path(tmp) / "traced", timing, recorder))
    out.ops(2 * (len(plain[0]) + len(plain[1])))
    out.check([fingerprint(r) for r in plain[3]] == [fingerprint(r) for r in traced[3]],
              "traced and untraced manager replays disagree (uids, diversity or evals)")
    offers, queries, wall, finals = plain
    stats = [r.stats for r in finals]
    guesses = sum(s.extra["num_guesses"] for s in stats)
    out.metrics.update(kernel_metrics(timing.kernels))
    out.metrics.update({
        "manager.offer_ms_p50": ms(percentile(offers, 50)),
        "manager.offer_ms_p99": ms(percentile(offers, 99)),
        "manager.solution_ms_p50": ms(percentile(queries, 50)),
        "core.stream_s": sum(s.stream_seconds for s in stats),
        "core.postprocess_s": sum(s.postprocess_seconds for s in stats),
        "core.stream_evals": float(sum(s.stream_distance_computations for s in stats)),
        "core.postprocess_evals": float(sum(s.postprocess_distance_computations for s in stats)),
        "core.stored_elements": float(sum(s.final_stored_elements for s in stats)),
        "core.num_guesses": float(guesses),
        "core.eligible_ratio": sum(s.extra["eligible_guesses"] for s in stats) / guesses,
        "metrics.kernel_share": kernel_seconds_under(recorder, ["manager.offer"])
        / sum(r.stats.stream_seconds for r in traced[3]),
        "bench.trace_overhead_pct": 100.0 * (traced[2] / wall - 1.0),
    })
    out.note(f"manager replay of phase (a): {len(offers)} offers, {len(queries)} queries, "
             f"untraced {wall:.3f} s, traced {traced[2]:.3f} s")
