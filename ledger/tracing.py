"""Benchmark-side tracing: in-memory spans and a timing distance metric.

Nothing here reaches into the program.  Spans are opened by the benchmark
around its calls into each layer's public functions, and kernel timings
come from :class:`TimingMetric`, a :class:`repro.metrics.base.Metric`
handed to the program through its ordinary ``metric=`` argument.  Spans
stay in memory until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.metrics.base import Metric
from repro.metrics.vector import euclidean

#: Layer of the kernel spans recorded by :class:`TimingMetric`.
METRICS_LAYER = "repro.metrics"


class SpanRecorder:
    """Collects spans (name, layer, start, end, parent) in memory.

    Nesting follows the recorder's stack on the thread that opened it;
    spans recorded from other threads (the HTTP generator) are roots.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Dict[str, Any]]:
        """Time the body as one span nested under the innermost open span."""
        record = self._open(name, layer)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a finished span (nested only when called on the owner thread)."""
        record = self._open(name, layer, start)
        record["end"] = end

    def _open(self, name: str, layer: str, start: Optional[float] = None) -> Dict[str, Any]:
        parent = None
        if self._stack and threading.get_ident() == self._owner:
            parent = self._stack[-1]
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "phase": parent["name"] if parent else None,
            "name": name,
            "layer": layer,
            "start": perf_counter() if start is None else start,
            "end": None,
        }
        self.spans.append(record)
        return record

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: span durations minus the time their child spans cover.

        Children of one parent never overlap (they are opened in sequence on
        one thread), so the covered time is the sum of their durations.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            duration = record["end"] - record["start"]
            totals[record["layer"]] += duration - child_time[record["id"]]
        return dict(totals)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _rows(x: Any) -> int:
    return int(np.shape(x)[0])


def _bytes(*arrays: Any) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


#: Kernels reported under their own ``metrics.<kernel>_s``/``_evals`` rows.
#: Every other forwarded method (the index's box bounds, and any kernel
#: added later) is reported as ``other``.
KERNELS = ("distance", "distances_to", "distances_idx", "pairwise", "pairwise_idx",
           "pairwise_min")

# Per known kernel: (evaluations, operand + result bytes) from its arguments
# and result.  Box bounds are geometry, not distance evaluations.
_ACCOUNTING: Dict[str, Callable[..., Any]] = {
    "distance": lambda res, x, y: (1, _bytes(np.asarray(x), np.asarray(y)) + 8),
    "distances_to": lambda res, p, X: (res.size, _bytes(np.asarray(p), X, res)),
    "pairwise": lambda res, X, Y=None: (res.size, _bytes(X, Y, res)),
    "pairwise_min": lambda res, X, Y: (_rows(X) * _rows(Y), _bytes(X, Y, res)),
    "distances_idx": lambda res, store, row, idx: (
        res.size, (res.size + 1) * store.features.shape[1] * 8 + res.nbytes
    ),
    "pairwise_idx": lambda res, store, rows, cols=None: (
        res.size,
        (res.shape[0] + (0 if cols is None else res.shape[1]))
        * store.features.shape[1] * 8 + res.nbytes,
    ),
    "box_lower_bounds": lambda res, Q, lo, hi: (0, _bytes(Q, lo, hi, res)),
    "box_upper_bounds": lambda res, Q, lo, hi: (0, _bytes(Q, lo, hi, res)),
}

#: Process-local table that lets pickled sessions find their live metric.
_LIVE: Dict[int, "TimingMetric"] = {}


def _revive(key: int) -> "TimingMetric":
    metric = _LIVE.get(key)
    return metric if metric is not None else TimingMetric(SpanRecorder())


class TimingMetric(Metric):
    """A Euclidean metric whose every kernel call is timed and counted.

    Every public method of the wrapped ``euclidean()`` is forwarded through
    a timer, including kernels not in :data:`KERNELS`, so a later kernel is
    still timed (as ``other``) and the program takes exactly the path it
    takes with the plain metric.  ``supports_batch`` and ``supports_index``
    are forwarded too.  Per kernel it keeps calls, seconds, evaluations and
    bytes, and records one ``repro.metrics`` span per call.

    Deep copies (session snapshots) share the instance, and pickles
    (checkpoints) resolve back to it inside the same process, so every
    kernel call of a run lands in one ledger.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.inner = euclidean()
        self.recorder = recorder
        self.name = self.inner.name
        self.kernels: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0, 0])
        _LIVE[id(self)] = self
        for attr in dir(type(self.inner)):
            if attr.startswith("_"):
                continue
            target = getattr(self.inner, attr)
            if callable(target):
                setattr(self, attr, self._timed(attr, target))

    @property
    def supports_batch(self) -> bool:  # type: ignore[override]
        """Forwarded from the wrapped metric."""
        return self.inner.supports_batch

    @property
    def supports_index(self) -> bool:  # type: ignore[override]
        """Forwarded from the wrapped metric."""
        return self.inner.supports_index

    def distance(self, x: Any, y: Any) -> float:
        """Replaced per instance by the timed forwarder; kept for the ABC."""
        raise AssertionError("shadowed in __init__")

    def _timed(self, attr: str, target: Callable[..., Any]) -> Callable[..., Any]:
        account = _ACCOUNTING.get(attr)
        kernel = attr if attr in KERNELS else "other"
        stats = self.kernels[kernel]
        recorder = self.recorder

        def forward(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            result = target(*args, **kwargs)
            end = perf_counter()
            if account is not None:
                evals, nbytes = account(result, *args, **kwargs)
            else:
                evals = int(getattr(result, "size", 1))
                nbytes = _bytes(*args, *kwargs.values(), result)
            stats[0] += 1
            stats[1] += end - start
            stats[2] += int(evals)
            stats[3] += int(nbytes)
            recorder.add(kernel, METRICS_LAYER, start, end)
            return result

        return forward

    def __getattr__(self, attr: str) -> Any:
        # Only reached for names the inner class does not define either.
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def __deepcopy__(self, memo: Dict[int, Any]) -> "TimingMetric":
        return self

    def __reduce__(self) -> Any:
        return (_revive, (id(self),))


def kernel_metrics(kernels: Dict[str, List[float]]) -> Dict[str, float]:
    """``metrics.*`` values from a :attr:`TimingMetric.kernels` table (or a delta of two)."""
    def get(kernel: str, field: int) -> float:
        return kernels[kernel][field] if kernel in kernels else 0

    out = {}
    for kernel in (*KERNELS, "other"):
        out[f"metrics.{kernel}_s"] = float(get(kernel, 1))
        out[f"metrics.{kernel}_evals"] = float(get(kernel, 2))
    out["metrics.distance_calls"] = float(sum(stats[0] for stats in kernels.values()))
    out["metrics.kernel_bytes"] = float(sum(stats[3] for stats in kernels.values()))
    return out


def snapshot(kernels: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """A copy of a kernel table, to subtract from a later one."""
    return {name: list(stats) for name, stats in kernels.items()}


def delta(after: Dict[str, List[float]], before: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-kernel difference of two kernel tables."""
    zero = [0, 0.0, 0, 0]
    return {
        name: [a - b for a, b in zip(stats, before.get(name, zero))]
        for name, stats in after.items()
    }


def kernel_seconds_under(recorder: SpanRecorder, phases: Iterable[str]) -> float:
    """Kernel seconds whose enclosing benchmark span is one of ``phases``."""
    wanted = set(phases)
    return sum(
        r["end"] - r["start"]
        for r in recorder.spans
        if r["layer"] == METRICS_LAYER and r["phase"] in wanted
    )


def stream_kernel_seconds(recorder: SpanRecorder, run_span: Dict[str, Any],
                          stream_seconds: float) -> float:
    """Kernel seconds in the stream phase of one ``Algorithm.run`` span.

    ``run`` times its stream stage from its first statement and its
    post-processing right after, so the kernels the span encloses that start
    within ``stream_seconds`` of the span's start belong to the stream.
    (Kernel calls on either side of that edge start half a millisecond or
    more away from it.)
    """
    edge = run_span["start"] + stream_seconds
    return sum(
        r["end"] - r["start"]
        for r in recorder.spans
        if r["layer"] == METRICS_LAYER and r["parent"] == run_span["id"] and r["start"] < edge
    )
