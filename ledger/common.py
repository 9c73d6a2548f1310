"""Shared helpers: checkout paths, seeded inputs, percentiles, RSS, set-up timing."""

from __future__ import annotations

import copy
import gc
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of ``ledger/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (state dirs, checkpoints, span dumps); gitignored.
WORK = Path(__file__).resolve().parent / "out"


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def layout(d: int, tenant: int = 0) -> np.ndarray:
    """Ten blob centres drawn uniformly from [-10, 10]^d, the same for every seed.

    The seed draws the points around them.  A layout that moved with the
    seed would move the distance scale, hence the guess ladder and the
    post-processing work, and the run-to-run spread would measure the
    layouts instead of the program.
    """
    return np.random.default_rng([d, tenant]).uniform(-10.0, 10.0, size=(10, d))


def blobs(rng: np.random.Generator, n: int, d: int, m: int = 2) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's synthetic recipe: ten isotropic unit blobs around :func:`layout`.

    Built in place, so the generator's own peak memory stays near one copy
    of the output and does not mask the program's peak RSS.
    """
    centers = layout(d)
    features = rng.standard_normal((n, d))
    features += centers[rng.integers(0, 10, size=n)]
    groups = rng.integers(0, m, size=n)
    return features, groups


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a sample that was measured; +inf stays +inf)."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie beyond the nearest-rank ``q`` percentile."""
    return len(samples) - max(1, math.ceil(q / 100.0 * len(samples)))


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(np.median(np.asarray(samples, dtype=float)))


def draw_mean(samples_by_draw: Sequence[Sequence[float]]) -> float:
    """Mean of the samples, every draw weighing the same however many it has.

    A closed loop fits more units when the program is faster, and the extra
    units fall on some draws and not others; weighing every draw equally
    keeps the mix of inputs behind a number independent of speed.
    """
    return float(np.mean([np.mean(samples) for samples in samples_by_draw]))


def draw_percentile(samples_by_draw: Sequence[Sequence[float]], q: float) -> float:
    """Nearest-rank percentile of all samples, every draw weighing the same.

    Each sample weighs one over its draw's sample count, so the percentile
    is that of an equal mix of the draws (see :func:`draw_mean`), while all
    samples count towards the number beyond it.
    """
    weighted = sorted(
        (x, 1.0 / len(samples)) for samples in samples_by_draw for x in samples
    )
    target = q / 100.0 * len(samples_by_draw) * (1.0 - 1e-12)
    total = 0.0
    for x, weight in weighted:
        total += weight
        if total >= target:
            return x
    return weighted[-1][0]


def ms(seconds: float) -> float:
    """Seconds to milliseconds (a failed request's +inf stays +inf)."""
    return seconds * 1000.0


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def timed_child(code: str, repeats: int) -> List[float]:
    """Run ``code`` in ``repeats`` fresh interpreters; each prints its own seconds."""
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        ).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


class HostSpeed:
    """How fast the host runs right now, from a fixed reference computation.

    On a shared host the same call on the same rows drifts by a quarter or
    more over minutes, with whatever else the machine runs.  A run samples
    this computation between its timed operations and divides its timings
    by :attr:`factor` (the median sample over :data:`NOMINAL_S`), so a
    timing reads as it would on a host where the reference takes
    ``NOMINAL_S``.  The reference is the benchmark's own NumPy and Python
    code on fixed inputs (nothing from the program), run with the cyclic
    garbage collector off so that the program's live objects do not slow
    it; a change to the program cannot move it.
    """

    #: Seconds the reference takes at the nominal host speed (its median on
    #: a 2-vCPU Xeon virtual machine, rounded).
    NOMINAL_S = 0.18

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Distance blocks at both of the benchmark's dimensions, as the
        # program's kernels compute them, and copies of small Python
        # records, as its session snapshots make them.
        self._blocks = [
            (rng.standard_normal((40_000, 16)), rng.standard_normal((256, 16))),
            (rng.standard_normal((10_000, 64)), rng.standard_normal((256, 64))),
        ]
        self._records = [
            {"uid": i, "vector": rng.standard_normal(16), "group": i % 2, "tags": [i, i + 1]}
            for i in range(2_000)
        ]
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the reference once; returns (and keeps) its seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for points, centres in self._blocks:
                norms = (centres * centres).sum(axis=1)
                for i in range(0, len(points), 1_000):
                    block = points[i:i + 1_000]
                    dist = (block * block).sum(axis=1)[:, None] - 2.0 * block @ centres.T + norms
                    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
                    dist.min(axis=1)
                    (dist < 1.0).sum()
            for _ in range(3):
                copy.deepcopy(self._records)
            counts: Dict[int, int] = {}
            for i in range(100_000):
                counts[i % 1_000] = counts.get(i % 1_000, 0) + i
            seconds = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    @property
    def factor(self) -> float:
        """Median reference time over the nominal one: above 1 on a slow host."""
        return median(self.samples) / self.NOMINAL_S


class Deadline:
    """A closed loop's stopping rule: run whole units while they fit in the budget."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def fits(self, unit_seconds: float, done: int) -> bool:
        """Whether another unit of ``unit_seconds`` fits (the first one always does)."""
        return done == 0 or time.perf_counter() + unit_seconds <= self.end


class Outcome:
    """What one run of a workload reports: metrics, operation counts, checks."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        #: Human-readable lines printed above the JSON result.
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: Traced runs: the spans recorded around calls into the program.
        self.recorder = None

    def absorb(self, other: "Outcome", prefixes: Tuple[str, ...]) -> None:
        """Take another run's checks and notes, and its metrics named by ``prefixes``."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.notes += other.notes
        self.metrics.update({k: v for k, v in other.metrics.items() if k.startswith(prefixes)})

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Count operations sent to the program and how many failed or were refused."""
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> bool:
        """Record one correctness check; a mismatch counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)
        return ok

    def note(self, line: str) -> None:
        """Add a line to the human-readable report."""
        self.notes.append(line)

    @property
    def correct(self) -> bool:
        """Whether every check held and no operation failed."""
        return not self.mismatches and self.failed == 0


def fingerprint(result) -> Tuple:
    """What must repeat exactly between two runs over the same rows."""
    stats = result.stats
    return (
        list(result.solution.uids),
        float(result.diversity),
        int(stats.stream_distance_computations),
        int(stats.postprocess_distance_computations),
    )


def min_pairwise(rows: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance among ``rows``, recomputed with NumPy."""
    diff = rows[:, None, :] - rows[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    return float(dist[np.triu_indices(len(rows), k=1)].min())


def same_diversity(reported: float, rows: np.ndarray) -> bool:
    """Reported diversity equals the NumPy recomputation up to summation-order round-off."""
    return bool(np.isclose(reported, min_pairwise(rows), rtol=1e-9, atol=0.0))


class single_core:
    """Pin the calling thread to one CPU for the body (the ROADMAP's simplest path)."""

    def __enter__(self) -> "single_core":
        self._saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._saved)})
        return self

    def __exit__(self, *exc_info) -> None:
        os.sched_setaffinity(0, self._saved)
