"""Long-lived streaming sessions: ingest indefinitely, query anytime.

The one-shot :meth:`~repro.core.base.StreamingAlgorithm.run` consumes a
finite stream and returns once.  A production server instead needs to keep
ingesting and answer *"what is the best fair solution right now?"* at any
point — which is exactly what a :class:`StreamingSession` provides, for
every streaming-ladder algorithm (SFDM1, SFDM2, StreamingDM), by driving
the same candidate state the one-shot run builds:

* :meth:`~StreamingSession.offer` / :meth:`~StreamingSession.offer_batch` /
  :meth:`~StreamingSession.offer_rows` feed elements (or raw feature rows)
  incrementally, through the identical warmup / scalar / batched ingestion
  rules as ``run()``.  Which engine a :class:`StreamingSession` drives
  depends on its configuration and on its first payload:

  - **columnar** — batched sessions (``batch_size`` set) fed numeric
    vectors: ``offer_rows``, or elements whose payloads
    :meth:`~repro.data.store.ElementStore.try_from_elements` accepts
    (this covers ``open_session(data=...)``).  Rows wait in a columnar
    pending buffer and every whole chunk runs through the per-chunk body
    of the one-shot store engine (:meth:`~repro.core.base.StreamingAlgorithm._ingest_store`),
    with union screens kept across drains;
  - **object batch** — batched sessions fed other payloads (categorical
    sequences, precomputed-matrix indices): pending elements drain chunk
    by chunk through the object batch path (``Candidate.offer_batch``);
  - **scalar** — unbatched sessions: every element goes straight through
    the paper's element-at-a-time rule (``Candidate.offer``).

  ``offer_rows`` is all-or-nothing: shapes are checked (dimensionality is
  fixed by the session's first row) before any counter or buffer moves;
* :meth:`~StreamingSession.solution` extracts the current best solution as a
  full :class:`~repro.core.result.RunResult` **without mutating the
  session** — ingestion continues afterwards exactly as if the query never
  happened, so the final answer (and its distance accounting) is
  byte-identical to an uninterrupted run over the same element order;
* :meth:`~SessionBase.checkpoint` snapshots the live state to disk and
  :func:`resume` restores it — ``checkpoint -> resume -> continue`` yields
  byte-identical solutions and equal distance counts versus never stopping,
  which generalises the windowing layer's block-snapshot idea (its
  algorithms are wrapped by :class:`WindowSession`) to the whole streaming
  family.  The columnar screens are a derived cache: they stay out of
  snapshots and checkpoints and are rebuilt from the candidates on first
  use.

Sessions are created through :func:`repro.open_session`, which resolves the
algorithm from the registry and rejects entries without the ``sessions``
capability.
"""

from __future__ import annotations

import copy
import os
import pickle
import tempfile
from collections import deque
from pathlib import Path
from typing import Any, Deque, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.base import StreamingAlgorithm, _LadderScreens
from repro.core.result import RunResult
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.metrics.cached import CountingMetric
from repro.metrics.space import exact_distance_bounds
from repro.streaming.stats import StreamStats
from repro.utils.errors import (
    CheckpointError,
    EmptyStreamError,
    InvalidParameterError,
    NoFeasibleSolutionError,
)
from repro.utils.timer import Timer

#: Magic header of session checkpoint payloads.
CHECKPOINT_FORMAT = "repro-session"
#: Bumped whenever the pickled session layout changes incompatibly.
CHECKPOINT_VERSION = 2


class SessionBase:
    """Shared session plumbing: element coercion, uids, and checkpointing.

    Parameters
    ----------
    trace:
        Optional tracing sink spec (a :class:`repro.obs.Sink`,
        ``"stderr"``, ``"memory"``, or a JSONL file path).  Sessions are
        long-lived, so this configures the *process-wide* tracer via
        :func:`repro.obs.configure` rather than scoping it to one call;
        pass ``trace=`` to at most one constructor (the last one wins).
    """

    def __init__(self, trace: Any = None) -> None:
        self._offered = 0
        self._next_uid = 0
        #: Payload dimensionality, fixed by the first numeric row offered.
        self._dim: Optional[int] = None
        #: Accumulated wall-clock spent ingesting, shared by every session
        #: kind (one :class:`~repro.utils.timer.Timer` instead of ad-hoc
        #: ``perf_counter`` bookkeeping per subclass).
        self._stream_timer = Timer()
        if trace is not None:
            obs.configure(sink=trace, enabled=True)

    @property
    def _stream_seconds(self) -> float:
        """Total wall-clock seconds spent ingesting."""
        return self._stream_timer.elapsed

    # ------------------------------------------------------------------
    # Ingestion surface
    # ------------------------------------------------------------------
    @property
    def elements_offered(self) -> int:
        """Total number of elements this session has ingested."""
        return self._offered

    def offer(self, element: Element) -> None:
        """Ingest one element."""
        self._offer_many([element])

    def offer_batch(self, elements: Iterable[Element]) -> None:
        """Ingest a chunk of elements, in order."""
        chunk = list(elements)
        if chunk:
            self._offer_many(chunk)

    def offer_rows(
        self,
        features: Any,
        groups: Optional[Any] = None,
        uids: Optional[Any] = None,
    ) -> None:
        """Ingest raw feature rows (the server-friendly array entry point).

        The offer is all-or-nothing: every shape check runs before any
        counter or buffer moves, so a rejected offer leaves the session
        exactly as it was.

        Parameters
        ----------
        features:
            Array of shape ``(n, d)`` — or a single ``(d,)`` row.  ``d`` is
            fixed by the first row the session sees.
        groups:
            ``n`` integer group labels (default: group ``0`` for every row).
        uids:
            ``n`` integer identifiers; auto-assigned past the largest uid
            seen so far when omitted.

        Raises
        ------
        InvalidParameterError
            If ``features`` is not a numeric matrix, its rows have a
            different dimensionality than the session's earlier rows, or
            ``groups``/``uids`` do not have one entry per row.
        """
        block = self._rows_store(features, groups, uids)
        if len(block):
            self._offer_store(block)

    def _rows_store(self, features: Any, groups: Any, uids: Any) -> ElementStore:
        """Validate one ``offer_rows`` payload into a columnar block."""
        matrix, group_column, uid_column = check_rows(features, groups, uids, self._dim)
        n = matrix.shape[0]
        if group_column is None:
            group_column = np.zeros(n, dtype=np.int64)
        if uid_column is None:
            uid_column = np.arange(self._next_uid, self._next_uid + n, dtype=np.int64)
        return ElementStore(matrix, group_column, uids=uid_column)

    def _offer_store(self, block: ElementStore) -> None:
        """Ingest a validated ``offer_rows`` block (default: as elements).

        Each element owns a copy of its row, so a retained element never
        keeps the whole offered block alive.
        """
        self._offer_many([block.element(row, copy=True) for row in range(len(block))])

    def _offer_many(self, chunk: List[Element]) -> None:
        """Subclasses ingest an in-order, non-empty chunk here."""
        raise NotImplementedError

    def _track_uids(self, chunk: Sequence[Element]) -> None:
        """Advance the counters past an ingested element chunk."""
        payload = chunk[0].vector
        if self._dim is None and isinstance(payload, np.ndarray) and payload.ndim == 1:
            self._dim = payload.shape[0]
        self._advance(len(chunk), max(element.uid for element in chunk))

    def _advance(self, count: int, highest_uid: int) -> None:
        """Count ``count`` ingested elements; move the auto-uid watermark."""
        self._offered += count
        if highest_uid >= self._next_uid:
            self._next_uid = highest_uid + 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, path: Union[str, os.PathLike]) -> Path:
        """Snapshot the live session state to ``path`` (atomic replace).

        The snapshot contains everything needed to continue byte-identically:
        candidates, pending buffers, and the distance-count watermarks.
        Elements that are views of a columnar store detach on pickling, so
        a checkpoint never drags a whole dataset along.  Restore with
        :func:`repro.resume`.

        The write is crash-safe: the payload goes to a uniquely named
        temporary file in the target directory, is flushed and fsynced,
        and only then atomically replaces ``path``.  An interruption at
        any point — a raising pickler, a killed process — either leaves
        the previous checkpoint untouched or (on a clean failure) removes
        the partial temp file; a truncated payload is never visible under
        ``path``.

        Raises
        ------
        CheckpointError
            If the target directory does not exist / is not writable, or
            the session state cannot be pickled.
        """
        path = Path(path)
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "algorithm": self.algorithm_name,
            "session": self,
        }
        try:
            fd, tmp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".tmp", dir=path.parent
            )
        except OSError as error:
            raise CheckpointError(path, f"cannot create temp file ({error})") from error
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException as error:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - already gone
                pass
            if isinstance(error, (pickle.PicklingError, TypeError, AttributeError, OSError)):
                raise CheckpointError(path, f"cannot write ({error})") from error
            raise
        obs.event(
            "session.checkpoint",
            algorithm=self.algorithm_name,
            path=str(path),
            offered=self._offered,
        )
        return path

    @property
    def algorithm_name(self) -> str:
        """Name of the wrapped algorithm (used in reports and checkpoints)."""
        raise NotImplementedError


def check_rows(
    features: Any, groups: Any, uids: Any, dim: Optional[int]
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Validate one ``offer_rows`` payload (sessions and the serving manager).

    Returns ``(matrix, groups, uids)``: a float copy of ``features`` as an
    ``(n, d)`` matrix (a single ``(d,)`` row becomes ``(1, d)``) and the
    label columns as int64 arrays of length ``n``, ``None`` where omitted.
    ``dim`` is the width the rows must have, ``None`` when not yet fixed.

    Raises
    ------
    InvalidParameterError
        If ``features`` is not a numeric matrix, its rows are empty or
        not ``dim``-dimensional, or ``groups``/``uids`` are not one
        integer per row.
    """
    try:
        # a copy: the session keeps its pending rows, never the caller's
        matrix = np.array(features, dtype=float)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(
            f"features must be a numeric (n, d) matrix ({error})"
        ) from error
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2:
        raise InvalidParameterError(
            f"features must be a (n, d) matrix or a single row, got ndim={matrix.ndim}"
        )
    n = matrix.shape[0]
    if n:
        if not matrix.shape[1]:
            raise InvalidParameterError("feature rows need at least one coordinate")
        _check_dim(matrix.shape[1], dim)
    group_column = None if groups is None else _int_column(groups, n, "groups", "group labels")
    uid_column = None if uids is None else _int_column(uids, n, "uids", "uids")
    return matrix, group_column, uid_column


def _check_dim(dim: int, expected: Optional[int]) -> None:
    """Reject ``dim``-dimensional rows where ``expected`` is fixed and differs."""
    if expected is not None and dim != expected:
        raise InvalidParameterError(
            f"got {dim}-dimensional rows, but this session's rows are "
            f"{expected}-dimensional"
        )


def _int_column(values: Any, n: int, param: str, what: str) -> np.ndarray:
    """``values`` as an int64 column of length ``n``.

    ``param`` is the argument name and ``what`` its entries, for errors.
    """
    column = np.asarray(values).reshape(-1)
    if column.shape[0] != n:
        raise InvalidParameterError(
            f"{param} must hold one entry per feature row: got {n} rows but "
            f"{column.shape[0]} {what}"
        )
    try:
        return column.astype(np.int64)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(f"{what} must be integers ({error})") from error


class _RowBuffer:
    """Columnar pending rows of a session: offered, not yet ingested.

    A FIFO of :class:`~repro.data.store.ElementStore` blocks that own
    their memory; rows are concatenated only when a whole chunk is taken.
    When :meth:`take` cuts a chunk off the front block, the rest of that
    block is a view that keeps the whole block alive, so :meth:`settle`
    replaces it with a copy once the offer has drained.
    """

    __slots__ = ("_blocks", "_count", "_front_is_view")

    def __init__(self) -> None:
        self._blocks: Deque[ElementStore] = deque()
        self._count = 0
        self._front_is_view = False

    def __len__(self) -> int:
        return self._count

    def push(self, block: ElementStore) -> None:
        """Append ``block``, which must share memory with nothing else."""
        self._blocks.append(block)
        self._count += len(block)

    def peek(self, n: int) -> ElementStore:
        """The first ``n`` pending rows, left in place."""
        parts, need = [], n
        for block in self._blocks:
            if need == 0:
                break
            part = block if len(block) <= need else block.slice(0, need)
            parts.append(part)
            need -= len(part)
        return parts[0] if len(parts) == 1 else ElementStore.concat(parts)

    def take(self, n: int) -> ElementStore:
        """Remove and return the first ``n`` pending rows."""
        parts, need = [], n
        while need:
            block = self._blocks[0]
            size = len(block)
            if size <= need:
                parts.append(self._blocks.popleft())
                self._front_is_view = False
                need -= size
            else:
                parts.append(block.slice(0, need))
                self._blocks[0] = block.slice(need, size)
                self._front_is_view = True
                need = 0
        self._count -= n
        return parts[0] if len(parts) == 1 else ElementStore.concat(parts)

    def settle(self) -> None:
        """Copy a front block left as a view, so it pins nothing else."""
        if self._front_is_view:
            self._blocks[0] = ElementStore.concat([self._blocks[0]])
            self._front_is_view = False


def resume(path: Union[str, os.PathLike]) -> SessionBase:
    """Restore a session previously saved with :meth:`SessionBase.checkpoint`.

    The restored session continues exactly where the checkpoint left off:
    feeding it the remaining stream suffix yields byte-identical solutions
    and equal distance counts to a session that was never interrupted.

    Raises
    ------
    CheckpointError
        If ``path`` does not exist, cannot be read, is not a pickle, is
        truncated, or does not contain a repro session checkpoint.  The
        message always names the offending path.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError as error:
        raise CheckpointError(path, "no such file") from error
    except OSError as error:
        raise CheckpointError(path, f"cannot read ({error})") from error
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
            IndexError, MemoryError, ValueError) as error:
        # The pickle module surfaces corrupt/truncated/foreign payloads
        # through any of these; fold them into one typed failure.
        raise CheckpointError(
            path, f"not a readable pickle ({type(error).__name__}: {error})"
        ) from error
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(path, "not a repro session checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            path,
            f"version {payload.get('version')!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})",
        )
    session = payload.get("session")
    if not isinstance(session, SessionBase):
        raise CheckpointError(path, "does not contain a session object")
    obs.event(
        "session.resume",
        algorithm=payload["algorithm"],
        path=str(path),
        offered=session.elements_offered,
    )
    return session


class StreamingSession(SessionBase):
    """Incremental driver for one streaming-ladder algorithm.

    Parameters
    ----------
    algorithm:
        A configured :class:`~repro.core.base.StreamingAlgorithm`
        (SFDM1, SFDM2, or StreamingDiversityMaximization).  The session owns
        the run state; the algorithm object itself is never mutated.

    The session reproduces the one-shot ``run()`` behaviour stage by stage:

    * while fewer than ``warmup_size`` elements have arrived (and no
      explicit ``distance_bounds`` were given), elements are buffered and
      the guess ladder does not exist yet;
    * once the warmup fills, bounds are estimated exactly as ``run()``
      estimates them, the ladder and its candidates are built, and the
      buffered prefix is ingested;
    * afterwards, elements flow straight into the candidates — one at a
      time, or in whole ``batch_size`` chunks when the algorithm was
      configured with one (chunk boundaries are aligned to the stream
      start, matching the one-shot chunking).

    A batched session picks its route from the first payload it is
    offered.  Numeric vector rows (``offer_rows``, or elements that
    :meth:`~repro.data.store.ElementStore.try_from_elements` accepts) take
    the **columnar route**: pending rows wait in a columnar buffer, and
    each whole chunk runs through the one-shot store engine's per-chunk
    body (:meth:`repro.core.base._LadderScreens.offer`) with union screens
    that persist across drains.  Other payloads take the object batch
    route.  Accepted rows are copied out of the chunk, so neither the
    pending buffer nor the caller's arrays are ever pinned.

    :meth:`solution` works on a deep-copied snapshot, so queries are pure:
    the live ingestion schedule — and therefore the distance accounting —
    is unaffected by how often (or whether) the session is queried.
    """

    def __init__(self, algorithm: StreamingAlgorithm, trace: Any = None) -> None:
        super().__init__(trace=trace)
        if not isinstance(algorithm, StreamingAlgorithm):
            raise InvalidParameterError(
                f"StreamingSession drives StreamingAlgorithm instances, "
                f"got {type(algorithm).__name__}"
            )
        self._algorithm = algorithm
        self._counting = algorithm._counting_metric()
        self._stats = StreamStats()
        self._ladder = None
        self._blind = None
        self._specific = None
        #: Whether offers take the columnar route; ``None`` until the
        #: first offer decides (always ``False`` for unbatched sessions).
        self._columnar: Optional[bool] = None
        #: Offered but not yet ingested: an element list on the object
        #: route, a :class:`_RowBuffer` on the columnar route.
        self._pending: Union[List[Element], _RowBuffer] = []
        #: The columnar route's screens — a derived cache of the
        #: candidates, left out of snapshots and checkpoints and rebuilt
        #: on first use.
        self._screens: Optional[_LadderScreens] = None
        if algorithm.distance_bounds is not None:
            self._activate(algorithm.distance_bounds)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_screens"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Checkpoints from releases with the ``index`` option: an indexed
        # session without ``batch_size`` took the columnar route at an
        # implicit 128-row chunk, and its pending rows wait in a buffer
        # only a batched session drains.  Chunk size never changes the
        # decisions.
        if self._columnar and self._algorithm.batch_size is None:
            self._algorithm.batch_size = 128

    # ------------------------------------------------------------------
    @property
    def algorithm_name(self) -> str:
        """Name of the wrapped algorithm."""
        return self._algorithm.name

    @property
    def is_active(self) -> bool:
        """Whether the guess ladder exists yet (warmup complete)."""
        return self._ladder is not None

    @property
    def _batched(self) -> bool:
        """Whether ingestion runs through the vectorized batch path."""
        batch_size = self._algorithm.batch_size
        return batch_size is not None and batch_size > 1 and self._counting.supports_batch

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _choose_route(self, columnar: bool) -> None:
        """Fix the route on the first offer (columnar needs batch mode)."""
        if self._columnar is None:
            self._columnar = columnar and self._batched
            if self._columnar:
                self._pending = _RowBuffer()

    def _offer_store(self, block: ElementStore) -> None:
        self._choose_route(True)
        if self._columnar:
            self._offer_rows_block(block)
        else:
            super()._offer_store(block)

    def _offer_many(self, chunk: List[Element]) -> None:
        if self._columnar is not False:
            block = ElementStore.try_from_elements(chunk) if self._batched else None
            self._choose_route(block is not None)
            if self._columnar:
                if block is None:
                    raise InvalidParameterError(
                        f"{self._algorithm.name} session ingests numeric vector "
                        f"rows; got payloads that do not form an (n, d) matrix"
                    )
                _check_dim(block.dim, self._dim)
                self._offer_rows_block(block)
                return
        obs.event(
            "session.offer", algorithm=self._algorithm.name, count=len(chunk)
        )
        with self._stream_timer.measure():
            self._track_uids(chunk)
            if self._ladder is None:
                self._pending.extend(chunk)
                if len(self._pending) >= self._algorithm.warmup_size:
                    self._activate_from_pending()
            elif self._batched:
                self._pending.extend(chunk)
                self._drain(final=False)
            else:
                self._algorithm._ingest_elements(
                    chunk, self._blind, self._specific, self._stats
                )

    def _offer_rows_block(self, block: ElementStore) -> None:
        """Columnar route: buffer ``block`` and drain every whole chunk."""
        count = len(block)
        obs.event("session.offer", algorithm=self._algorithm.name, count=count)
        with self._stream_timer.measure():
            if self._dim is None:
                self._dim = block.dim
            self._advance(count, int(block.uids.max()))
            self._pending.push(block)
            if self._ladder is None:
                if len(self._pending) >= self._algorithm.warmup_size:
                    self._activate_from_pending()
            else:
                self._drain(final=False)
            self._pending.settle()

    def _activate(self, bounds) -> None:
        """Build the guess ladder and its candidates for ``bounds``."""
        self._ladder = self._algorithm._build_ladder(bounds)
        self._blind, self._specific = self._algorithm._make_candidates(
            self._ladder, self._counting
        )
        if self._batched:
            self._stats.extra["batch_size"] = float(self._algorithm.batch_size)

    def _activate_from_pending(self) -> None:
        """Estimate bounds from the buffered warmup and start ingesting.

        Mirrors :meth:`StreamingAlgorithm._resolve_bounds`: the estimate is
        computed on the first ``warmup_size`` buffered elements (all of
        them, when the session is finalised early) and widened by the same
        factor; a single-element stream gets the trivial bounds.
        """
        if not len(self._pending):
            raise EmptyStreamError(
                f"{self._algorithm.name} session received no elements"
            )
        if len(self._pending) == 1:
            self._activate((1.0, 1.0))
        else:
            size = self._algorithm.warmup_size
            if self._columnar:
                warmup = self._pending.peek(min(size, len(self._pending))).elements()
            else:
                warmup = self._pending[:size]
            d_min, d_max = exact_distance_bounds(warmup, self._counting)
            self._activate((d_min / 4.0, d_max * 4.0))
        self._drain(final=False)

    def _drain(self, final: bool) -> None:
        """Move pending elements into the candidates.

        In scalar mode everything drains immediately.  In batch mode only
        whole ``batch_size`` chunks drain — the remainder stays pending so
        chunk boundaries always align with the stream start, exactly like
        the one-shot run's chunking — unless ``final`` forces the trailing
        partial chunk out (done only on query snapshots, never on the live
        session).
        """
        if not self._batched:
            if self._pending:
                chunk, self._pending = self._pending, []
                self._algorithm._ingest_elements(
                    chunk, self._blind, self._specific, self._stats
                )
            return
        size = self._algorithm.batch_size
        while len(self._pending) >= size or (final and len(self._pending)):
            count = min(size, len(self._pending))
            if self._columnar:
                self._ingest_rows(self._pending.take(count))
            else:
                chunk = self._pending[:count]
                del self._pending[:count]
                self._algorithm._ingest_object_chunk(
                    chunk, self._blind, self._specific, self._stats
                )

    def _ingest_rows(self, chunk: ElementStore) -> None:
        """One whole chunk through the columnar engine's per-chunk body."""
        count = len(chunk)
        start = self._stats.elements_processed
        self._stats.elements_processed += count
        if self._screens is None:
            self._screens = self._algorithm._make_screens(self._blind, self._specific)
        if self._screens.exhausted:
            return
        with obs.span("ingest.chunk", start=start, size=count):
            self._screens.offer(
                self._counting,
                chunk,
                np.arange(count, dtype=np.int64),
                chunk.features,
                chunk.groups,
                detach=True,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def solution(self) -> RunResult:
        """The best solution over everything offered so far, as a RunResult.

        The extraction runs on a deep-copied snapshot of the session, so
        the live state is untouched: pending batch chunks are flushed only
        inside the snapshot, and post-processing distance evaluations are
        charged to the snapshot's counters.  Querying is therefore free of
        side effects — a session queried a thousand times mid-stream ends
        with exactly the accounting of one that was never queried.

        Raises
        ------
        EmptyStreamError
            If nothing was offered yet.
        NoFeasibleSolutionError
            If no (fair) solution can be built from the current state.
        """
        if self._offered == 0:
            raise EmptyStreamError(
                f"{self._algorithm.name} session received no elements"
            )
        with obs.span(
            "session.solution",
            algorithm=self._algorithm.name,
            offered=self._offered,
        ):
            snapshot = copy.deepcopy(self)
            return snapshot._finalize()

    def _finalize(self) -> RunResult:
        """Flush, extract, and package the result (runs on a snapshot)."""
        if self._ladder is None:
            self._activate_from_pending()
        self._drain(final=True)
        stream_calls = self._counting.calls

        timer = Timer()
        with timer.measure():
            best, extract_stats = self._algorithm._extract(
                self._ladder, self._blind, self._specific, self._counting
            )
        stored = len(self._algorithm._stored_elements(self._blind, self._specific))
        stats = self._stats
        stats.extra["num_guesses"] = len(self._ladder)
        stats.extra.update(extract_stats)
        stats.stream_seconds = self._stream_seconds
        stats.postprocess_seconds = timer.elapsed
        stats.stream_distance_computations = stream_calls
        stats.postprocess_distance_computations = self._counting.calls - stream_calls
        stats.record_stored(stored)
        stats.publish(self._algorithm.name)

        if best is None:
            raise NoFeasibleSolutionError(self._algorithm._infeasible_message())
        return RunResult(
            algorithm=self._algorithm.name,
            solution=best,
            stats=stats,
            params=self._algorithm._run_params(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.is_active else "warming up"
        return (
            f"StreamingSession({self._algorithm.name}, offered={self._offered}, "
            f"{state}, pending={len(self._pending)})"
        )


class WindowSession(SessionBase):
    """Session wrapper around a windowed algorithm.

    Drives any algorithm of the windowing layer — the incremental
    :class:`~repro.windowing.sliding.SlidingWindowFDM` or the
    block-summary baseline
    :class:`~repro.windowing.checkpointed.CheckpointedWindowFDM` — which
    are already incremental (``process`` / ``solution``); this wrapper
    gives them the same surface as :class:`StreamingSession` — ``offer`` /
    ``offer_batch`` / ``offer_rows``, RunResult-producing
    :meth:`solution`, and checkpoint/resume — so servers can treat every
    session-capable algorithm uniformly.
    """

    def __init__(self, algorithm: Any, trace: Any = None) -> None:
        super().__init__(trace=trace)
        required_attrs = (
            "process",
            "solution",
            "stored_elements",
            "window",
            "blocks",
            "constraint",
        )
        for required in required_attrs:
            if not hasattr(algorithm, required):
                raise InvalidParameterError(
                    f"WindowSession drives windowed algorithms exposing "
                    f"{'/'.join(required_attrs)}; "
                    f"{type(algorithm).__name__} lacks {required!r}"
                )
        self._algorithm = algorithm
        self._stats = StreamStats()
        #: Distance evaluations spent inside queries so far (lets repeated
        #: queries split stream vs postprocess accounting correctly when
        #: the algorithm's metric is a counting wrapper).
        self._query_calls = 0

    @property
    def algorithm_name(self) -> str:
        """Name of the wrapped algorithm."""
        return getattr(self._algorithm, "name", type(self._algorithm).__name__)

    @property
    def _counting(self):
        """The algorithm's counting metric, or ``None`` if it has none."""
        metric = getattr(self._algorithm, "metric", None)
        return metric if isinstance(metric, CountingMetric) else None

    def _offer_many(self, chunk: List[Element]) -> None:
        obs.event(
            "session.offer", algorithm=self.algorithm_name, count=len(chunk)
        )
        with self._stream_timer.measure():
            self._track_uids(chunk)
            for element in chunk:
                self._algorithm.process(element)
                self._stats.elements_processed += 1
                self._stats.record_stored(self._algorithm.stored_elements)

    def solution(self) -> RunResult:
        """The current windowed solution as a RunResult.

        Unlike :class:`StreamingSession` this never raises on infeasibility:
        the windowed extractor reports ``solution=None`` (``succeeded`` is
        ``False``) when the live window cannot satisfy the quotas, matching
        the one-shot ``WindowFDM`` runner's behaviour.
        """
        if self._offered == 0:
            raise EmptyStreamError(
                f"{self.algorithm_name} session received no elements"
            )
        counting = self._counting
        calls_before = counting.calls if counting is not None else 0
        timer = Timer()
        with obs.span(
            "session.solution",
            algorithm=self.algorithm_name,
            offered=self._offered,
        ), timer.measure():
            solution = self._algorithm.solution()
        stats = copy.copy(self._stats)
        stats.extra = dict(self._stats.extra)
        stats.stream_seconds = self._stream_seconds
        stats.postprocess_seconds = timer.elapsed
        if counting is not None:
            query_cost = counting.calls - calls_before
            stats.stream_distance_computations = calls_before - self._query_calls
            stats.postprocess_distance_computations = query_cost
            self._query_calls += query_cost
        stats.publish(self.algorithm_name)
        return RunResult(
            algorithm=self.algorithm_name,
            solution=solution,
            stats=stats,
            params={
                "k": self._algorithm.constraint.total_size,
                "window": self._algorithm.window,
                "blocks": self._algorithm.blocks,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowSession({self.algorithm_name}, window={self._algorithm.window}, "
            f"blocks={self._algorithm.blocks}, offered={self._offered})"
        )
