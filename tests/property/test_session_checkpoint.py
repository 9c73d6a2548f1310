"""Property: ``checkpoint -> resume -> continue`` == an uninterrupted run.

For every session-capable streaming algorithm (SFDM1, SFDM2, StreamingDM),
several stream seeds, and several cut points — including one in the middle
of the warmup buffer and, for the batch mode, one in the middle of a chunk —
interrupting a session with a checkpoint and resuming it from disk must
yield the byte-identical final solution (same uids, bit-equal diversity)
and equal distance counts as a session that was never interrupted, which in
turn matches the one-shot ``run()`` over the same element order.
"""

import pytest

import repro
from repro.core.sfdm1 import SFDM1
from repro.core.sfdm2 import SFDM2
from repro.core.streaming_dm import StreamingDiversityMaximization
from repro.data.store import ElementStore
from repro.datasets.synthetic import synthetic_blobs

K = 6
SEEDS = (3, 11)
#: Cut points: mid-warmup, just past warmup, and deep into the stream.
CUTS = (40, 70, 201)


def _algorithm(name, dataset, constraint, batch_size=None):
    if name == "SFDM1":
        return SFDM1(
            metric=dataset.metric, constraint=constraint, batch_size=batch_size
        )
    if name == "SFDM2":
        return SFDM2(
            metric=dataset.metric, constraint=constraint, batch_size=batch_size
        )
    return StreamingDiversityMaximization(
        metric=dataset.metric, k=K, batch_size=batch_size
    )


def _fingerprint(result):
    return (
        [element.uid for element in result.solution.elements],
        result.solution.diversity,
        result.stats.total_distance_computations,
        result.stats.stream_distance_computations,
        result.stats.elements_processed,
    )


@pytest.fixture(scope="module")
def dataset():
    return synthetic_blobs(n=320, m=2, seed=17)


@pytest.fixture(scope="module")
def constraint(dataset):
    return repro.equal_representation(K, list(dataset.group_sizes().keys()))


@pytest.mark.parametrize("name", ("SFDM1", "SFDM2", "StreamingDM"))
@pytest.mark.parametrize("seed", SEEDS)
def test_checkpoint_resume_continue_is_byte_identical(
    name, seed, dataset, constraint, tmp_path
):
    elements = list(dataset.stream(seed=seed))

    uninterrupted = repro.StreamingSession(_algorithm(name, dataset, constraint))
    uninterrupted.offer_batch(elements)
    reference = _fingerprint(uninterrupted.solution())

    # the one-shot run over the same order agrees with the session
    one_shot = _algorithm(name, dataset, constraint).run(dataset.stream(seed=seed))
    assert _fingerprint(one_shot) == reference

    for cut in CUTS:
        session = repro.StreamingSession(_algorithm(name, dataset, constraint))
        session.offer_batch(elements[:cut])
        path = session.checkpoint(tmp_path / f"{name}-{seed}-{cut}.ckpt")
        restored = repro.resume(path)
        restored.offer_batch(elements[cut:])
        assert _fingerprint(restored.solution()) == reference, (
            f"resume at cut={cut} diverged from the uninterrupted run"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_checkpoint_resume_in_batch_mode(seed, dataset, constraint, tmp_path):
    """Batch ingestion: cuts that split chunks still continue identically."""
    batch_size = 48
    elements = list(dataset.stream(seed=seed))

    uninterrupted = repro.StreamingSession(
        _algorithm("SFDM2", dataset, constraint, batch_size=batch_size)
    )
    uninterrupted.offer_batch(elements)
    reference = _fingerprint(uninterrupted.solution())

    one_shot = _algorithm("SFDM2", dataset, constraint, batch_size=batch_size).run(
        dataset.stream(seed=seed)
    )
    assert _fingerprint(one_shot) == reference

    for cut in (70, 119):  # past warmup; 119 splits a 48-element chunk
        session = repro.StreamingSession(
            _algorithm("SFDM2", dataset, constraint, batch_size=batch_size)
        )
        session.offer_batch(elements[:cut])
        session.solution()  # a mid-stream query must not disturb the continuation
        path = session.checkpoint(tmp_path / f"batch-{seed}-{cut}.ckpt")
        restored = repro.resume(path)
        restored.offer_batch(elements[cut:])
        assert _fingerprint(restored.solution()) == reference

    # offer_rows in varied chunkings equals the one-shot run over the store
    store = ElementStore.from_elements(elements)
    rows_reference = _fingerprint(
        _algorithm("SFDM2", dataset, constraint, batch_size=batch_size).run(store)
    )
    assert rows_reference == reference
    n = len(store)
    one_row = [1] * n
    # cumulative 30, 70, 97, 147, 148, 243, 320: straddles the 64-row
    # warmup and the 48-row chunk boundaries at 96, 144, 192, 240 and 288
    straddling = [30, 40, 27, 50, 1, 95, 77]
    assert sum(straddling) == n
    for sizes, interrupted in (
        (one_row, False),
        (straddling, False),
        ([37] * (n // 37) + [n % 37], True),
    ):
        session = repro.StreamingSession(
            _algorithm("SFDM2", dataset, constraint, batch_size=batch_size)
        )
        start = 0
        for index, size in enumerate(sizes):
            stop = start + size
            session.offer_rows(
                store.features[start:stop],
                groups=store.groups[start:stop],
                uids=store.uids[start:stop],
            )
            start = stop
            if interrupted:  # a query after every offer, one resume cut
                session.solution()
                if index == 4:
                    path = session.checkpoint(tmp_path / f"rows-{seed}.ckpt")
                    session = repro.resume(path)
        assert start == n
        assert _fingerprint(session.solution()) == rows_reference, sizes


@pytest.mark.parametrize("seed", SEEDS)
def test_double_checkpoint_chain(seed, dataset, constraint, tmp_path):
    """Two interruptions in one stream still land on the reference answer."""
    elements = list(dataset.stream(seed=seed))
    uninterrupted = repro.StreamingSession(_algorithm("SFDM2", dataset, constraint))
    uninterrupted.offer_batch(elements)
    reference = _fingerprint(uninterrupted.solution())

    session = repro.StreamingSession(_algorithm("SFDM2", dataset, constraint))
    session.offer_batch(elements[:50])
    session = repro.resume(session.checkpoint(tmp_path / f"first-{seed}.ckpt"))
    session.offer_batch(elements[50:180])
    session = repro.resume(session.checkpoint(tmp_path / f"second-{seed}.ckpt"))
    session.offer_batch(elements[180:])
    assert _fingerprint(session.solution()) == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_window_session_checkpoint_resume(seed, dataset, constraint, tmp_path):
    """The sliding-window session also survives interruption byte-identically."""
    from repro.windowing import CheckpointedWindowFDM

    elements = list(dataset.stream(seed=seed))

    def make():
        return repro.WindowSession(
            CheckpointedWindowFDM(
                metric=dataset.metric, constraint=constraint, window=150, blocks=5
            )
        )

    uninterrupted = make()
    uninterrupted.offer_batch(elements)
    reference = uninterrupted.solution()

    session = make()
    session.offer_batch(elements[:120])
    session = repro.resume(session.checkpoint(tmp_path / f"window-{seed}.ckpt"))
    session.offer_batch(elements[120:])
    result = session.solution()

    assert [e.uid for e in result.solution.elements] == [
        e.uid for e in reference.solution.elements
    ]
    assert result.solution.diversity == reference.solution.diversity
    assert result.stats.peak_stored_elements == reference.stats.peak_stored_elements
