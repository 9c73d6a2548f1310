"""Seeded randomized oracle tests for the brute-force screens.

The union screen (:class:`repro.core.base._UnionScreen`) is the only
screen of the columnar engine: every guess level's candidate is screened
against one shared distance matrix over the *union* of the members, and
each candidate then resolves its own survivors.  It must agree exactly
with two oracles built from the candidates' own update rules:

* per-candidate :meth:`~repro.core.candidate.Candidate.offer_batch` over
  the same chunks — identical members, in the same order, and the same
  :class:`~repro.metrics.cached.CountingMetric` total (the memoised union
  kernel still charges every level's screen in full);
* element-at-a-time :meth:`~repro.core.candidate.Candidate.offer` — the
  paper's rule — identical members for any chunking.

The grid covers dimensions 1 through 16, every vector metric with batch
kernels, and chunk sizes from one row to a chunk larger than the capacity
of every candidate.  The group-aware wrapper
(:class:`repro.core.base._LadderScreens`) and the farthest-point greedy's
three selection paths are pinned the same way.
"""

import numpy as np
import pytest

from repro.baselines.gmm import gmm_elements
from repro.core.base import _LadderScreens, _UnionScreen
from repro.core.candidate import Candidate
from repro.data.store import ElementStore
from repro.metrics.base import CallableMetric
from repro.metrics.cached import CountingMetric
from repro.metrics.vector import (
    AngularMetric,
    ChebyshevMetric,
    CosineDistanceMetric,
    EuclideanMetric,
    ManhattanMetric,
    MinkowskiMetric,
)

METRICS = [
    EuclideanMetric(),
    ManhattanMetric(),
    ChebyshevMetric(),
    MinkowskiMetric(3),
    AngularMetric(),
    CosineDistanceMetric(),
]
DIMS = (1, 2, 5, 16)
CHUNKS = (1, 17, 64)

N = 150
CAPACITY = 6
LEVELS = 7


def _cloud(seed: int, n: int, dim: int) -> np.ndarray:
    """A reproducible point cloud with a third of its rows duplicated.

    Repeated rows put zero distances into every screen, so the union's
    shared member columns and the ``>= mu`` comparison both see them.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, dim))
    source = rng.integers(0, n, size=n // 3)
    target = rng.integers(0, n, size=n // 3)
    matrix[target] = matrix[source]
    return matrix


def _store(metric, dim: int, num_groups: int = 2) -> ElementStore:
    seed = 1000 * dim + METRICS.index(metric)
    matrix = _cloud(seed, N, dim)
    groups = np.random.default_rng(seed + 1).integers(0, num_groups, size=N)
    return ElementStore(matrix, groups)


def _mus(metric, store: ElementStore) -> np.ndarray:
    """Guess levels spanning the data's distance scale.

    The smallest levels fill up within the first chunks (and leave the
    screen), the largest accept only a few members — both regimes of the
    ladder are exercised.
    """
    sample = metric.pairwise(store.features[:40])
    positive = sample[sample > 0]
    scale = float(np.median(positive)) if positive.size else 1.0
    return scale * np.geomspace(0.05, 2.0, LEVELS)


def _ladder(metric, mus, group=None):
    return [Candidate(mu, CAPACITY, metric, group=group) for mu in mus]


def _members(candidates):
    return [[element.uid for element in candidate] for candidate in candidates]


def _chunks(n: int, size: int):
    for start in range(0, n, size):
        yield np.arange(start, min(start + size, n))


def _run_union_screen(metric, store, mus, chunk):
    counting = CountingMetric(metric)
    candidates = _ladder(counting, mus)
    screen = _UnionScreen(list(candidates))
    for rows in _chunks(len(store), chunk):
        if screen.exhausted:
            break
        screen.process(counting, rows, store.features[rows], store.element)
    return candidates, counting.calls


def _run_offer_batch(metric, store, mus, chunk):
    counting = CountingMetric(metric)
    candidates = _ladder(counting, mus)
    elements = store.elements()
    for rows in _chunks(len(store), chunk):
        if all(candidate.is_full for candidate in candidates):
            break
        chunk_elements = [elements[row] for row in rows]
        for candidate in candidates:
            candidate.offer_batch(chunk_elements, store.features[rows])
    return candidates, counting.calls


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
class TestUnionScreenOracles:
    def test_members_match_per_candidate_offer_batch(self, metric, dim, chunk):
        store = _store(metric, dim)
        mus = _mus(metric, store)
        union, _ = _run_union_screen(metric, store, mus, chunk)
        reference, _ = _run_offer_batch(metric, store, mus, chunk)
        assert _members(union) == _members(reference)
        # The ladder is non-trivial: some level accepted more than one
        # element, and the members respect each level's threshold.
        assert max(len(candidate) for candidate in union) > 1
        for candidate in union:
            if len(candidate) > 1:
                assert candidate.diversity() >= candidate.mu

    def test_members_match_element_at_a_time_offer(self, metric, dim, chunk):
        store = _store(metric, dim)
        mus = _mus(metric, store)
        union, _ = _run_union_screen(metric, store, mus, chunk)
        reference = _ladder(metric, mus)
        for element in store.iter_elements():
            for candidate in reference:
                candidate.offer(element)
        assert _members(union) == _members(reference)

    def test_charges_every_level_in_full(self, metric, dim, chunk):
        store = _store(metric, dim)
        mus = _mus(metric, store)
        _, union_calls = _run_union_screen(metric, store, mus, chunk)
        _, reference_calls = _run_offer_batch(metric, store, mus, chunk)
        assert union_calls == reference_calls
        assert union_calls > 0


@pytest.mark.parametrize("metric", METRICS[:4], ids=lambda m: m.name)
def test_distance_exactly_mu_is_accepted(metric):
    """The screen keeps ``d(x, S) >= mu`` (the paper's rule), ties included.

    On a unit-spaced lattice every Minkowski distance to the nearest
    member is exactly ``1.0``, so a strict comparison would reject rows
    that :meth:`Candidate.offer` accepts.
    """
    store = ElementStore(np.arange(8.0).reshape(-1, 1), np.zeros(8, dtype=np.int64))
    candidates = _ladder(metric, [1.0])
    screen = _UnionScreen(list(candidates))
    for rows in (np.arange(1), np.arange(1, 4), np.arange(4, 8)):
        screen.process(metric, rows, store.features[rows], store.element)
    reference = _ladder(metric, [1.0])
    for element in store.iter_elements():
        reference[0].offer(element)
    assert _members(candidates) == _members(reference) == [list(range(CAPACITY))]


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
def test_shared_members_are_evaluated_once(metric):
    """The union kernel evaluates each shared member column once per chunk."""
    store = _store(metric, dim=2)
    mus = _mus(metric, store)
    candidates = _ladder(metric, mus)
    screen = _UnionScreen(list(candidates))
    # Warm up the ladder: the first row is accepted by every level.
    screen.process(metric, np.arange(1), store.features[:1], store.element)
    assert all(len(candidate) == 1 for candidate in candidates)

    class Recording:
        """Forwards ``pairwise`` and records its column count."""

        def __init__(self, inner):
            self.inner = inner
            self.columns = []

        def pairwise(self, X, Y=None):
            self.columns.append(np.shape(Y)[0])
            return self.inner.pairwise(X, Y)

    recording = Recording(metric)
    rows = np.arange(1, 20)
    screen.process(recording, rows, store.features[rows], store.element)
    # Seven levels share their single member: one column, not seven.
    assert recording.columns == [1]


@pytest.mark.parametrize("detach", [False, True], ids=["views", "detached"])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
def test_ladder_screens_match_per_group_offer_batch(metric, detach):
    """Group-specific screens see only their group's rows, and drain when full."""
    store = _store(metric, dim=3, num_groups=3)
    mus = _mus(metric, store)
    blind = _ladder(metric, mus)
    specific = {group: _ladder(metric, mus, group=group) for group in range(3)}
    screens = _LadderScreens(
        _UnionScreen(list(blind)),
        {group: _UnionScreen(list(candidates)) for group, candidates in specific.items()},
    )
    reference_blind = _ladder(metric, mus)
    reference_specific = {group: _ladder(metric, mus, group=group) for group in range(3)}
    elements = store.elements()
    for rows in _chunks(len(store), 32):
        screens.offer(
            metric, store, rows, store.features[rows], store.groups[rows], detach=detach
        )
        chunk_elements = [elements[row] for row in rows]
        for candidate in reference_blind:
            candidate.offer_batch(chunk_elements, store.features[rows])
        for group, candidates in reference_specific.items():
            mine = [element for element in chunk_elements if element.group == group]
            for candidate in candidates:
                candidate.offer_batch(mine)

    assert _members(blind) == _members(reference_blind)
    for group in range(3):
        assert _members(specific[group]) == _members(reference_specific[group])
        assert all(element.group == group for c in specific[group] for element in c)
        # A group whose every level filled up has left the screen.
        if all(candidate.is_full for candidate in specific[group]):
            assert group not in screens.groups
        else:
            assert group in screens.groups

    accepted = [element for c in blind for element in c]
    if detach:
        # Standalone copies, one per accepted row, shared across levels.
        assert all(element.store is None for element in accepted)
        by_uid = {}
        for element in accepted:
            assert by_uid.setdefault(element.uid, element) is element
    else:
        assert all(element.store is store for element in accepted)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
def test_farthest_point_paths_select_identically(metric, dim):
    """The store, element-batch and scalar greedy pick the same sequence.

    The store and element-batch paths also charge identically: both
    update the nearest-to-selection array with one ``distances_to`` per
    selected element.
    """
    store = _store(metric, dim)
    columnar_metric = CountingMetric(metric)
    batched_metric = CountingMetric(metric)
    scalar_metric = CallableMetric(metric.distance, name=f"scalar-{metric.name}")
    assert not scalar_metric.supports_batch

    columnar = gmm_elements(store, columnar_metric, k=12, start_index=3)
    batched = gmm_elements(store.elements(), batched_metric, k=12, start_index=3)
    scalar = gmm_elements(store.elements(), scalar_metric, k=12, start_index=3)
    uids = [element.uid for element in columnar]
    assert uids == [element.uid for element in batched]
    assert uids == [element.uid for element in scalar]
    assert uids[0] == 3
    assert len(set(uids)) == len(uids)
    assert columnar_metric.calls == batched_metric.calls

    restricted = gmm_elements(store, metric, k=5, restrict_group=1)
    assert all(element.group == 1 for element in restricted)
    assert [element.uid for element in restricted] == [
        element.uid
        for element in gmm_elements(store.elements(), scalar_metric, k=5, restrict_group=1)
    ]
