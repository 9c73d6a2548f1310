"""Integration tests for long-lived streaming sessions."""

import numpy as np
import pytest

import repro
from repro.core.sfdm2 import SFDM2
from repro.utils.errors import (
    EmptyStreamError,
    InvalidParameterError,
    NoFeasibleSolutionError,
)


@pytest.fixture(scope="module")
def dataset():
    return repro.synthetic_blobs(n=300, m=2, seed=21)


@pytest.fixture(scope="module")
def constraint(dataset):
    return repro.equal_representation(6, list(dataset.group_sizes().keys()))


def _open(dataset, constraint, **kwargs):
    return repro.open_session(
        constraint=constraint, metric=dataset.metric, algorithm="SFDM2", **kwargs
    )


class TestStreamingSession:
    def test_matches_one_shot_run(self, dataset, constraint):
        direct = SFDM2(metric=dataset.metric, constraint=constraint).run(
            dataset.stream(seed=4)
        )
        session = _open(dataset, constraint)
        for element in dataset.stream(seed=4):
            session.offer(element)
        result = session.solution()
        assert [e.uid for e in result.solution.elements] == [
            e.uid for e in direct.solution.elements
        ]
        assert result.diversity == direct.diversity
        assert (
            result.stats.total_distance_computations
            == direct.stats.total_distance_computations
        )

    def test_queries_are_side_effect_free(self, dataset, constraint):
        queried = _open(dataset, constraint)
        silent = _open(dataset, constraint)
        for position, element in enumerate(dataset.stream(seed=9)):
            queried.offer(element)
            silent.offer(element)
            if position in (40, 150):
                queried.solution()  # mid-stream queries must not change anything
        a, b = queried.solution(), silent.solution()
        assert [e.uid for e in a.solution.elements] == [e.uid for e in b.solution.elements]
        assert (
            a.stats.total_distance_computations == b.stats.total_distance_computations
        )

    def test_repeated_final_queries_agree(self, dataset, constraint):
        session = _open(dataset, constraint)
        session.offer_batch(dataset.stream(seed=2))
        first, second = session.solution(), session.solution()
        assert [e.uid for e in first.solution.elements] == [
            e.uid for e in second.solution.elements
        ]
        assert (
            first.stats.total_distance_computations
            == second.stats.total_distance_computations
        )

    def test_query_during_warmup(self, dataset, constraint):
        session = _open(dataset, constraint)
        for element in list(dataset.stream(seed=1))[:30]:  # below warmup_size
            session.offer(element)
        assert not session.is_active
        result = session.solution()
        assert result.succeeded
        assert not session.is_active  # the query did not seal the warmup

    def test_offer_rows(self, constraint):
        rng = np.random.default_rng(3)
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        session.offer_rows(
            rng.normal(size=(200, 3)), groups=rng.integers(0, 2, size=200)
        )
        assert session.elements_offered == 200
        assert session.solution().solution.is_fair

    @pytest.mark.parametrize("batch_size", (None, 32))
    def test_rejected_offer_rows_leaves_no_trace(self, constraint, batch_size):
        rng = np.random.default_rng(5)
        session = repro.open_session(
            constraint=constraint, algorithm="SFDM2", batch_size=batch_size
        )
        session.offer_rows(
            rng.normal(size=(100, 3)), groups=rng.integers(0, 2, size=100)
        )
        before = session.solution()
        bad_offers = (
            {"features": np.ones((5, 4))},
            {"features": np.ones(2)},
            {"features": np.ones((5, 3)), "groups": [0, 1]},
            {"features": np.ones((5, 3)), "uids": [1, 2, 3]},
        )
        for bad in bad_offers:
            with pytest.raises(InvalidParameterError):
                session.offer_rows(**bad)
            assert session.elements_offered == 100
            after = session.solution()
            assert after.solution.uids == before.solution.uids
            assert after.solution.diversity == before.solution.diversity
            assert (
                after.stats.total_distance_computations
                == before.stats.total_distance_computations
            )

    def test_screens_stay_out_of_snapshots_and_checkpoints(
        self, constraint, tmp_path
    ):
        import pickle

        rng = np.random.default_rng(8)
        rows, groups = rng.normal(size=(400, 3)), rng.integers(0, 2, size=400)
        session = repro.open_session(
            constraint=constraint, algorithm="SFDM2", batch_size=32
        )
        session.offer_rows(rows[:200], groups=groups[:200])
        assert session._screens is not None
        assert pickle.loads(pickle.dumps(session))._screens is None
        restored = repro.resume(session.checkpoint(tmp_path / "s.ckpt"))
        assert restored._screens is None
        for live in (session, restored):
            live.offer_rows(rows[200:], groups=groups[200:])
        assert restored._screens is not None
        assert restored.solution().solution.uids == session.solution().solution.uids

    def test_indexed_checkpoint_without_batch_size_resumes(self, constraint, tmp_path):
        """Checkpoints from releases with the ``index`` option still resume.

        Such a session without ``batch_size`` ran columnar at 128-row
        chunks; its state is rebuilt here from a 128-row session.
        """
        rng = np.random.default_rng(8)
        rows, groups = rng.normal(size=(900, 3)), rng.integers(0, 2, size=900)
        reference = repro.open_session(
            constraint=constraint, algorithm="SFDM2", batch_size=128
        )
        legacy = repro.open_session(
            constraint=constraint, algorithm="SFDM2", batch_size=128
        )
        for live in (reference, legacy):
            live.offer_rows(rows[:400], groups=groups[:400])
        legacy._algorithm.batch_size = None
        legacy._algorithm._index_kind = "kd"
        restored = repro.resume(legacy.checkpoint(tmp_path / "legacy.ckpt"))
        for live in (reference, restored):
            live.offer_rows(rows[400:], groups=groups[400:])
        expected, actual = reference.solution(), restored.solution()
        assert actual.solution.uids == expected.solution.uids
        assert (
            actual.stats.total_distance_computations
            == expected.stats.total_distance_computations
        )

    def test_one_ingest_chunk_span_per_drained_chunk(self, constraint):
        from repro import obs

        rng = np.random.default_rng(4)
        rows, groups = rng.normal(size=(200, 3)), rng.integers(0, 2, size=200)
        session = repro.open_session(
            constraint=constraint, algorithm="SFDM2", batch_size=32
        )
        with obs.tracing("memory") as sink:
            for start in (0, 70, 140):
                session.offer_rows(
                    rows[start:start + 70], groups=groups[start:start + 70]
                )
            chunks = sink.spans("ingest.chunk")
        assert [span["attrs"]["size"] for span in chunks] == [32] * 6
        assert [span["attrs"]["start"] for span in chunks] == list(range(0, 192, 32))

    def test_session_never_pins_the_callers_rows(self, constraint):
        rng = np.random.default_rng(6)
        rows, groups = rng.normal(size=(300, 3)), rng.integers(0, 2, size=300)
        session = repro.open_session(
            constraint=constraint, algorithm="SFDM2", batch_size=32
        )
        for start in range(0, 300, 50):  # leaves 300 % 32 rows pending
            session.offer_rows(rows[start:start + 50], groups=groups[start:start + 50])
        pending = session._pending.peek(len(session._pending))
        assert len(pending) == 300 % 32
        assert not np.shares_memory(pending.features, rows)
        members = [
            element.vector
            for candidate in session._blind
            for element in candidate
        ]
        assert members
        assert not any(np.shares_memory(vector, rows) for vector in members)

    def test_empty_session_raises(self, dataset, constraint):
        with pytest.raises(EmptyStreamError):
            _open(dataset, constraint).solution()

    def test_infeasible_state_raises(self, constraint):
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        session.offer_rows(np.eye(3), groups=[0, 0, 0])  # group 1 never arrives
        with pytest.raises(NoFeasibleSolutionError):
            session.solution()

    def test_unconstrained_session(self):
        session = repro.open_session(k=4, algorithm="StreamingDM")
        session.offer_rows(np.random.default_rng(0).normal(size=(50, 2)))
        result = session.solution()
        assert result.algorithm == "StreamingDM"
        assert result.solution.size == 4

    def test_unconstrained_session_infers_k_from_constraint(self, constraint):
        # an explicit constraint supplies k even when the algorithm itself
        # is unconstrained, mirroring solve()
        session = repro.open_session(constraint=constraint, algorithm="StreamingDM")
        session.offer_rows(np.random.default_rng(1).normal(size=(60, 2)))
        assert session.solution().solution.size == constraint.total_size

    def test_session_spec_with_data_prefeeds(self, dataset, constraint):
        spec = repro.SolveSpec(
            data=dataset, constraint=constraint, algorithm="SFDM2", seed=4
        )
        session = repro.open_session(spec)
        assert session.elements_offered == dataset.size
        direct = SFDM2(metric=dataset.metric, constraint=constraint).run(
            dataset.stream(seed=4)
        )
        result = session.solution()
        assert [e.uid for e in result.solution.elements] == [
            e.uid for e in direct.solution.elements
        ]


class TestWindowSession:
    def test_window_session_tracks_window(self, dataset, constraint):
        session = repro.open_session(
            constraint=constraint,
            metric=dataset.metric,
            algorithm="WindowFDM",
            window=120,
            blocks=4,
        )
        for element in dataset.stream(seed=6):
            session.offer(element)
        result = session.solution()
        assert result.algorithm == "WindowFDM"
        assert result.succeeded and result.solution.is_fair
        assert result.stats.peak_stored_elements < dataset.size

    def test_window_session_requires_window(self, dataset, constraint):
        with pytest.raises(InvalidParameterError, match="window"):
            repro.open_session(
                constraint=constraint, metric=dataset.metric, algorithm="WindowFDM"
            )


class TestOpenSessionValidation:
    def test_non_session_algorithm_rejected(self, constraint):
        with pytest.raises(InvalidParameterError, match="does not support sessions"):
            repro.open_session(constraint=constraint, algorithm="GMM")

    def test_needs_constraint_or_groups(self):
        with pytest.raises(InvalidParameterError, match="groups"):
            repro.open_session(k=6, algorithm="SFDM2")

    def test_groups_build_equal_constraint(self):
        session = repro.open_session(k=6, groups=[0, 1], algorithm="SFDM2")
        rng = np.random.default_rng(8)
        session.offer_rows(rng.normal(size=(120, 2)), groups=rng.integers(0, 2, 120))
        assert session.solution().solution.is_fair

    def test_proportional_without_data_rejected(self):
        with pytest.raises(InvalidParameterError, match="proportional"):
            repro.open_session(
                k=6, groups=[0, 1], algorithm="SFDM2", fairness="proportional"
            )

    def test_resume_rejects_non_checkpoints(self, tmp_path):
        bad = tmp_path / "not-a-checkpoint.pkl"
        import pickle

        bad.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(InvalidParameterError, match="checkpoint"):
            repro.resume(bad)

    def test_offer_rows_shape_validation(self, constraint):
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        with pytest.raises(InvalidParameterError, match="group labels"):
            session.offer_rows(np.eye(3), groups=[0, 1])
        for empty_rows in ([], np.empty((3, 0))):
            with pytest.raises(InvalidParameterError, match="coordinate"):
                session.offer_rows(empty_rows)
        assert session.elements_offered == 0
