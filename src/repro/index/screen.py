"""Indexed chunk screen for the streaming candidate ladder.

:class:`IndexedScreen` drops into the columnar ingestion loop wherever
:class:`repro.core.base._UnionScreen` is used (the ``index=`` option on a
streaming algorithm routes construction through
``StreamingAlgorithm._make_screen``).  It keeps the union layout, the
version-keyed rebuilds, and the per-level column reductions of the parent
— only the distance matrix itself changes: instead of one dense
``pairwise(chunk, union)`` kernel, a :class:`~repro.index.tree.SpatialIndex`
over the union members computes exact distances only where the guess
ladder could read them.

*Why the decisions cannot change.*  Each union member's **radius** is the
largest ``mu`` of any candidate that stores it.  The tree prunes a
``(chunk element, subtree)`` pair only when the element's lower bound to
the subtree reaches the subtree's radius maximum, so every omitted
entry's true distance is at least the ``mu`` of every level containing
its member — the ``min >= mu`` screen of each level is decided purely by
the entries that were computed, and those are evaluated by the very same
elementwise kernels as the brute matrix.  The differential suite
(``tests/property/test_index_equivalence.py``) pins this bit-for-bit.

*Why the counts can only drop.*  The brute screen charges every level's
full ``chunk × members`` cost through
:meth:`~repro.metrics.cached.CountingMetric.charge`; the indexed screen
never charges nominal work — the counter sees exactly the leaf kernels
that ran, which total at most ``chunk × union`` even with zero pruning
(the union is ~3x smaller than the per-level member sum on the SFDM
ladders) and shrink further as subtrees prune.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import _UnionScreen
from repro.core.candidate import Candidate
from repro.index.tree import SpatialIndex
from repro.metrics.base import Metric


class IndexedScreen(_UnionScreen):
    """A :class:`_UnionScreen` whose distance matrix is tree-pruned.

    Parameters
    ----------
    candidates:
        The not-yet-full candidates this screen serves, exactly as for the
        parent class.
    kind:
        Tree kind, ``"kd"`` or ``"ball"``.
    """

    __slots__ = ("kind", "_radii", "_tree", "_node_max")

    def __init__(self, candidates: List[Candidate], kind: str = "kd") -> None:
        super().__init__(candidates)
        self.kind = kind
        self._radii: Optional[np.ndarray] = None
        self._tree: Optional[SpatialIndex] = None
        self._node_max: Optional[np.ndarray] = None

    def _rebuild(self) -> None:
        """Recompute the union layout, per-member radii, and drop the tree.

        The tree itself is rebuilt lazily on the next
        :meth:`_screen_distances` call (which has the metric in hand);
        rebuilds only happen when some candidate accepted an element or
        reached capacity, which is rare after the warm-up chunks.
        """
        super()._rebuild()
        self._tree = None
        self._node_max = None
        self._radii = None
        if self._union_matrix is None:
            return
        radii = np.zeros(self._union_matrix.shape[0], dtype=float)
        for candidate, columns in zip(self.candidates, self._member_columns):
            if columns is not None:
                np.maximum.at(radii, columns, candidate.mu)
        self._radii = radii

    def _screen_distances(self, metric: Metric, vectors: np.ndarray) -> np.ndarray:
        """Tree-pruned chunk-vs-union distances (columns in tree order).

        On the first chunk after a rebuild the tree is constructed over
        the union member rows and ``_member_columns`` is permuted into
        tree order so the parent's column reductions keep lining up with
        the matrix.  Omitted entries stay ``+inf``; see the module
        docstring for why that cannot flip a screen decision.
        """
        if self._tree is None:
            size = self._union_matrix.shape[0]
            self._tree = SpatialIndex(self._union_matrix, metric, kind=self.kind)
            inverse = np.empty(size, dtype=np.intp)
            inverse[self._tree.perm] = np.arange(size, dtype=np.intp)
            self._member_columns = [
                None if columns is None else inverse[columns]
                for columns in self._member_columns
            ]
            self._node_max = self._tree.node_maxes(self._radii)
        return self._tree.screen_distances(vectors, self._node_max, metric)
