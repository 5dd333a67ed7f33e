"""Fixed-radius neighbor search over the geometric components of a cloud.

The index wraps a balanced k-d tree but owns the boundary semantics: a
neighborhood is the set of points at strict L2 distance < r from the query,
and the query point always belongs to its own neighborhood. The tree is used
only to produce candidates (queried with a slightly inflated radius); the
strict test is re-evaluated here with plain float64 arithmetic, elementwise
identical to a linear scan. That makes results exact: ties at exactly r are
excluded by both this index and any brute-force check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import ColoredPointCloud, require_finite
from .errors import EmptyCloudError, IndexOutOfRangeError, NonPositiveRadiusError

# Candidate radius inflation; guards against last-ulp disagreement between the
# tree's internal metric and the strict test below.
_CANDIDATE_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class NeighborGraph:
    """Strict-radius adjacency: unordered index pairs (i < j) within radius.

    Every point is implicitly its own neighbor; the pairs carry only the
    distinct-point edges, 16 bytes each.
    """

    n_points: int
    radius: float
    pairs: np.ndarray  # (m, 2) int64, each row i < j

    def counts(self) -> np.ndarray:
        """Neighborhood sizes including the point itself."""
        counts = np.ones(self.n_points, dtype=np.int64)
        counts += np.bincount(self.pairs[:, 0], minlength=self.n_points)
        counts += np.bincount(self.pairs[:, 1], minlength=self.n_points)
        return counts


class SpatialIndex:
    """Immutable k-d tree over a cloud's geometry; safe for concurrent queries."""

    def __init__(self, cloud: ColoredPointCloud):
        if len(cloud) == 0:
            raise EmptyCloudError("cannot index an empty cloud")
        require_finite(cloud.xyz, "coordinates")
        self._xyz = cloud.xyz
        self._tree = cKDTree(self._xyz)

    def __len__(self) -> int:
        return self._xyz.shape[0]

    def radius_neighbors(self, query_index: int, radius: float) -> np.ndarray:
        """Indices j with ||g_q - g_j||2 strictly < radius, ascending.

        The query point itself is always included (its distance is 0).
        """
        if not (radius > 0):
            raise NonPositiveRadiusError(f"radius must be > 0, got {radius}")
        n = len(self)
        if not 0 <= query_index < n:
            raise IndexOutOfRangeError(f"query index {query_index} not in [0, {n})")
        candidates = np.asarray(
            self._tree.query_ball_point(
                self._xyz[query_index], radius * _CANDIDATE_SLACK, return_sorted=True
            ),
            dtype=np.int64,
        )
        diffs = self._xyz[candidates] - self._xyz[query_index]
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        return candidates[d2 < radius * radius]

    def neighbor_graph(self, radius: float) -> NeighborGraph:
        """All strict-radius neighbor pairs at once; the bulk-query primitive."""
        if not (radius > 0):
            raise NonPositiveRadiusError(f"radius must be > 0, got {radius}")
        pairs = self._tree.query_pairs(radius * _CANDIDATE_SLACK, output_type="ndarray")
        pairs = pairs.astype(np.int64, copy=False)
        diffs = self._xyz[pairs[:, 0]] - self._xyz[pairs[:, 1]]
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        keep = d2 < radius * radius
        return NeighborGraph(len(self), radius, pairs[keep])


def build_index(cloud: ColoredPointCloud) -> SpatialIndex:
    """Build an index over all points of a non-empty cloud.

    Raises NonFiniteValueError when a coordinate is NaN or infinite.
    """
    return SpatialIndex(cloud)
