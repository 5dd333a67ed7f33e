"""Fixed-radius neighbor search over the geometric components of a cloud.

The index wraps a sliding-midpoint k-d tree (Maneewongvatana and Mount,
1999: each cell is split at its midpoint, slid to the nearest point when one
side would be empty) but owns the boundary semantics: a neighborhood is the
set of points at strict L2 distance < r from the query, and the query point
always belongs to its own neighborhood. The tree is used only to produce
candidates (queried with a slightly inflated radius); the strict test is
re-evaluated here with plain float64 arithmetic. The squared distance is
summed one axis at a time, x then y then z, which is the order in which a
linear scan's ``(d**2).sum(axis=1)`` sums it, so every distance equals the
scan's bit for bit. That makes results exact: ties at exactly r are excluded
by both this index and any brute-force check.

The pair set is therefore fixed by the data and the radius alone, but the
order in which the pairs come out follows the tree's layout. Saliency sums
each neighborhood in pair order, so the last ulp of a centroid, and thus of
the color field, follows the tree too.

The neighbor graph stores its pairs column-major: the (m, 2) ``pairs`` array
is the transpose of a C-contiguous (2, m) buffer, so each column is one
contiguous run, and the indices are int32 whenever the cloud's indices fit
(8 bytes per pair). The buffer is filled block by block while each block of
the tree's candidate pairs is rechecked, then the tree's buffer is freed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import ColoredPointCloud
from .errors import EmptyCloudError, InvalidParamsError

# Candidate radius inflation; guards against last-ulp disagreement between the
# tree's internal metric and the strict test below.
_CANDIDATE_SLACK = 1.0 + 1e-9
# Pairs rechecked per block in neighbor_graph: a block's temporaries (64 KiB
# each) stay in cache. Re-measured with the int32 columns on a 99k-point
# room's 2.4M pairs: 8,192 and 16,384 pairs per block tie (about 46 ms with
# the column fill), 4,096 is slower, one pass over all pairs takes 2.2x longer.
_RECHECK_BLOCK = 1 << 13


@dataclass(frozen=True)
class NeighborGraph:
    """Strict-radius adjacency: unordered index pairs (i < j) within radius.

    Every point is implicitly its own neighbor; the pairs carry only the
    distinct-point edges. pairs is (m, 2) with rows i < j in the tree's
    query order, stored column-major (pairs.T is C-contiguous) as int32,
    8 bytes per pair; int64 only when n_points exceeds the int32 range.
    Read the columns as ``first, second = graph.pairs.T``.
    """

    n_points: int
    pairs: np.ndarray  # (m, 2), each row i < j; each column contiguous


class SpatialIndex:
    """Immutable k-d tree over a cloud's geometry; safe for concurrent queries."""

    def __init__(self, cloud: ColoredPointCloud):
        if len(cloud) == 0:
            raise EmptyCloudError("cannot index an empty cloud")
        self._xyz = cloud.xyz
        # Sliding-midpoint splits instead of median partitioning: on a
        # 99k-point room at r=0.04 (2.4M pairs), build plus query_pairs take
        # about 0.75x the balanced tree's time.
        self._tree = cKDTree(self._xyz, balanced_tree=False, compact_nodes=False)
        # Contiguous per-axis columns: the strict test gathers one axis at a time.
        self._columns = tuple(np.ascontiguousarray(self._xyz[:, axis]) for axis in range(3))

    def __len__(self) -> int:
        return self._xyz.shape[0]

    def neighbor_graph(self, radius: float) -> NeighborGraph:
        """All strict-radius neighbor pairs; the one neighborhood query."""
        if not (0 < radius < np.inf):
            raise InvalidParamsError(f"radius must be finite and > 0, got {radius}")
        candidates = self._tree.query_pairs(radius * _CANDIDATE_SLACK, output_type="ndarray")
        narrow = len(self) - 1 <= np.iinfo(np.int32).max
        columns = np.empty((2, len(candidates)), dtype=np.int32 if narrow else np.int64)
        keep = np.empty(len(candidates), dtype=bool)
        for start in range(0, len(candidates), _RECHECK_BLOCK):
            block = slice(start, start + _RECHECK_BLOCK)
            first, second = candidates[block, 0], candidates[block, 1]
            columns[0, block] = first
            columns[1, block] = second
            keep[block] = self._strictly_within(first, second, radius)
        del candidates
        if not keep.all():
            columns = np.compress(keep, columns, axis=1)
        return NeighborGraph(len(self), columns.T)

    def _strictly_within(self, first, second, radius: float) -> np.ndarray:
        """Mask of ||g_first - g_second||2 < radius, elementwise over the index arrays.

        The squares are added x, then y, then z into one array, the linear
        scan's order, with no (m, 3) temporary.
        """
        d2 = np.zeros(len(first))
        for column in self._columns:
            diff = column[first]
            diff -= column[second]
            diff *= diff
            d2 += diff
        return d2 < radius * radius


def build_index(cloud: ColoredPointCloud) -> SpatialIndex:
    """Build an index over all points of a non-empty cloud."""
    return SpatialIndex(cloud)
