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
order in which the pairs come out follows the slabs and the trees' layout.
Saliency sums each neighborhood in pair order, so the last ulp of a
centroid, and thus of the color field, follows that order too.

A cloud of at most 32,768 points is indexed by one tree, and one
``query_pairs`` call returns every candidate. A larger cloud is cut into
equal-width slabs along its longest axis: one slab per 32,768 points, but
fewer when a slab would be narrower than 2.5 candidate radii, so that a pair
can only join two neighboring slabs. Each slab's pairs come from a tree over
that slab alone. The pairs across a cut come from ``sparse_distance_matrix``
between the two bands of points within 2 radii on either side of it (one
radius would do; the rest is margin for rounding). Pairs come out slab by
slab, each slab's own pairs before those across its upper cut, and within a
query in its tree's order.

The slabs bound memory. ``query_pairs`` collects its pairs in a vector that
grows by doubling, 16 bytes per pair. On a 99k-point room (2.45M pairs) one
query briefly holds a 33.5 MB and a 67 MB buffer, both above glibc's 32 MB
mmap threshold cap, so every call maps and faults them afresh. At about 25
pairs per point, a slab of 32,768 points keeps that buffer at or under about
16 MB.

The neighbor graph stores its pairs column-major: the (m, 2) ``pairs`` array
is the transpose of a C-contiguous (2, m) buffer, so each column is one
contiguous run, and the indices are int32 whenever the cloud's indices fit
(8 bytes per pair). The candidates are rechecked block by block and the
pairs kept are written straight into the columns, then the query's buffer
is freed. One tree writes into a buffer sized by its candidate count. Slabs
grow one buffer per column, reallocated for each query, and the second
column is moved behind the first at the end, so no per-slab copy of the
pairs is left behind.
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
# Clouds of more points are queried in slabs of this many points on average
# (see the module docstring).
_SLAB_POINTS = 1 << 15
# Least slab width, in candidate radii: no pair spans a whole slab.
_SLAB_WIDTH = 2.5
# Depth of the band queried on each side of a cut, in candidate radii.
_BAND = 2.0


def _kdtree(xyz: np.ndarray) -> cKDTree:
    # Sliding-midpoint splits instead of median partitioning: on a 99k-point
    # room at r=0.04 (2.4M pairs), build plus query_pairs take about 0.75x
    # the balanced tree's time.
    return cKDTree(xyz, balanced_tree=False, compact_nodes=False)


@dataclass(frozen=True)
class NeighborGraph:
    """Strict-radius adjacency: unordered index pairs (i < j) within radius.

    Every point is implicitly its own neighbor; the pairs carry only the
    distinct-point edges. pairs is (m, 2) with rows i < j in query order
    (slab by slab, then tree order; see the module docstring), stored
    column-major (pairs.T is C-contiguous) as int32, 8 bytes per pair;
    int64 only when n_points exceeds the int32 range.
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
        # A larger cloud is queried slab by slab, with a tree per slab.
        self._tree = _kdtree(self._xyz) if len(cloud) <= _SLAB_POINTS else None
        # Contiguous per-axis columns: the strict test gathers one axis at a time.
        self._columns = tuple(np.ascontiguousarray(self._xyz[:, axis]) for axis in range(3))

    def __len__(self) -> int:
        return self._xyz.shape[0]

    def neighbor_graph(self, radius: float) -> NeighborGraph:
        """All strict-radius neighbor pairs; the one neighborhood query."""
        if not (0 < radius < np.inf):
            raise InvalidParamsError(f"radius must be finite and > 0, got {radius}")
        reach = radius * _CANDIDATE_SLACK
        narrow = len(self) - 1 <= np.iinfo(np.int32).max
        dtype = np.int32 if narrow else np.int64
        if self._tree is not None:
            candidates = self._tree.query_pairs(reach, output_type="ndarray")
            columns = np.empty((2, len(candidates)), dtype=dtype)
            m = self._append_within(candidates, None, radius, *columns, 0)
            del candidates
            if m < columns.shape[1]:
                columns = np.ascontiguousarray(columns[:, :m])
            return NeighborGraph(len(self), columns.T)
        first, second = np.empty(0, dtype=dtype), np.empty(0, dtype=dtype)
        m = 0
        for candidates, ids in self._slab_candidates(reach):
            # resize reallocates, and glibc remaps a large buffer rather
            # than copying it; the new room is zeroed, then overwritten
            for column in (first, second):
                column.resize(m + len(candidates), refcheck=False)
            m = self._append_within(candidates, ids, radius, first, second, m)
            # free the query's buffer before the next query fills another
            del candidates
        first.resize(2 * m, refcheck=False)
        first[m:] = second[:m]
        return NeighborGraph(len(self), first.reshape(2, m).T)

    def _append_within(self, candidates, ids, radius, first, second, m: int) -> int:
        """Write the candidates strictly within radius to first[m:] and second[m:].

        Candidates are rechecked block by block; returns the new pair count.
        """
        for start in range(0, len(candidates), _RECHECK_BLOCK):
            i = candidates[start:start + _RECHECK_BLOCK, 0]
            j = candidates[start:start + _RECHECK_BLOCK, 1]
            if ids is not None:
                i, j = ids[i], ids[j]
            keep = self._strictly_within(i, j, radius)
            if not keep.all():
                i, j = i[keep], j[keep]
            first[m:m + len(i)] = i
            second[m:m + len(i)] = j
            m += len(i)
        return m

    def _slab_candidates(self, reach: float):
        """Blocks (pairs, ids) of candidate pairs within reach, slab by slab.

        Each (k, 2) block indexes ids, or the cloud when ids is None; mapped
        to the cloud, every row is i < j and each pair comes out once.
        """
        spans = [float(column.max()) - float(column.min()) for column in self._columns]
        axis = int(np.argmax(spans))
        n_slabs = int(min(-(-len(self) // _SLAB_POINTS), spans[axis] / (_SLAB_WIDTH * reach)))
        if n_slabs < 2:
            yield _kdtree(self._xyz).query_pairs(reach, output_type="ndarray"), None
            return
        coords = self._columns[axis]
        lo, width = float(coords.min()), spans[axis] / n_slabs
        cuts = lo + width * np.arange(1, n_slabs)
        # slab k holds cuts[k - 1] <= coordinate < cuts[k]
        slab = np.searchsorted(cuts, coords, side="right")
        members = [np.flatnonzero(slab == k) for k in range(n_slabs)]
        band = _BAND * reach
        for k, ids in enumerate(members):
            if len(ids) > 1:
                yield _kdtree(self._xyz[ids]).query_pairs(reach, output_type="ndarray"), ids
            if k + 1 == n_slabs:
                break
            # a pair across cut k joins slab k to slab k + 1, both ends within reach of the cut
            below = ids[coords[ids] >= cuts[k] - band]
            above = members[k + 1][coords[members[k + 1]] < cuts[k] + band]
            if len(below) and len(above):
                yield self._cross_pairs(below, above, reach), None

    def _cross_pairs(self, below: np.ndarray, above: np.ndarray, reach: float) -> np.ndarray:
        """Candidate pairs (i < j) joining a point of below to a point of above."""
        cross = _kdtree(self._xyz[below]).sparse_distance_matrix(
            _kdtree(self._xyz[above]), reach, output_type="ndarray"
        )
        pairs = np.column_stack((below[cross["i"]], above[cross["j"]]))
        pairs.sort(axis=1)
        return pairs

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
