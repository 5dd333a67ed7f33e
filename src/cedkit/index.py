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

Each query builds its trees. It cuts the cloud into equal-width slabs along
its longest axis: one slab per 32,768 points, but fewer when a slab would be
narrower than 2.5 candidate radii, so that a pair can only join two
neighboring slabs. A cloud of one slab is indexed by one tree, and one
``query_pairs`` call returns every candidate. Otherwise each slab's pairs
come from a tree over that slab alone, and the pairs across a cut come from
``sparse_distance_matrix`` between the two bands of points within 2 radii on
either side of it (one radius would do; the rest is margin for rounding).
Pairs come out slab by slab, each slab's own pairs before those across its
upper cut, and within a query in its tree's order.

A query can be restricted to a core, a mask of points: then only the pairs
with an end in the core come out. A slab's tree holds its core points only,
the pairs joining them to the slab's other points come from
``sparse_distance_matrix``, and a pair across a cut is kept when an end is
in the core. So each core point's neighborhood is whole, and a point
outside the core keeps only its pairs to core points. A core of every point
is the plain query, pair for pair and in the same order. The repeatability
trials take as a copy's core the points whose neighborhoods the decisions
that matching reads depend on (see ``evaluation``).

The slabs bound memory. ``query_pairs`` collects its pairs in a vector that
grows by doubling, 16 bytes per pair. On a 99k-point room (2.45M pairs) one
query briefly holds a 33.5 MB and a 67 MB buffer, both above glibc's 32 MB
mmap threshold cap, so every call maps and faults them afresh. At about 25
pairs per point, a slab of 32,768 points keeps that buffer at or under about
16 MB.

The neighbor graph stores its pairs column-major: the (m, 2) ``pairs`` array
is the transpose of a C-contiguous (2, m) buffer, so each column is one
contiguous run, and the indices are int32 whenever the cloud's indices fit
(8 bytes per pair). One buffer holds both columns, whether the candidates
come from one tree or from slabs and cuts: ``pairs[:size]`` the first and
``pairs[size:2 * size]`` the second. Each query grows ``size`` by its
candidate count, its candidates are rechecked block by block, the pairs kept
are written straight into the columns, and its buffer is freed before the
next query. At the end the second column moves down behind the first.
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
# Pairs per block wherever a pass walks the pairs: a block's temporaries
# (64 KiB each) stay in cache. Measured on a 99k-point room's 2.4M int32
# pairs:
# - the strict recheck in neighbor_graph: 8,192 and 16,384 pairs per block
#   tie (about 46 ms with the column fill), 4,096 is slower, one pass over
#   all pairs takes 2.2x longer;
# - local_maxima (detector): blocks took its two np.maximum.at passes from
#   about 30 ms to 21 ms;
# - the neighborhood sums (detector): 16,384, 65,536 and 262,144 pairs per
#   block were no faster.
_PAIR_BLOCK = 1 << 13
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
    """Immutable index over a cloud's geometry; safe for concurrent queries."""

    def __init__(self, cloud: ColoredPointCloud):
        if len(cloud) == 0:
            raise EmptyCloudError("cannot index an empty cloud")
        self._xyz = cloud.xyz
        # Contiguous per-axis columns: the strict test gathers one axis at a time.
        self._columns = tuple(np.ascontiguousarray(self._xyz[:, axis]) for axis in range(3))

    def __len__(self) -> int:
        return self._xyz.shape[0]

    def neighbor_graph(self, radius: float, core: np.ndarray | None = None) -> NeighborGraph:
        """Strict-radius neighbor pairs with an end in core; the one neighborhood query.

        core is a per-point mask, None for every point. Each core point keeps
        all its pairs; a point outside it keeps only its pairs to core points.
        """
        if not (0 < radius < np.inf):
            raise InvalidParamsError(f"radius must be finite and > 0, got {radius}")
        core = np.ones(len(self), dtype=bool) if core is None else np.asarray(core, dtype=bool)
        if core.shape != (len(self),):
            raise InvalidParamsError(f"core must mask {len(self)} points, got shape {core.shape}")
        dtype = np.int32 if len(self) - 1 <= np.iinfo(np.int32).max else np.int64
        pairs = np.empty(0, dtype=dtype)
        m = size = 0
        for candidates, ids in self._candidates(radius * _CANDIDATE_SLACK, core):
            # resize reallocates, and glibc remaps a large buffer rather
            # than copying it; the new room is zeroed, then overwritten
            last, size = size, max(size, m + len(candidates))
            pairs.resize(2 * size, refcheck=False)
            # numpy moves overlapping 1-d slices in place, with no temporary copy
            pairs[size:size + m] = pairs[last:last + m]
            # recheck block by block, writing the pairs kept straight into the columns
            for start in range(0, len(candidates), _PAIR_BLOCK):
                i = candidates[start:start + _PAIR_BLOCK, 0]
                j = candidates[start:start + _PAIR_BLOCK, 1]
                if ids is not None:
                    i, j = ids[i], ids[j]
                keep = self._strictly_within(i, j, radius)
                if not keep.all():
                    i, j = i[keep], j[keep]
                pairs[m:m + len(i)] = i
                pairs[size + m:size + m + len(i)] = j
                m += len(i)
            # free the query's buffer before the next query fills another
            del candidates
        pairs[m:2 * m] = pairs[size:size + m]
        pairs.resize(2 * m, refcheck=False)
        return NeighborGraph(len(self), pairs.reshape(2, m).T)

    def _candidates(self, reach: float, core: np.ndarray):
        """Blocks (pairs, ids) of candidate pairs within reach with an end in core, slab by slab.

        Each (k, 2) block indexes ids, or the cloud when ids is None; mapped
        to the cloud, every row is i < j and each pair comes out once. A
        slab's core points give one block, their tree's query_pairs; pairs
        joining them to the slab's other points, and pairs across a cut, come
        from sparse_distance_matrix.
        """
        spans = [float(column.max()) - float(column.min()) for column in self._columns]
        axis = int(np.argmax(spans))
        n_slabs = int(min(-(-len(self) // _SLAB_POINTS), spans[axis] / (_SLAB_WIDTH * reach)))
        n_slabs = max(n_slabs, 1)
        coords = self._columns[axis]
        cuts = float(coords.min()) + spans[axis] / n_slabs * np.arange(1, n_slabs)
        # slab k holds cuts[k - 1] <= coordinate < cuts[k]
        slab = np.searchsorted(cuts, coords, side="right")
        members = [np.flatnonzero(slab == k) for k in range(n_slabs)]
        del slab
        band = _BAND * reach
        for k, ids in enumerate(members):
            in_core = core[ids]
            inner, outer = (ids, ids[:0]) if in_core.all() else (ids[in_core], ids[~in_core])
            if len(inner) > 1:
                # A slab wholly in the core is queried with no copy of its ids, and
                # one that is the whole cloud with no copy of its points and no ids:
                # the plain query holds no more memory than it needs.
                whole = len(inner) == len(self)
                tree = _kdtree(self._xyz if whole else self._xyz[inner])
                yield tree.query_pairs(reach, output_type="ndarray"), None if whole else inner
            if len(inner) and len(outer):
                yield self._cross_pairs(inner, outer, reach), None
            if k + 1 == n_slabs:
                break
            # a pair across cut k joins slab k to slab k + 1, both ends within reach of the cut
            below = ids[coords[ids] >= cuts[k] - band]
            above = members[k + 1][coords[members[k + 1]] < cuts[k] + band]
            if len(below) and len(above):
                cross = self._cross_pairs(below, above, reach)
                yield cross[core[cross[:, 0]] | core[cross[:, 1]]], None

    def _cross_pairs(self, one: np.ndarray, other: np.ndarray, reach: float) -> np.ndarray:
        """Candidate pairs (i < j) joining a point of one to a point of other, disjoint sets."""
        cross = _kdtree(self._xyz[one]).sparse_distance_matrix(
            _kdtree(self._xyz[other]), reach, output_type="ndarray"
        )
        first, second = one[cross["i"]], other[cross["j"]]
        return np.column_stack((np.minimum(first, second), np.maximum(first, second)))

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
