"""Dense occupancy planes: the numpy view of a finite node set.

An :class:`OccupancyPlane` paints a node set into a boolean array over its
bounding box padded by one free cell on every side: node ``(x, y)`` is
cell ``[y - origin_y, x - origin_x]``.  In that layout the six lattice
neighbours of a cell are its left and right cells, the cells of the row
above at the same and the previous column, and the cells of the row
below at the same and the next column.  A set's derived counts then
become whole-plane operations:

* induced edges and triangles are shifted-plane ANDs;
* connected components, of the occupied cells or of the empty ones, come
  from :func:`label_components`;
* the number of holes follows from Euler's formula for planar graphs,
  ``h = e - n - t + c`` with ``c`` occupied components (every bounded
  face of the configuration graph that is not a lattice triangle encloses
  exactly one hole), so the empty cells need labelling only when a hole
  exists and its cells are wanted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from repro.lattice.triangular import Node


def node_array(nodes: Iterable[Node]) -> np.ndarray:
    """Return ``nodes`` as an ``(n, 2)`` int64 array of ``(x, y)`` rows, in iteration order."""
    return np.fromiter(chain.from_iterable(nodes), dtype=np.int64).reshape(-1, 2)


def _run_starts(mask: np.ndarray) -> np.ndarray:
    """The cells of ``mask`` whose left neighbour is off the mask."""
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    return starts


def _links(upper_runs: np.ndarray, lower_runs: np.ndarray, touching: np.ndarray):
    """Run pairs joined across two rows, one pair per stretch of ``touching``.

    Along a stretch of adjacent touching cells both rows stay inside one
    run each, so the stretch's first cell names the pair.
    """
    first = _run_starts(touching)
    return upper_runs[first], lower_runs[first]


def label_components(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Label the lattice-connected components of the true cells of ``mask``.

    Returns ``(labels, count)``.  ``labels`` has the shape of ``mask``: 0
    off the mask and ``1..count`` on it, numbered in row-major order of
    each component's first cell, that is by its minimum ``(y, x)`` node.
    """
    run_of, run_component, count = _join_runs(mask)
    return np.where(mask, run_component[run_of], 0), count


def count_components(mask: np.ndarray) -> int:
    """Number of lattice-connected components of the true cells of ``mask``."""
    return _join_runs(mask)[2]


def _join_runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Cut ``mask`` into horizontal runs and join the runs into components.

    Returns ``(run_of, run_component, count)``: ``run_of`` numbers each
    cell's run ``1..R`` in row-major order (cells off the mask carry the
    number of the run before them), and ``run_component[r]`` is run
    ``r``'s component, ``1..count`` in order of each component's first run.

    A run touches a run of the next row when they share a column, or when
    the lower run reaches one column left of the upper one.  The runs are
    joined by repeated hook-and-pointer-jump rounds: every root hooks onto
    the smallest root it touches, and pointer jumping flattens every tree
    to a star, until no touching pair has two roots.  Each component's
    root is then its smallest run.
    """
    run_of = np.cumsum(_run_starts(mask), dtype=np.int64).reshape(mask.shape)
    runs = int(run_of[-1, -1]) if mask.size else 0
    vertical = _links(run_of[:-1], run_of[1:], mask[:-1] & mask[1:])
    diagonal = _links(run_of[:-1, 1:], run_of[1:, :-1], mask[:-1, 1:] & mask[1:, :-1])
    a = np.concatenate((vertical[0], diagonal[0]))
    b = np.concatenate((vertical[1], diagonal[1]))
    parent = np.arange(runs + 1, dtype=np.int64)
    while a.size:
        root_a, root_b = parent[a], parent[b]
        apart = root_a != root_b
        a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent
    is_root = parent == np.arange(runs + 1)
    is_root[0] = False
    component = np.cumsum(is_root)
    return run_of, component[parent], int(component[-1])


class OccupancyPlane:
    """A boolean occupancy plane over a node set's bounding box padded by one.

    Parameters
    ----------
    coords:
        An ``(n, 2)`` integer array of distinct ``(x, y)`` nodes, ``n >= 1``.

    The padding makes the plane's border ring empty, so the empty cells
    reachable from outside the box are exactly the empty component that
    holds the corner cell ``[0, 0]``.  The derived counts are computed on
    first use and cached.
    """

    def __init__(self, coords: np.ndarray) -> None:
        low = coords.min(axis=0) - 1
        high = coords.max(axis=0) + 1
        self.origin_x = int(low[0])
        self.origin_y = int(low[1])
        shape = (int(high[1] - low[1]) + 1, int(high[0] - low[0]) + 1)
        cells = np.zeros(shape, dtype=bool)
        cells[coords[:, 1] - low[1], coords[:, 0] - low[0]] = True
        cells.setflags(write=False)
        self.cells = cells
        self.size = len(coords)

    @classmethod
    def from_nodes(cls, nodes: Iterable[Node]) -> "OccupancyPlane":
        """Build the plane of a non-empty iterable of ``(x, y)`` nodes."""
        return cls(node_array(nodes))

    @cached_property
    def edge_count(self) -> int:
        """Induced lattice edges: occupied pairs along E, NE and NW."""
        c = self.cells
        return int(
            np.count_nonzero(c[:, :-1] & c[:, 1:])
            + np.count_nonzero(c[:-1] & c[1:])
            + np.count_nonzero(c[:-1, 1:] & c[1:, :-1])
        )

    @cached_property
    def triangle_count(self) -> int:
        """Induced triangles: each E edge with the node above or below-right of it."""
        c = self.cells
        east = c[:, :-1] & c[:, 1:]
        return int(
            np.count_nonzero(east[:-1] & c[1:, :-1])
            + np.count_nonzero(east[1:] & c[:-1, 1:])
        )

    @cached_property
    def component_count(self) -> int:
        """Number of connected components of the occupied nodes."""
        return count_components(self.cells)

    @property
    def hole_count(self) -> int:
        """Number of holes, by Euler's formula ``h = e - n - t + c``."""
        return self.edge_count - self.size - self.triangle_count + self.component_count

    def empty_labels(self) -> Tuple[np.ndarray, int]:
        """:func:`label_components` of the empty cells.

        Label 1 is the exterior (it holds the corner cell); labels
        ``2..count`` are the holes, ordered by their minimum ``(y, x)`` cell.
        """
        return label_components(~self.cells)

    def nodes(self, mask: np.ndarray) -> Set[Node]:
        """The nodes of the cells selected by a boolean ``mask`` of the plane's shape."""
        ys, xs = np.nonzero(mask)
        return set(zip((xs + self.origin_x).tolist(), (ys + self.origin_y).tolist()))

    def holes(self) -> List[FrozenSet[Node]]:
        """The holes as frozensets of nodes, sorted by their minimum ``(y, x)`` node.

        The empty cells are labelled only when :attr:`hole_count` is positive.
        """
        if not self.hole_count:
            return []
        labels, _ = self.empty_labels()
        flat = labels.reshape(-1)
        cells = np.flatnonzero(flat >= 2)
        cells = cells[np.argsort(flat[cells], kind="stable")]
        bounds = np.cumsum(np.bincount(flat[cells] - 2))[:-1]
        ys, xs = np.divmod(cells, labels.shape[1])
        return [
            frozenset(zip(hole_xs.tolist(), hole_ys.tolist()))
            for hole_xs, hole_ys in zip(
                np.split(xs + self.origin_x, bounds), np.split(ys + self.origin_y, bounds)
            )
        ]
