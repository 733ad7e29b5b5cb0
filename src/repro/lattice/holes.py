"""Hole detection for particle configurations.

A *hole* of a configuration is a finite, maximal connected set of
unoccupied lattice nodes that is completely enclosed by particles
(Section 2.2 of the paper).  Detection labels the connected components of
the unoccupied cells of an :class:`~repro.lattice.plane.OccupancyPlane`,
the bounding box padded by one lattice unit: the component that holds
the box's corner is the exterior, and every other one is a hole.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, List, Set

from repro.lattice.plane import OccupancyPlane
from repro.lattice.triangular import Node


def exterior_cells(occupied: AbstractSet[Node]) -> Set[Node]:
    """Return the unoccupied cells of the padded bounding box reachable from outside.

    The returned set contains every unoccupied node in the padded bounding
    box that belongs to the infinite exterior region; unoccupied nodes in
    the box that are *not* returned are hole cells.
    """
    if not occupied:
        return set()
    plane = OccupancyPlane.from_nodes(occupied)
    labels, _ = plane.empty_labels()
    return plane.nodes(labels == 1)


def hole_cells(occupied: AbstractSet[Node]) -> Set[Node]:
    """Return every unoccupied node enclosed by the configuration."""
    if not occupied:
        return set()
    plane = OccupancyPlane.from_nodes(occupied)
    labels, _ = plane.empty_labels()
    return plane.nodes(labels >= 2)


def find_holes(occupied: AbstractSet[Node]) -> List[FrozenSet[Node]]:
    """Return the holes of a configuration as a list of frozensets of cells.

    Each element is one maximal connected unoccupied region enclosed by the
    particles.  The list is sorted by the minimum ``(y, x)`` cell of each
    hole so the output is deterministic.
    """
    if not occupied:
        return []
    return OccupancyPlane.from_nodes(occupied).holes()


def has_holes(occupied: AbstractSet[Node]) -> bool:
    """Return ``True`` if the configuration encloses at least one unoccupied node."""
    return bool(occupied) and OccupancyPlane.from_nodes(occupied).hole_count > 0
