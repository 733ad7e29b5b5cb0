"""Boundary walks and perimeter computation.

The *perimeter* ``p(sigma)`` of a configuration is the total length of all
of its boundaries: the unique external boundary plus one boundary per hole
(Section 2.2 of the paper).  A boundary is a minimal closed walk on
configuration edges separating the particles from a connected unoccupied
region; cut edges are traversed (and counted) twice.

Two independent computations are provided:

* :func:`total_perimeter` uses the adjacency-counting identity derived from
  Lemma 2.3 / Lemma 4.3: for a connected configuration, the number of
  (occupied, exterior) adjacent pairs equals ``2 * p_ext + 6`` and, for each
  hole ``H``, the number of (occupied, hole-cell) adjacent pairs equals
  ``2 * p_H - 6``.  This is an O(n) computation.
  :class:`~repro.lattice.configuration.ParticleConfiguration` reads the
  same number off its occupancy plane as ``p = 3n - 3 - e + 3h``.

* :func:`external_boundary_walk` and :func:`hole_boundary_walks` explicitly
  trace the boundary walks with a pivot ("hand on the wall") traversal.
  The walk lengths agree with both counts; the test suite checks this on
  randomly generated configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lattice.holes import find_holes
from repro.lattice.plane import OccupancyPlane
from repro.lattice.triangular import (
    NUM_DIRECTIONS,
    Node,
    direction_between,
    neighbor,
    neighbors,
)


@dataclass(frozen=True)
class BoundaryWalk:
    """A closed boundary walk of a configuration.

    Attributes
    ----------
    nodes:
        The sequence of occupied nodes visited by the walk.  The walk is
        closed; the first node is not repeated at the end.  A walk of
        length ``k`` (``k`` edges) has ``k`` entries, except for the
        degenerate single-particle configuration whose walk has one node
        and zero edges.
    is_external:
        ``True`` for the unique external boundary, ``False`` for a hole
        boundary.
    """

    nodes: Tuple[Node, ...]
    is_external: bool

    @property
    def length(self) -> int:
        """Number of edges traversed by the walk (its contribution to the perimeter)."""
        if len(self.nodes) <= 1:
            return 0
        return len(self.nodes)


def _trace(occupied: AbstractSet[Node], start: Node, contact_direction: int) -> Tuple[Node, ...]:
    """Trace a boundary walk by keeping one hand on an unoccupied region.

    ``start`` must be an occupied node and ``neighbor(start, contact_direction)``
    an unoccupied cell of the region being traced.  The traversal state is the
    pair ``(node, contact_direction)``; transitions are deterministic, so the
    trajectory enters a cycle which is exactly the boundary walk around the
    region.  The initial state may lie on a short tail leading into the cycle
    (e.g. for a two-particle configuration); the tail is discarded.
    """
    state = (start, contact_direction)
    first_seen: Dict[Tuple[Node, int], int] = {state: 0}
    path: List[Node] = [start]
    step = 0
    while True:
        node, contact = state
        # Scan counterclockwise from the contact cell for the next occupied node.
        next_node = None
        new_contact = contact
        for offset in range(1, NUM_DIRECTIONS + 1):
            direction = (contact + offset) % NUM_DIRECTIONS
            candidate = neighbor(node, direction)
            if candidate in occupied:
                next_node = candidate
                break
            new_contact = direction
        if next_node is None:
            # Isolated particle: no boundary edges.
            return (start,)
        # The contact cell seen from the next node is the last unoccupied
        # cell scanned before finding it.
        contact_cell = neighbor(node, new_contact)
        next_contact = direction_between(next_node, contact_cell)
        state = (next_node, next_contact)
        step += 1
        if state in first_seen:
            cycle_start = first_seen[state]
            return tuple(path[cycle_start:step])
        first_seen[state] = step
        path.append(next_node)


def external_boundary_walk(occupied: AbstractSet[Node]) -> BoundaryWalk:
    """Trace the external boundary walk of a connected configuration."""
    if not occupied:
        raise ConfigurationError("cannot trace the boundary of an empty configuration")
    start = min(occupied, key=lambda node: (node[1], node[0]))
    # The cell directly below (SW of) the bottom-left-most particle is exterior.
    walk = _trace(occupied, start, contact_direction=4)
    return BoundaryWalk(nodes=walk, is_external=True)


def hole_boundary_walks(occupied: AbstractSet[Node]) -> List[BoundaryWalk]:
    """Trace one boundary walk per hole of the configuration."""
    walks: List[BoundaryWalk] = []
    for hole in find_holes(occupied):
        cell = min(hole, key=lambda node: (node[1], node[0]))
        # The SW neighbor of the bottom-left-most hole cell is occupied
        # (otherwise it would belong to the same hole), and the hole cell is
        # its NE neighbor (direction index 1).
        start = neighbor(cell, 4)
        if start not in occupied:
            raise ConfigurationError(
                f"hole cell {cell!r} has an unoccupied SW neighbor; inconsistent hole detection"
            )
        walk = _trace(occupied, start, contact_direction=1)
        walks.append(BoundaryWalk(nodes=walk, is_external=False))
    return walks


def boundary_adjacency_counts(occupied: AbstractSet[Node]) -> Tuple[int, List[int]]:
    """Count occupied-to-unoccupied adjacencies toward the exterior and toward each hole.

    Returns ``(exterior_count, hole_counts)`` where ``exterior_count`` is the
    number of (occupied node, exterior cell) adjacent pairs and
    ``hole_counts[i]`` the number of (occupied node, cell of hole i) adjacent
    pairs.
    """
    if not occupied:
        return (0, [])
    holes = find_holes(occupied)
    hole_index: Dict[Node, int] = {}
    for index, hole in enumerate(holes):
        for cell in hole:
            hole_index[cell] = index
    exterior_count = 0
    hole_counts = [0] * len(holes)
    for node in occupied:
        for nb in neighbors(node):
            if nb in occupied:
                continue
            if nb in hole_index:
                hole_counts[hole_index[nb]] += 1
            else:
                exterior_count += 1
    return (exterior_count, hole_counts)


def total_perimeter(occupied: AbstractSet[Node]) -> int:
    """Return the total perimeter ``p(sigma)`` of a connected configuration.

    Uses the adjacency-counting identities (see module docstring).  For a
    single particle the perimeter is zero.

    Raises
    ------
    ConfigurationError
        If the configuration is empty or disconnected (the perimeter of a
        disconnected configuration is not used by the paper; compute it per
        connected component if needed).
    """
    if not occupied:
        raise ConfigurationError("cannot compute the perimeter of an empty configuration")
    if len(occupied) == 1:
        return 0
    if OccupancyPlane.from_nodes(occupied).component_count != 1:
        raise ConfigurationError(
            "perimeter is only defined for connected configurations; "
            "compute it per connected component instead"
        )
    exterior_count, hole_counts = boundary_adjacency_counts(occupied)
    if (exterior_count - 6) % 2 != 0:
        raise ConfigurationError("inconsistent exterior adjacency count; this is a bug")
    perimeter = (exterior_count - 6) // 2
    for count in hole_counts:
        if (count + 6) % 2 != 0:
            raise ConfigurationError("inconsistent hole adjacency count; this is a bug")
        perimeter += (count + 6) // 2
    return perimeter

