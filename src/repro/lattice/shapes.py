"""Generators for common particle configurations.

These produce the starting configurations used in the paper's simulations
(a line of ``n`` particles, Figures 2 and 10), reference shapes used by the
analysis (maximally compressed spirals/hexagons, maximally spread
staircases), and randomized connected configurations for property-based
testing.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.triangular import DIRECTIONS, Node, add, hex_distance, neighbors, scale
from repro.rng import RandomState, make_rng


def line(n: int, direction: int = 0) -> ParticleConfiguration:
    """A straight line of ``n`` particles (the starting state of Figures 2 and 10).

    Parameters
    ----------
    n:
        Number of particles.
    direction:
        Index into :data:`repro.lattice.triangular.DIRECTIONS` giving the
        line's orientation (default East).
    """
    _validate_n(n)
    step = DIRECTIONS[direction % len(DIRECTIONS)]
    return ParticleConfiguration(scale(step, i) for i in range(n))


def staircase(n: int, steps: Optional[List[int]] = None) -> ParticleConfiguration:
    """A maximum-perimeter induced path built from two rightward step directions.

    This is the family counted in Lemma 5.1: at each of the ``n - 1`` steps
    the path moves "rightward" in one of two fixed directions (East or
    North-East here).  Because the x-coordinate strictly increases, the path
    is induced — no triangles and no extra edges — so it is a tree with the
    maximum perimeter ``2n - 2``.  There are ``2^(n-1)`` such paths.

    Parameters
    ----------
    n:
        Number of particles.
    steps:
        Optional list of ``n - 1`` bits; bit ``0`` steps East, bit ``1``
        steps North-East.  Defaults to alternating, which draws a
        staircase.
    """
    _validate_n(n)
    if steps is None:
        steps = [i % 2 for i in range(n - 1)]
    if len(steps) != n - 1:
        raise ConfigurationError(f"expected {n - 1} step bits, got {len(steps)}")
    nodes: List[Node] = [(0, 0)]
    current: Node = (0, 0)
    for bit in steps:
        step = (0, 1) if bit else (1, 0)  # NE if bit set, else E
        current = add(current, step)
        nodes.append(current)
    return ParticleConfiguration(nodes)


def hexagon(radius: int) -> ParticleConfiguration:
    """A filled hexagon of the given radius (``1 + 3r(r+1)`` particles).

    ``radius=0`` is a single particle; ``radius=1`` is the seven-particle
    "flower".  Filled hexagons are the canonical maximally compressed
    configurations.
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    xs, ys, distance = _hex_distances(radius)
    inside = distance <= radius
    return ParticleConfiguration(zip(xs[inside].tolist(), ys[inside].tolist()))


def ring(radius: int) -> ParticleConfiguration:
    """A hollow hexagonal ring of the given radius (encloses a hole for radius >= 1).

    Useful for exercising hole detection and the hole-elimination dynamics
    of the chain.
    """
    if radius < 1:
        raise ConfigurationError(f"ring radius must be at least 1, got {radius}")
    xs, ys, distance = _hex_distances(radius)
    on_ring = distance == radius
    return ParticleConfiguration(zip(xs[on_ring].tolist(), ys[on_ring].tolist()))


def _hex_distances(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of the square ``[-radius, radius]^2`` and their hop distance to the origin.

    Flattened x-major, so masks of them list nodes in ``(x, y)`` order.
    """
    span = np.arange(-radius, radius + 1)
    xs, ys = (axis.reshape(-1) for axis in np.meshgrid(span, span, indexing="ij"))
    distance = np.maximum(np.maximum(np.abs(xs), np.abs(ys)), np.abs(xs + ys))
    return xs, ys, distance


def parallelogram(rows: int, cols: int) -> ParticleConfiguration:
    """A ``rows x cols`` parallelogram of particles."""
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"rows and cols must be positive, got {rows}x{cols}")
    return ParticleConfiguration((x, y) for x in range(cols) for y in range(rows))


def spiral(n: int) -> ParticleConfiguration:
    """A maximally compressed (minimum perimeter) configuration of ``n`` particles.

    Built greedily: starting from a single particle, repeatedly add the
    unoccupied node adjacent to the configuration that gains the most
    induced edges, breaking ties by distance to the origin and then by
    coordinates.  The result matches the Harary-Harborth minimum perimeter
    ``ceil(sqrt(12 n - 3)) - 3`` (checked by the test suite).
    """
    _validate_n(n)
    occupied: Set[Node] = {(0, 0)}
    while len(occupied) < n:
        candidates: Set[Node] = set()
        for node in occupied:
            for nb in neighbors(node):
                if nb not in occupied:
                    candidates.add(nb)
        best = max(
            candidates,
            key=lambda c: (
                sum(1 for nb in neighbors(c) if nb in occupied),
                -hex_distance((0, 0), c),
                -c[1],
                -c[0],
            ),
        )
        occupied.add(best)
    return ParticleConfiguration(occupied)


def random_connected(
    n: int,
    seed: RandomState = None,
    compactness: float = 0.0,
) -> ParticleConfiguration:
    """A random connected configuration of ``n`` particles.

    Grown by repeatedly adding a random unoccupied node adjacent to the
    current configuration.  ``compactness`` in ``[0, 1]`` biases the growth:
    ``0`` picks uniformly among the frontier (stringy, tree-like
    configurations, frequently with holes for larger ``n``), while values
    near ``1`` prefer nodes with many occupied neighbors (round, compressed
    configurations).
    """
    _validate_n(n)
    if not 0.0 <= compactness <= 1.0:
        raise ConfigurationError(f"compactness must lie in [0, 1], got {compactness}")
    rng = make_rng(seed)
    occupied: Set[Node] = {(0, 0)}
    frontier: Set[Node] = set(neighbors((0, 0)))
    while len(occupied) < n:
        candidates = sorted(frontier)
        if compactness > 0.0 and rng.random() < compactness:
            best_degree = max(
                sum(1 for nb in neighbors(c) if nb in occupied) for c in candidates
            )
            candidates = [
                c
                for c in candidates
                if sum(1 for nb in neighbors(c) if nb in occupied) == best_degree
            ]
        choice = candidates[int(rng.integers(0, len(candidates)))]
        occupied.add(choice)
        frontier.discard(choice)
        for nb in neighbors(choice):
            if nb not in occupied:
                frontier.add(nb)
    return ParticleConfiguration(occupied)


def random_hole_free(
    n: int,
    seed: RandomState = None,
    compactness: float = 0.0,
    max_attempts: int = 1000,
) -> ParticleConfiguration:
    """A random connected *hole-free* configuration of ``n`` particles.

    Grown like :func:`random_connected`, but a candidate addition that would
    enclose a hole is rejected.  Rejection sampling over single-node
    additions always succeeds because adding a node adjacent to the
    external boundary never creates a hole.
    """
    _validate_n(n)
    rng = make_rng(seed)
    for _ in range(max_attempts):
        configuration = _grow_hole_free(n, rng, compactness)
        if configuration is not None:
            return configuration
    raise ConfigurationError(
        f"failed to grow a hole-free configuration of {n} particles in {max_attempts} attempts"
    )


def _grow_hole_free(
    n: int, rng, compactness: float
) -> Optional[ParticleConfiguration]:
    from repro.lattice.holes import has_holes

    occupied: Set[Node] = {(0, 0)}
    while len(occupied) < n:
        frontier = sorted(
            {nb for node in occupied for nb in neighbors(node) if nb not in occupied}
        )
        rng.shuffle(frontier)
        if compactness > 0.0:
            frontier.sort(
                key=lambda c: -sum(1 for nb in neighbors(c) if nb in occupied)
                if rng.random() < compactness
                else 0
            )
        placed = False
        for candidate in frontier:
            occupied.add(candidate)
            if has_holes(occupied):
                occupied.discard(candidate)
                continue
            placed = True
            break
        if not placed:
            return None
    return ParticleConfiguration(occupied)


def property2_witness() -> tuple[ParticleConfiguration, Node, Node]:
    """A configuration with a move that is valid under Property 2 but not Property 1.

    Figure 3 of the paper makes the point that Property-2 moves are
    essential: they let particles hop across "gaps" where the two locations
    share no occupied neighbor, which Property 1 can never authorize.  This
    witness is a horseshoe of eight particles; the particle at the tip of
    the upper arm can contract toward the lower arm across the opening.
    For that move the set ``S`` of shared neighbors is empty (so Property 1
    fails) while both sides have internally connected neighborhoods (so
    Property 2 holds).  Returns ``(configuration, source, target)``.
    """
    nodes = [
        (0, 0), (1, 0), (2, 0), (3, 0),  # lower arm
        (3, 1),                          # right bend
        (2, 2), (1, 2), (0, 2),          # upper arm
    ]
    return (ParticleConfiguration(nodes), (0, 2), (0, 1))


def property2_only_configuration() -> ParticleConfiguration:
    """Deprecated name kept for convenience: the configuration of :func:`property2_witness`."""
    configuration, _, _ = property2_witness()
    return configuration


def _validate_n(n: int) -> None:
    if n < 1:
        raise ConfigurationError(f"need at least one particle, got n={n}")
