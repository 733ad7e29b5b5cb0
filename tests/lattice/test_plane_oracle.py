"""The occupancy-plane derived quantities against set-based reference code.

``ParticleConfiguration`` and :mod:`repro.lattice.holes` read edges,
triangles, connectivity and holes off a numpy occupancy plane.  The
reference functions below are the breadth-first searches and flood fills
they replaced, kept here as the oracle.  Inputs cover connected,
disconnected and holey configurations, including rings, nested rings,
negative coordinates and the shortcut-bridging V start.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.algorithms.shortcut_bridging import initial_bridge_configuration, v_shaped_terrain
from repro.lattice.boundary import total_perimeter
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.holes import exterior_cells, find_holes, has_holes, hole_cells
from repro.lattice.shapes import random_connected, ring
from repro.lattice.triangular import neighbors


# ---------------------------------------------------------------------- #
# Reference implementations
# ---------------------------------------------------------------------- #
def reference_edge_count(occupied):
    return sum(
        nb in occupied
        for x, y in occupied
        for nb in ((x + 1, y), (x, y + 1), (x - 1, y + 1))
    )


def reference_triangle_count(occupied):
    return sum(
        ((x, y + 1) in occupied) + ((x + 1, y - 1) in occupied)
        for x, y in occupied
        if (x + 1, y) in occupied
    )


def reference_components(occupied):
    remaining = set(occupied)
    components = 0
    while remaining:
        components += 1
        queue = deque([remaining.pop()])
        while queue:
            for nb in neighbors(queue.popleft()):
                if nb in remaining:
                    remaining.discard(nb)
                    queue.append(nb)
    return components


def reference_box(occupied):
    xs = [x for x, _ in occupied]
    ys = [y for _, y in occupied]
    return min(xs) - 1, min(ys) - 1, max(xs) + 1, max(ys) + 1


def reference_exterior_cells(occupied):
    min_x, min_y, max_x, max_y = reference_box(occupied)
    start = (min_x, min_y)
    seen = {start}
    queue = deque([start])
    while queue:
        for nb in neighbors(queue.popleft()):
            if nb in seen or nb in occupied:
                continue
            if min_x <= nb[0] <= max_x and min_y <= nb[1] <= max_y:
                seen.add(nb)
                queue.append(nb)
    return seen


def reference_hole_cells(occupied):
    min_x, min_y, max_x, max_y = reference_box(occupied)
    outside = reference_exterior_cells(occupied)
    return {
        (x, y)
        for x in range(min_x, max_x + 1)
        for y in range(min_y, max_y + 1)
        if (x, y) not in occupied and (x, y) not in outside
    }


def reference_find_holes(occupied):
    remaining = reference_hole_cells(occupied)
    holes = []
    while remaining:
        seed = remaining.pop()
        component = {seed}
        queue = deque([seed])
        while queue:
            for nb in neighbors(queue.popleft()):
                if nb in remaining:
                    remaining.discard(nb)
                    component.add(nb)
                    queue.append(nb)
        holes.append(frozenset(component))
    holes.sort(key=lambda hole: min((y, x) for x, y in hole))
    return holes


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
offsets = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@st.composite
def scattered(draw):
    """Any node set in a small box around a random (often negative) corner:
    mostly disconnected, often holey."""
    dx, dy = draw(offsets)
    cells = draw(
        st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40)
    )
    return ParticleConfiguration((x + dx, y + dy) for x, y in cells)


@st.composite
def grown(draw):
    """One or two random connected configurations, translated."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        part = random_connected(
            draw(st.integers(1, 40)),
            seed=draw(st.integers(0, 2**31 - 1)),
            compactness=draw(st.sampled_from([0.0, 0.5, 0.9])),
        )
        parts.append(part.translate(draw(offsets)).nodes)
    return ParticleConfiguration(frozenset().union(*parts))


@st.composite
def rings(draw):
    """A ring, or nested rings (touching or not), possibly with a centre."""
    radii = draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))
    nodes = set().union(*(ring(radius).nodes for radius in radii))
    if draw(st.booleans()):
        nodes.add((0, 0))
    return ParticleConfiguration(nodes).translate(draw(offsets))


@st.composite
def v_starts(draw):
    arm = draw(st.integers(4, 20))
    terrain = v_shaped_terrain(arm)
    return initial_bridge_configuration(terrain, draw(st.integers(1, 5 * arm)))


configurations = st.one_of(scattered(), grown(), rings(), v_starts())


# ---------------------------------------------------------------------- #
# Properties
# ---------------------------------------------------------------------- #
@settings(max_examples=300, deadline=None)
@given(configuration=configurations)
def test_configuration_matches_reference(configuration):
    occupied = configuration.nodes
    n = configuration.n
    e = reference_edge_count(occupied)
    t = reference_triangle_count(occupied)
    c = reference_components(occupied)
    holes = reference_find_holes(occupied)
    assert configuration.edge_count == e
    assert configuration.triangle_count == t
    assert configuration.component_count == c
    assert configuration.is_connected == (c == 1)
    assert configuration.holes == tuple(holes)
    assert configuration.hole_count == len(holes) == e - n - t + c
    assert configuration.has_holes == bool(holes)
    assert configuration.is_hole_free == (not holes)
    if c == 1:
        assert configuration.perimeter == total_perimeter(occupied) == 3 * n - 3 - e + 3 * len(holes)


@settings(max_examples=150, deadline=None)
@given(configuration=configurations)
def test_hole_functions_match_reference(configuration):
    occupied = configuration.nodes
    enclosed = reference_hole_cells(occupied)
    assert find_holes(occupied) == reference_find_holes(occupied)
    assert hole_cells(occupied) == enclosed
    assert exterior_cells(occupied) == reference_exterior_cells(occupied)
    assert has_holes(occupied) == bool(enclosed)


def test_nested_rings_and_negative_coordinates():
    nodes = ring(1).nodes | ring(3).nodes | ring(5).nodes
    configuration = ParticleConfiguration(nodes).translate((-20, -7))
    assert configuration.component_count == 3
    assert configuration.holes == tuple(reference_find_holes(configuration.nodes))
    assert configuration.hole_count == 3


def test_bridge_v_start_matches_reference():
    configuration = initial_bridge_configuration(v_shaped_terrain(60), 400)
    occupied = configuration.nodes
    assert configuration.is_connected
    assert configuration.edge_count == reference_edge_count(occupied)
    assert configuration.triangle_count == reference_triangle_count(occupied)
    assert configuration.holes == tuple(reference_find_holes(occupied))
