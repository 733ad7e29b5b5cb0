"""Particle index order of the grid engines.

Every engine indexes particles in ``sorted(initial.nodes)`` order, the
order the reference engine and the draw tape assume.  The grid engines
build their position lists with array arithmetic, so this pins that
order on starts with negative and mixed-sign coordinates.
"""

from __future__ import annotations

import pytest

from repro.core.fast_chain import FastCompressionChain
from repro.core.kernels import SeparationKernel
from repro.core.sharded_chain import ShardedCompressionChain
from repro.core.vector_chain import VectorCompressionChain
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import line, random_connected, ring, spiral

ENGINES = [FastCompressionChain, VectorCompressionChain, ShardedCompressionChain]

STARTS = {
    "negative-line": line(12).translate((-30, -5)),
    "mixed-spiral": spiral(40).translate((-3, 2)),
    "mixed-ring": ring(4).translate((2, -3)),
    "negative-random": random_connected(60, seed=7).translate((-50, -50)),
    "mixed-random": random_connected(60, seed=11, compactness=0.5).translate((9, -40)),
    "column": ParticleConfiguration((0, y) for y in range(-6, 7)),
}


def sorted_flats(chain, start):
    return [chain.grid.flat_index(node) for node in sorted(start.nodes)]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("name", sorted(STARTS))
def test_positions_follow_sorted_nodes(engine, name):
    start = STARTS[name]
    chain = engine(start, lam=4.0, seed=0)
    assert list(chain._pos) == sorted_flats(chain, start)
    assert chain.occupied == start.nodes


@pytest.mark.parametrize("engine", ENGINES, ids=lambda cls: cls.__name__)
def test_color_plane_follows_sorted_nodes(engine):
    start = STARTS["mixed-random"]
    colors = {node: index % 3 for index, node in enumerate(sorted(start.nodes))}
    chain = engine(start, kernel=SeparationKernel(4.0, 2.0, colors), seed=0)
    assert list(chain._pos) == sorted_flats(chain, start)
    assert chain.color_map() == colors
