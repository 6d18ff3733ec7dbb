"""Seeded random instances: trees, connected graphs, ultrametric spaces.

Deterministic for a fixed random.Random seed; meant for fuzz suites and
experiments at small sizes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .duality import EquidistantTree, labeling_to_weight
from .graphs import Edge, Graph, Tree, Vertex
from .metrics import FiniteMetricSpace
from .path_metrics import space_from
from .random_monotone import generate_monotone


def _rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_tree(seed: int | random.Random, size: int, prefix: str = "v") -> Tree:
    rng = _rng(seed)
    names = [f"{prefix}{i:02d}" for i in range(size)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, size)]
    return Tree(Graph(names, edges))


def random_connected_graph(
    seed: int | random.Random, size: int, extra_edges: int = 2, prefix: str = "v"
) -> Graph:
    """Random spanning tree plus up to extra_edges additional edges."""
    rng = _rng(seed)
    t = random_tree(rng, size, prefix)
    edges = set(t.edges)
    vs = t.vertices
    non_edges = [
        (u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if (u, v) not in edges
    ]
    rng.shuffle(non_edges)
    edges.update(non_edges[:extra_edges])
    return Graph(vs, edges)


def random_rational(rng: random.Random, lo: int = 1, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 4)))


def random_weights(seed: int | random.Random, g: Graph) -> dict[Edge, Fraction]:
    rng = _rng(seed)
    return {e: random_rational(rng) for e in g.edges}


def random_labels(
    seed: int | random.Random, g: Graph, allow_zero: bool = True
) -> dict[Vertex, Fraction]:
    rng = _rng(seed)
    lo = 0 if allow_zero else 1
    return {v: Fraction(rng.randint(lo, 6)) for v in g.vertices}


def random_equidistant_tree(
    seed: int | random.Random,
    min_size: int = 1,
    max_size: int = 10,
    branching_only: bool = False,
) -> EquidistantTree:
    """Random equidistant tree, via its paired monotone labeling."""
    return labeling_to_weight(generate_monotone(_rng(seed), min_size, max_size, branching_only))


def random_ultrametric_space(
    seed: int | random.Random, size: int, names: Optional[list[Vertex]] = None
) -> FiniteMetricSpace:
    """Random ultrametric space built by recursive partitioning.

    The distance of two points is the diameter of the smallest common block,
    with child-block diameters strictly below the parent's.
    """
    rng = _rng(seed)
    pts = names if names is not None else [f"p{i:02d}" for i in range(size)]
    if len(pts) != size or size < 1:
        raise ValueError("need size >= 1 matching names")
    dist: dict[tuple[Vertex, Vertex], Fraction] = {}
    # Blocks wait on a stack with their parent's diameter (None at the top),
    # so the draws come in the order of a depth-first recursion.
    todo: list[tuple[list[Vertex], Optional[Fraction]]] = [(list(pts), None)]
    while todo:
        block, above = todo.pop()
        diam = Fraction(rng.randint(1, 8)) if above is None else above * Fraction(rng.randint(1, 3), 4)
        if len(block) == 1:
            continue
        k = rng.randint(2, len(block))
        shuffled = block[:]
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(block)), k - 1))
        parts = [shuffled[a:b] for a, b in zip([0] + cuts, cuts + [len(block)])]
        for i, part in enumerate(parts):
            for other in parts[i + 1 :]:
                for x in part:
                    for y in other:
                        dist[(x, y)] = dist[(y, x)] = diam
        todo += [(part, diam) for part in reversed(parts)]
    return space_from(pts, lambda x, y: dist[(x, y)])


def shuffled_renaming(seed: int | random.Random, space: FiniteMetricSpace, prefix: str = "q") -> FiniteMetricSpace:
    """Isometric copy with freshly shuffled point names."""
    rng = _rng(seed)
    new_names = [f"{prefix}{i:02d}" for i in range(len(space.points))]
    rng.shuffle(new_names)
    return space.rename(dict(zip(space.points, new_names)))
