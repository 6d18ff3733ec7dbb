"""Seeded random monotone trees, the source of selftest's seeded duality and
hierarchy claims."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .duality import MonotoneTree
from .graphs import Graph, RootedTree, Tree, Vertex


def _branching_shape(rng: random.Random, size: int) -> list[Optional[int]]:
    # Parent indices for a rooted shape in which no vertex has exactly one
    # child: subtree sizes are 1 or >= 3.  Vertices are numbered in preorder,
    # and each draws the sizes of its child subtrees as it is numbered.
    parents: list[Optional[int]] = []
    todo: list[tuple[Optional[int], int]] = [(None, size)]
    while todo:
        parent, size_here = todo.pop()
        parents.append(parent)
        # the size_here - 1 vertices below split into no parts or at least two,
        # each a legal subtree size (a 2-vertex subtree would force an only child)
        total = left = size_here - 1
        parts: list[int] = []
        while left > 0:
            choices = [p for p in range(1, min(left, 6) + 1) if p != 2]
            if not parts and total in choices:
                choices.remove(total)
            parts.append(rng.choice(choices))
            left -= parts[-1]
        todo += [(len(parents) - 1, part) for part in reversed(parts)]
    return parents


def generate_monotone(
    seed: int | random.Random,
    min_size: int = 1,
    max_size: int = 10,
    branching_only: bool = False,
) -> MonotoneTree:
    """Random monotone tree; deterministic for a fixed seed.

    With branching_only, no vertex has out-degree one, so the result is the
    hierarchy tree shape of some ultrametric space (size 2 is impossible and
    gets bumped to 3).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if min_size < 1 or max_size < min_size:
        raise ValueError("need 1 <= min_size <= max_size")
    size = rng.randint(min_size, max_size)
    if branching_only and size == 2:
        size = 3
    parents = _branching_shape(rng, size) if branching_only else [None, *(rng.randrange(i) for i in range(1, size))]
    names = [f"v{i:02d}" for i in range(size)]
    edges = [(names[parents[i]], names[i]) for i in range(1, size)]
    rt = RootedTree(Tree(Graph(names, edges), names[0]), names[0])

    labels: dict[Vertex, Fraction] = {}
    for v in reversed(rt.bfs_order()):
        kids = rt.children(v)
        if not kids:
            labels[v] = Fraction(0)
        else:
            step = Fraction(rng.randint(1, 8), rng.choice((1, 1, 2, 4)))
            labels[v] = max(labels[c] for c in kids) + step
    return MonotoneTree(rt, labels)
