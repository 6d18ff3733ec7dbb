"""Search for a bijection carrying one matrix onto another.

General (non-tree) graph isomorphism and isometry search are one small
pruned search for a bijection carrying a matrix onto another: a space has
its distance matrix, a graph its relation matrix (labels on the diagonal,
edge weights or an edge mark at adjacent pairs, a non-edge mark elsewhere).
It is the oracle fast paths are tested against; its public entry points are
in canonical.py, which settles unequal sizes itself, and the check of a given
map on the same matrices is in checkers.py.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .graphs import Graph


def _relation_rows(g: Graph, labels: Optional[dict], weights: Optional[dict]) -> list[list[tuple]]:
    # (label,) on the diagonal, (weight,) or (1,) at adjacent pairs and () at
    # every other pair, from maps the caller has normalized (canonical._normalized).
    # A non-edge differs from every edge by length alone, whatever the payload
    # values, and normalized entries all sort together.
    index = {v: i for i, v in enumerate(g.vertices)}
    rows: list[list[tuple]] = [[()] * len(index) for _ in index]
    if labels is not None:
        for v, i in index.items():
            rows[i][i] = (labels[v],)
    for e in g.edges:
        i, j = index[e[0]], index[e[1]]
        rows[i][j] = rows[j][i] = (weights[e],) if weights is not None else (1,)
    return rows


def _search(a: tuple, b: tuple) -> Optional[dict[int, int]]:
    """An index bijection carrying matrix a onto matrix b, or None.

    a and b are (rows, names) pairs of one size.  Pruning: the sorted
    multisets of all entries must agree; a point's candidates share its row
    profile (diagonal entry and sorted row); the point with fewest candidates
    is placed first.
    """
    (rows1, names1), (rows2, names2) = a, b
    n = len(names1)
    if sorted(x for row in rows1 for x in row) != sorted(x for row in rows2 for x in row):
        return None

    def profile(rows, i: int) -> tuple:
        return rows[i][i], tuple(sorted(rows[i]))

    profiles2: dict[tuple, list[int]] = {}
    for j in range(n):
        profiles2.setdefault(profile(rows2, j), []).append(j)
    # same-named candidates first, so a matrix searched against itself (or a
    # same-named copy) yields the identity bijection
    candidates = [sorted(profiles2.get(profile(rows1, i), []), key=lambda j, i=i: (names2[j] != names1[i], j))
                  for i in range(n)]
    if not all(candidates):
        return None

    order = sorted(range(n), key=lambda i: (len(candidates[i]), names1[i]))
    image: dict[int, int] = {}
    used: set[int] = set()

    def assign(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used or any(rows1[i][i2] != rows2[j][j2] for i2, j2 in image.items()):
                continue
            image[i] = j
            used.add(j)
            if assign(k + 1):
                return True
            del image[i]
            used.discard(j)
        return False

    found, assign = assign(0), None  # the closure holds itself: unbound, it goes with this call, not with a collection
    return image if found else None
