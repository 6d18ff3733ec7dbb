"""Weight and label maps: their edge keys, their checks and their integer form.

Only code that reads weights or labels imports this module, so the verbs on
matrices (repr, ballean, isometry) compile none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .errors import NonPositiveWeightError

if TYPE_CHECKING:
    from .graphs import Edge, Graph, Vertex


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Normalize an unordered pair to a (min, max) tuple."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


def normalize_weights(g: Graph, w: Mapping, strict: bool = True) -> dict[Edge, Fraction]:
    """Check a weight map is total on E(g) and (optionally) strictly positive."""
    return _checked(g.edges, w, strict, NonPositiveWeightError, "weight for edge", "weight {} on edge",
                    lambda m: {edge_key(u, v): x for (u, v), x in m.items()})


def normalize_labels(g: Graph, l: Mapping) -> dict[Vertex, Fraction]:
    """Check a label map is total on V(g) and nonnegative."""
    return _checked(g.vertices, l, 0, ValueError, "label for vertex", "negative label {} on vertex", dict)


def _checked(keys, m, least, error, missing, bad, keyed):
    # m on keys, in their order, each value a Fraction of numerator at least least (0, or 1 when strict).
    # A map that holds exactly keys, each to such a Fraction, as a reader's does, is read in one pass.
    out = {k: x for k in keys if (x := m.get(k)).__class__ is Fraction and x.numerator >= least}
    if len(out) == len(keys) == len(m):
        return out
    given = {k: x if isinstance(x, Fraction) else Fraction(x) for k, x in keyed(m).items()}
    for k in keys:
        if (x := given.get(k)) is None:
            raise error(f"missing {missing} {k!r}")
        if x.numerator < least:
            raise error(f"{bad.format(x)} {k!r}")
    return {k: given[k] for k in keys}


def integer_form(values: dict) -> tuple[dict, int]:
    """A map of Fractions as (integers, den): each value times den, the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in values.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in values.items()}, den
