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
    keyed: dict[Edge, Fraction] = {}
    for (u, v), x in w.items():
        keyed[(u, v) if u < v else edge_key(u, v)] = x if isinstance(x, Fraction) else Fraction(x)
    out = {}
    for e in g.edges:
        if (x := keyed.get(e)) is None:
            raise NonPositiveWeightError(f"missing weight for edge {e!r}")
        if x.numerator < strict:  # negative, or zero when strict
            raise NonPositiveWeightError(f"weight {x} on edge {e!r}")
        out[e] = x
    return out


def normalize_labels(g: Graph, l: Mapping) -> dict[Vertex, Fraction]:
    """Check a label map is total on V(g) and nonnegative."""
    keyed = {v: x if isinstance(x, Fraction) else Fraction(x) for v, x in l.items()}
    out = {}
    for v in g.vertices:
        if (x := keyed.get(v)) is None:
            raise ValueError(f"missing label for vertex {v!r}")
        if x.numerator < 0:
            raise ValueError(f"negative label {x} on vertex {v!r}")
        out[v] = x
    return out


def integer_form(values: dict) -> tuple[dict, int]:
    """A map of Fractions as (integers, den): each value times den, the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in values.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in values.items()}, den
