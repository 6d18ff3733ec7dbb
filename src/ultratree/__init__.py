"""Exact toolkit for finite ultrametric spaces and weighted/labeled trees.

The public names below are imported from their submodule on first access
(PEP 562), so ``import ultratree`` or ``python -m ultratree.cli`` loads only
the modules a caller uses.  A submodule is an attribute once it is imported,
as in any package: ``from ultratree import io`` imports it.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Graph", "RootedTree", "Tree"), "graphs"),
    "edge_key": "payloads",
    **dict.fromkeys(("FiniteMetricSpace", "classify_metric", "label_tree_metric"), "metrics"),
    **dict.fromkeys(
        ("MetricClass", "additive_metric", "hausdorff_distance", "minimax_label_metric", "shortest_path_metric"),
        "path_metrics",
    ),
    **dict.fromkeys(("Ballean", "LabeledRootedTree", "ballean", "ballean_tree", "representing_tree"), "representing"),
    **dict.fromkeys(("diametrical_graph", "multipartite_parts", "restrict"), "spaces"),
    **dict.fromkeys(("IsoFlavor", "are_isomorphic", "isometry_search", "ultrametric_isometric"), "canonical"),
    **dict.fromkeys(("canonical_code", "tree_centers"), "tree_codes"),
    **dict.fromkeys(("is_isometry", "is_isomorphism", "leaf_swap_isometry"), "checkers"),
    **dict.fromkeys(
        ("EquidistantTree", "MonotoneTree", "check_equidistant", "check_monotone", "degree_sets",
         "labeling_to_weight", "weight_to_labeling"),
        "duality",
    ),
    "generate_monotone": "random_monotone",
    **dict.fromkeys(
        ("NablaResult", "bottleneck_spanning_tree", "cyclic_weight_counterexample", "reduce_nabla"), "transforms"
    ),
    **dict.fromkeys(
        ("StructureReport", "analyze", "centers", "is_star", "phylo_shape", "planted_leaf_ultrametric_check"),
        "analysis",
    ),
    **dict.fromkeys(
        ("DiameterBound", "diameter_bound_check", "nabla_geometric_membership", "passthrough_counterexample_pair",
         "sphere_center_check", "star_equidistant_witness"),
        "propositions",
    ),
    **dict.fromkeys(("format_rational", "parse_rational"), "rational"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
