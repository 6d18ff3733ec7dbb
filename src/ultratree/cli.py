"""Command-line front end.

Verbs: repr, iso, isometry, dual, reduce, spanning, analyze, ballean,
counterexample, selftest.  Inputs are JSON graph documents or distance
matrices (JSON or CSV); "-" reads stdin.  Domain failures print an error
object and exit 1, parse failures exit 2; output is deterministic for fixed
inputs and ULTRATREE_SEED.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from .errors import ParseError, UltratreeError

# IsoFlavor values, in order, so that building the parser imports no library
ISO_FLAVORS = ("free", "rooted", "vlabel", "eweight", "rlabel", "rweight")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _load(*names: str) -> None:
    """Bind each library name in this module's globals unless it is bound.

    Names come through the package (`tio` is its `io`) on first use.  The
    handlers look them up at call time, so a verb loads only its own modules
    and a name rebound on this module (as the traced replay does) is the one
    that runs."""
    scope, package = globals(), sys.modules[__package__]
    for name in names:
        if name not in scope:
            scope[name] = getattr(package, "io" if name == "tio" else name)


def __getattr__(name: str):
    if name != "tio" and name not in sys.modules[__package__].__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(name)
    return globals()[name]


def _read(path: str) -> str:
    # a file and stdin alike: strict UTF-8, with the universal newlines of text-mode open()
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {output}: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit is quiet
            raise ParseError(f"cannot write stdout: {exc}") from exc


def _error_json(exc: Exception) -> str:
    # ValueError: contract violations inside otherwise well-formed documents
    code = exc.code if isinstance(exc, UltratreeError) else "invalid-input"
    return tio.dump_json({"error": {"code": code, "message": str(exc)}})


def _cmd_repr(args) -> str:
    _load("label_tree_metric", "representing_tree")
    if args.labeled_tree:
        doc = tio.load_graph_text(_read(args.input))
        if doc.labels is None:
            raise ParseError("labeled-tree input needs labels")
        space, _ = label_tree_metric(doc.tree(), doc.labels)
    else:
        space = tio.load_matrix_text(_read(args.input))
    return tio.dump_json(tio.labeled_tree_to_json(representing_tree(space)))


def _cmd_iso(args) -> str:
    from .canonical import _payloads

    _load("IsoFlavor", "are_isomorphic")
    flavor = IsoFlavor(args.flavor)
    a, b = (tio.load_graph_text(_read(path)) for path in (args.left, args.right))
    (l1, w1, r1), (l2, w2, r2) = (_payloads(flavor, doc.labels, doc.weights, doc.root) for doc in (a, b))
    return tio.dump_json({"isomorphic": are_isomorphic(a.graph, b.graph, flavor, l1, l2, w1, w2, r1, r2)})


def _cmd_isometry(args) -> str:
    _load("ultrametric_isometric", "isometry_search")
    s1, s2 = (tio.load_matrix_text(_read(path)) for path in (args.left, args.right))
    if args.fast_ultrametric:
        return tio.dump_json({"isometric": ultrametric_isometric(s1, s2), "bijection": None})
    found = isometry_search(s1, s2)
    return tio.dump_json({"isometric": found is not None, "bijection": found})


def _cmd_dual(args) -> str:
    _load("EquidistantTree", "MonotoneTree", "weight_to_labeling", "labeling_to_weight")
    doc = tio.load_graph_text(_read(args.input))
    rt = doc.rooted()
    if args.direction == "w2l":
        if doc.weights is None:
            raise ParseError("w2l needs weights")
        et = EquidistantTree(rt, doc.weights)
        mt = weight_to_labeling(et)
    else:
        if doc.labels is None:
            raise ParseError("l2w needs labels")
        mt = MonotoneTree(rt, doc.labels)
        et = labeling_to_weight(mt)
    return tio.dump_json(tio.graph_to_json(rt.tree, root=rt.root, weights=et.weights, labels=mt.labels))


def _cmd_reduce(args) -> str:
    _load("EquidistantTree", "reduce_nabla")
    doc = tio.load_graph_text(_read(args.input))
    if doc.weights is None:
        raise ParseError("reduce needs weights")
    result = reduce_nabla(EquidistantTree(doc.rooted(), doc.weights))
    rt = result.reduced.rt
    tree_doc = tio.graph_to_json(rt.tree, root=rt.root, weights=result.reduced.weights)
    return tio.dump_json({"tree": tree_doc, "removed": sorted(result.removed), "new_root": result.new_root})


def _cmd_spanning(args) -> str:
    _load("bottleneck_spanning_tree")
    doc = tio.load_graph_text(_read(args.input))
    if doc.labels is None:
        raise ParseError("spanning needs labels")
    tree = bottleneck_spanning_tree(doc.graph, doc.labels)
    return tio.dump_json(tio.graph_to_json(tree, labels=doc.labels))


def _cmd_analyze(args) -> str:
    _load("analyze", "format_rational")
    doc = tio.load_graph_text(_read(args.input))
    if doc.weights is None:
        raise ParseError("analyze needs weights")
    report = analyze(doc.tree(), doc.weights, root=doc.root)
    out = {name: getattr(report, name) for name in ("planted", "centers", "is_star", "phylo_shape")}
    for name in ("K", "branching_lhs", "branching_rhs"):
        value = getattr(report, name)
        out[name] = None if value is None else format_rational(value)
    return tio.dump_json(out)


def _cmd_ballean(args) -> str:
    _load("ballean", "ballean_tree")
    space = tio.load_matrix_text(_read(args.input))
    if args.tree:
        return tio.dump_json(tio.labeled_tree_to_json(ballean_tree(space)))
    balls = ballean(space)
    return tio.dump_json({"points": list(space.points), "balls": [sorted(b) for b in balls.balls]})


def _cmd_counterexample(args) -> str:
    _load("cyclic_weight_counterexample")
    doc = tio.load_graph_text(_read(args.input))
    w1, w2 = cyclic_weight_counterexample(doc.graph)
    return tio.dump_json(
        {"graph": tio.graph_to_json(doc.graph), "w1": tio.weights_to_json(w1), "w2": tio.weights_to_json(w2)}
    )


def _cmd_selftest(args) -> str:
    from .selftest import env_seed, run_selftest

    report, ok = run_selftest(env_seed())
    if not ok:
        raise UltratreeError("selftest failed:\n" + report)
    return report


# The CLI grammar, which build_parser and _plain_args both read.  Each verb maps
# to (handler, help, {flag: help}, {choice option: choices}, positional names);
# a verb's flags exclude one another and each choice option is required.
VERBS = {
    "repr": (_cmd_repr, "hierarchy tree of an ultrametric space",
             {"--matrix": "input is a distance matrix (default)",
              "--labeled-tree": "input is a labeled tree; use its max-label metric"}, {}, ("input",)),
    "iso": (_cmd_iso, "tree/graph isomorphism for a flavor", {}, {"--flavor": ISO_FLAVORS}, ("left", "right")),
    "isometry": (_cmd_isometry, "isometry of two finite metric spaces",
                 {"--fast-ultrametric": "compare hierarchy-tree codes instead of searching"}, {}, ("left", "right")),
    "dual": (_cmd_dual, "switch between equidistant weights and monotone labels", {},
             {"--direction": ("w2l", "l2w")}, ("input",)),
    "reduce": (_cmd_reduce, "suppress out-degree-one vertices of an equidistant tree", {}, {}, ("input",)),
    "spanning": (_cmd_spanning, "spanning tree realizing the minimax label metric", {}, {}, ("input",)),
    "analyze": (_cmd_analyze, "structure report for a weighted tree", {}, {}, ("input",)),
    "ballean": (_cmd_ballean, "all balls of an ultrametric space",
                {"--tree": "emit the hierarchy tree of the ball space"}, {}, ("input",)),
    "counterexample": (_cmd_counterexample, "two isometric but non-isomorphic weightings of a cyclic graph",
                       {}, {}, ("input",)),
    "selftest": (_cmd_selftest, "run the bundled figure corpus", {}, {}, ()),
}


def build_parser():
    """The argparse parser of VERBS: it prints help and diagnoses malformed calls."""
    import argparse

    parser = argparse.ArgumentParser(prog="ultratree", description=__doc__)
    parser.add_argument("--output", "-o", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, verb_help, flags, choices, positionals) in VERBS.items():
        p = sub.add_parser(verb, help=verb_help)
        group = p.add_mutually_exclusive_group() if len(flags) > 1 else p
        for flag, flag_help in flags.items():
            group.add_argument(flag, action="store_true", help=flag_help)
        for option, values in choices.items():
            p.add_argument(option, required=True, choices=values)
        for name in positionals:
            p.add_argument(name)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: list) -> SimpleNamespace | None:
    """The namespace build_parser gives for a plain spelling of a call, else None: an
    optional leading -o/--output FILE, the verb, then in any order each of its flags
    at most once, each choice option once with a listed value and exactly its
    positionals, where "-" is one.  argparse takes any other argv."""
    output = None
    if len(argv) > 1 and argv[0] in ("-o", "--output") and (argv[1] == "-" or argv[1][:1] != "-"):
        output, argv = argv[1], argv[2:]
    if not argv or argv[0] not in VERBS:
        return None
    func, _, flags, choices, names = VERBS[argv[0]]
    given, positionals, tokens = {}, [], iter(argv[1:])
    for token in tokens:
        if token == "-" or token[:1] != "-":
            positionals.append(token)
        elif token in flags and token not in given:
            given[token] = True
        elif token in choices and token not in given and (value := next(tokens, None)) in choices[token]:
            given[token] = value
        else:
            return None
    if len(positionals) != len(names) or not choices.keys() <= given.keys() or len(given.keys() & flags.keys()) > 1:
        return None
    options = {option[2:].replace("-", "_"): given.get(option, False) for option in (*flags, *choices)}
    return SimpleNamespace(output=output, verb=argv[0], func=func, **options, **dict(zip(names, positionals)))


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else list(argv)) or build_parser().parse_args(argv)
    _load("tio")
    try:
        text, status = args.func(args), EXIT_OK
    except (UltratreeError, ValueError) as exc:
        text, status = _error_json(exc), EXIT_PARSE if isinstance(exc, ParseError) else EXIT_DOMAIN
    try:
        _emit(text, args.output)
    except ParseError as exc:  # the output cannot take the error object either
        (sys.stdout if args.output and args.output != "-" else sys.stderr).write(_error_json(exc))
        return EXIT_PARSE
    return status


def run() -> None:
    """Run main() for `python -m ultratree.cli` and the `ultratree` script, then end the
    process without the interpreter's teardown, which frees every object (about 10 ms):
    the atexit callbacks run, both streams are flushed and os._exit ends it.  An exception
    out of main(), a failed flush, and a profiler, tracer or monitoring tool (cProfile is
    one on 3.12+) take the usual exit."""
    status = main()
    monitoring = getattr(sys, "monitoring", None)  # 3.12+, whose tool ids are 0-5
    if sys.getprofile() or sys.gettrace() or monitoring and any(map(monitoring.get_tool, range(6))):
        sys.exit(status)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the usual exit reports it, as it always has
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
