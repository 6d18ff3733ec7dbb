"""Command-line front end.

Verbs: repr, iso, isometry, dual, reduce, spanning, analyze, ballean,
counterexample, selftest.  Inputs are JSON graph documents or distance
matrices (JSON or CSV); "-" reads stdin.  Domain failures print an error
object and exit 1, parse failures exit 2; output is deterministic for fixed
inputs and ULTRATREE_SEED.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import ParseError, UltratreeError

# IsoFlavor values, in order, so that building the parser imports no library
ISO_FLAVORS = ("free", "rooted", "vlabel", "eweight", "rlabel", "rweight")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def __getattr__(name: str):
    """A library name (`tio` is the package's io) on first use, bound in this module."""
    package = sys.modules[__package__]
    if name != "tio" and name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = import_module(".io", __package__) if name == "tio" else getattr(package, name)
    return value


class _Names:
    """This module's names, read at each access, for the handlers (see VERBS).  Not the
    module object: `python -m cProfile -m ultratree.cli` runs this code in a bare dict."""

    __slots__ = ()

    def __getattr__(self, name: str):
        return globals()[name] if name in globals() else __getattr__(name)  # the module's, which binds it


_NAMES = _Names()


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
    return _NAMES.tio.dump_json({"error": {"code": code, "message": str(exc)}})


# The CLI grammar, which build_parser and _plain_args both read.  Each verb maps
# to (handler, help, {flag: help}, {choice option: choices}, positional names);
# a verb's flags exclude one another and each choice option is required.  A
# handler is named "module.function": main imports that module of the package
# only to run it, so a call compiles no other verb's handler, and calls it
# with _NAMES and the parsed arguments.  A handler reads every public library
# name, `tio` and `_read` from _NAMES, never by an import of its own, so a name
# rebound in this module (as the traced benchmark replay rebinds them) is the
# one that runs.  No handler imports this module: under `python -m
# ultratree.cli` it runs as __main__, and an import would compile it again.
VERBS = {
    "repr": ("cli_repr.cmd_repr", "hierarchy tree of an ultrametric space",
             {"--matrix": "input is a distance matrix (default)",
              "--labeled-tree": "input is a labeled tree; use its max-label metric"}, {}, ("input",)),
    "iso": ("cli_iso.cmd_iso", "tree/graph isomorphism for a flavor", {}, {"--flavor": ISO_FLAVORS},
            ("left", "right")),
    "isometry": ("cli_isometry.cmd_isometry", "isometry of two finite metric spaces",
                 {"--fast-ultrametric": "compare hierarchy-tree codes instead of searching"}, {}, ("left", "right")),
    "dual": ("cli_dual.cmd_dual", "switch between equidistant weights and monotone labels", {},
             {"--direction": ("w2l", "l2w")}, ("input",)),
    "reduce": ("cli_reduce.cmd_reduce", "suppress out-degree-one vertices of an equidistant tree", {}, {},
               ("input",)),
    "spanning": ("cli_spanning.cmd_spanning", "spanning tree realizing the minimax label metric", {}, {}, ("input",)),
    "analyze": ("cli_analyze.cmd_analyze", "structure report for a weighted tree", {}, {}, ("input",)),
    "ballean": ("cli_ballean.cmd_ballean", "all balls of an ultrametric space",
                {"--tree": "emit the hierarchy tree of the ball space"}, {}, ("input",)),
    "counterexample": ("cli_counterexample.cmd_counterexample",
                       "two isometric but non-isomorphic weightings of a cyclic graph", {}, {}, ("input",)),
    "selftest": ("selftest.cmd_selftest", "run the bundled figure corpus", {}, {}, ()),
}


def build_parser():
    """The argparse parser of VERBS: it prints help and diagnoses malformed calls."""
    from .cli_parser import parser_of

    return parser_of(VERBS, __doc__)


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
    module, _, name = args.func.partition(".")
    handler = getattr(import_module(f".{module}", __package__), name)
    try:
        text, status = handler(_NAMES, args), EXIT_OK
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
    gc.disable()  # one call a process, and the reference cycles a call leaves do not grow with its input
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
