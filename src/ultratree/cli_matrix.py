"""Handlers of the verbs on distance matrices: repr, isometry and ballean.

cli.main imports this module only to run one of them.  Each handler takes the
CLI's names and the parsed arguments, and reads every public library name,
`tio` and `_read` from those names, never by an import of its own (see cli.VERBS).
"""

from __future__ import annotations

from .errors import ParseError


def cmd_repr(cli, args) -> str:
    tio = cli.tio
    if args.labeled_tree:
        doc = tio.load_graph_text(cli._read(args.input))
        if doc.labels is None:
            raise ParseError("labeled-tree input needs labels")
        space, _ = cli.label_tree_metric(doc.tree(), doc.labels)
    else:
        space = tio.load_matrix_text(cli._read(args.input))
    return tio.dump_json(tio.labeled_tree_to_json(cli.representing_tree(space)))


def cmd_isometry(cli, args) -> str:
    tio = cli.tio
    s1, s2 = (tio.load_matrix_text(cli._read(path)) for path in (args.left, args.right))
    if args.fast_ultrametric:
        return tio.dump_json({"isometric": cli.ultrametric_isometric(s1, s2), "bijection": None})
    found = cli.isometry_search(s1, s2)
    return tio.dump_json({"isometric": found is not None, "bijection": found})


def cmd_ballean(cli, args) -> str:
    tio = cli.tio
    space = tio.load_matrix_text(cli._read(args.input))
    if args.tree:
        return tio.dump_json(tio.labeled_tree_to_json(cli.ballean_tree(space)))
    balls = cli.ballean(space)
    return tio.dump_json({"points": list(space.points), "balls": [sorted(b) for b in balls.balls]})
