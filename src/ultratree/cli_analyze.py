"""The analyze verb's handler, which cli.main imports only to run it (see cli.VERBS)."""

from .errors import ParseError


def cmd_analyze(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    if doc.weights is None:
        raise ParseError("analyze needs weights")
    report = cli.analyze(doc.tree(), doc.weights, root=doc.root)
    out = {name: getattr(report, name) for name in ("planted", "centers", "is_star", "phylo_shape")}
    for name in ("K", "branching_lhs", "branching_rhs"):
        value = getattr(report, name)
        out[name] = None if value is None else cli.format_rational(value)
    return tio.dump_json(out)
