"""The reduce verb's handler, which cli.main imports only to run it (see cli.VERBS)."""

from .errors import ParseError


def cmd_reduce(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    if doc.weights is None:
        raise ParseError("reduce needs weights")
    result = cli.reduce_nabla(cli.EquidistantTree(doc.rooted(), doc.weights))
    rt = result.reduced.rt
    tree_doc = tio.graph_to_json(rt.tree, root=rt.root, weights=result.reduced.weights)
    return tio.dump_json({"tree": tree_doc, "removed": sorted(result.removed), "new_root": result.new_root})
