"""The counterexample verb's handler, which cli.main imports only to run it (see cli.VERBS)."""


def cmd_counterexample(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    w1, w2 = cli.cyclic_weight_counterexample(doc.graph)
    return tio.dump_json(
        {"graph": tio.graph_to_json(doc.graph), "w1": tio.weights_to_json(w1), "w2": tio.weights_to_json(w2)}
    )
