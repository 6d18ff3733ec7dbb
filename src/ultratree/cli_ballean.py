"""The ballean verb's handler, which cli.main imports only to run it (see cli.VERBS)."""


def cmd_ballean(cli, args) -> str:
    tio = cli.tio
    space = tio.load_matrix_text(cli._read(args.input))
    if args.tree:
        return tio.dump_json(tio.labeled_tree_to_json(cli.ballean_tree(space)))
    balls = cli.ballean(space)
    return tio.dump_json({"points": list(space.points), "balls": [sorted(b) for b in balls.balls]})
