"""The isometry verb's handler, which cli.main imports only to run it (see cli.VERBS)."""


def cmd_isometry(cli, args) -> str:
    tio = cli.tio
    s1, s2 = (tio.load_matrix_text(cli._read(path)) for path in (args.left, args.right))
    if args.fast_ultrametric:
        return tio.dump_json({"isometric": cli.ultrametric_isometric(s1, s2), "bijection": None})
    found = cli.isometry_search(s1, s2)
    return tio.dump_json({"isometric": found is not None, "bijection": found})
