"""The argparse parser of the CLI grammar, which prints help and diagnoses malformed calls.

Only `--help` and the calls that cli._plain_args does not read load this
module, and with it argparse and the gettext and locale modules argparse
imports.  It takes the grammar as arguments rather than import the CLI module.
"""

from __future__ import annotations

import argparse


def parser_of(verbs: dict, description: str) -> argparse.ArgumentParser:
    """The parser of a grammar laid out as cli.VERBS, with the program's description."""
    parser = argparse.ArgumentParser(prog="ultratree", description=description)
    parser.add_argument("--output", "-o", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, verb_help, flags, choices, positionals) in verbs.items():
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
