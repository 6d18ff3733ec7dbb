"""The argparse parser of the CLI grammar, which prints help and diagnoses malformed calls.

Only `--help` and the calls that cli._plain_args does not read load this
module, and with it argparse and the gettext and locale modules argparse
imports.  It takes the grammar as arguments rather than import the CLI module.
"""

from __future__ import annotations

import argparse
import re


class HelpFormatter(argparse.HelpFormatter):
    """argparse's help in the layout of Python 3.10-3.12 on every release.  3.13 keeps a long usage line's
    parts whole (`{repr,...} ...` stays on one line) and names an option's value once (`--output, -o OUTPUT`)."""

    def _get_actions_usage_parts(self, actions, groups):  # 3.13+: split the usage text as 3.10-3.12 do
        usage = " ".join(super()._get_actions_usage_parts(actions, groups))
        return re.findall(r"\(.*?\)+(?=\s|$)|\[.*?\]+(?=\s|$)|\S+", usage)

    def _format_action_invocation(self, action):  # each option string with its value, as 3.10-3.12 write it
        if not action.option_strings or action.nargs == 0:
            return super()._format_action_invocation(action)
        value = self._format_args(action, self._get_default_metavar_for_optional(action))
        return ", ".join(f"{option} {value}" for option in action.option_strings)


def parser_of(verbs: dict, description: str) -> argparse.ArgumentParser:
    """The parser of a grammar laid out as cli.VERBS, with the program's description."""
    parser = argparse.ArgumentParser(prog="ultratree", description=description, formatter_class=HelpFormatter)
    parser.add_argument("--output", "-o", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, verb_help, flags, choices, positionals) in verbs.items():
        p = sub.add_parser(verb, help=verb_help, formatter_class=HelpFormatter)
        group = p.add_mutually_exclusive_group() if len(flags) > 1 else p
        for flag, flag_help in flags.items():
            group.add_argument(flag, action="store_true", help=flag_help)
        for option, values in choices.items():
            p.add_argument(option, required=True, choices=values)
        for name in positionals:
            p.add_argument(name)
        p.set_defaults(func=func)
    return parser
