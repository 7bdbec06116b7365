"""The argparse parser of the ``davn`` command line, built from
``cli.COMMANDS``.  ``cli.main`` imports this module only for what its
plain parser declines: help, usage errors and unusual syntax."""

from __future__ import annotations

import argparse
import sys

from . import cli


class Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse drops a failed write
        if file is None and sys.stdout is not None:
            return cli._emit(self.format_help(), None)
        super().print_help(file)


def build_parser() -> Parser:
    parser = Parser(
        prog="davn",
        description=(
            "Exact verification of a four-ququart deterministic "
            "all-versus-nothing Bell-nonlocality argument."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flags, keywords in (*options, *cli._COMMON):
            p.add_argument(*flags, **keywords)
    return parser
