"""``davn verify-state``: run a state's exact check suite."""

from __future__ import annotations

from types import SimpleNamespace

from .. import cli

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


def run(args: argparse.Namespace | SimpleNamespace) -> int:
    checks = cli.run_state_checks(args.state)
    if args.format == "json":
        cli._emit(cli.reports.checks_json(args.state, checks), args.output)
    else:
        from ..text import render_checks_text

        cli._emit(render_checks_text(args.state, checks), args.output)
    return 0 if all(c.passed for c in checks) else 1
