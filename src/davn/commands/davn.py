"""``davn davn``: refute the LHV model for every supported outcome."""

from __future__ import annotations

from types import SimpleNamespace

from .. import cli

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


def run(args: argparse.Namespace | SimpleNamespace) -> int:
    state = cli.build_state(args.state)
    report = cli.verify_davn(state)
    if args.format == "json":
        cli._emit(cli.reports.davn_json(report), args.output)
    else:
        from ..text import render_davn_text

        cli._emit(render_davn_text(report), args.output)
    return 0 if report.verdict == "DAVN" else 1
