"""``davn sample``: a seeded draw from the joint-Z distribution."""

from __future__ import annotations

from types import SimpleNamespace

from .. import cli

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


def run(args: argparse.Namespace | SimpleNamespace) -> int:
    # Looked up on its module at each call, where a tracer replaces it.
    from ..sampling import sample_outcomes

    state = cli.build_state(args.state)
    summary = sample_outcomes(state, args.runs, args.seed)
    if args.format == "json":
        cli._emit(cli.reports.sample_json(args.state, summary), args.output)
    else:
        from ..text import render_sample_text

        cli._emit(render_sample_text(args.state, summary), args.output)
    return 0
