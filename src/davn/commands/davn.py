"""``davn davn``: refute the LHV model for every supported outcome."""

from __future__ import annotations

from .. import cli


def run(*, state: str, format: str) -> tuple[str, int]:
    report = cli.verify_davn(cli.build_state(state))
    if format == "json":
        text = cli.reports.davn_json(report)
    else:
        from ..text import render_davn_text

        text = render_davn_text(report)
    return text, 0 if report.verdict == "DAVN" else 1
