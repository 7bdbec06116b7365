"""``davn verify-state``: run a state's exact check suite."""

from __future__ import annotations

from .. import cli


def run(*, state: str, format: str) -> tuple[str, int]:
    checks = cli.run_state_checks(state)
    if format == "json":
        text = cli.reports.checks_json(state, checks)
    else:
        from ..text import render_checks_text

        text = render_checks_text(state, checks)
    return text, 0 if all(c.passed for c in checks) else 1
