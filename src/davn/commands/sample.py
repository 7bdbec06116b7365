"""``davn sample``: a seeded draw from the joint-Z distribution."""

from __future__ import annotations

from .. import cli


def run(*, runs: int, seed: int, state: str, format: str) -> tuple[str, int]:
    # Looked up on its module at each call, where a tracer replaces it.
    from ..sampling import sample_outcomes

    summary = sample_outcomes(cli.build_state(state), runs, seed)
    if format == "json":
        text = cli.reports.sample_json(state, summary)
    else:
        from ..text import render_sample_text

        text = render_sample_text(state, summary)
    return text, 0
