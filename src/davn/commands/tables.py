"""``davn tables``: regenerate a condition table from the state."""

from __future__ import annotations

from .. import cli
from ..factory import TABLE_BLOCKS, canonical_table_label


def run(*, table: str, format: str) -> tuple[str, int]:
    label = canonical_table_label(table)
    state = cli.build_state("psi1234")
    blocks = [
        (outcome, cli.table_for_outcome(state, outcome))
        for outcome in TABLE_BLOCKS[label]
    ]
    if format == "json":
        text = cli.reports.render_table_json(label, blocks)
    elif format in ("markdown", "md"):
        from ..text import render_table_markdown

        text = render_table_markdown(label, blocks)
    else:
        from ..text import render_table_text

        text = render_table_text(label, blocks)
    return text, 0
