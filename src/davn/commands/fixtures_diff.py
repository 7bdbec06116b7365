"""``davn fixtures-diff``: diff the transcribed reference tables against
the derivation, honouring the discrepancy allowlist."""

from __future__ import annotations

from pathlib import Path

from .. import cli
from ..factory import TABLE_LABELS


def run(*, dir: str | None, format: str) -> tuple[str, int]:
    packaged = Path(__file__).parent.with_name("fixtures")
    fixdir = packaged if dir is None else Path(dir)
    state = cli.build_state("psi1234")
    rows = []
    # utf-8-sig skips a byte-order mark at the start of a file.
    for label in TABLE_LABELS:
        resource = fixdir / f"table_{label}.txt"
        try:
            table = cli.parse_fixture_text(
                resource.read_text(encoding="utf-8-sig"), label
            )
            cli.check_table_shape(table, label)
        except FileNotFoundError as exc:
            raise ValueError(f"missing fixture table {label}: {exc}") from exc
        except (ValueError, OSError) as exc:
            raise ValueError(f"{resource.name}: {exc}") from exc
        rows += table
    resource = fixdir / "allowlist.txt"
    try:
        # A missing allowlist excuses nothing; an unreadable or
        # undecodable one is an input error that names the file.
        try:
            allowlist_text = resource.read_text(encoding="utf-8-sig")
        except FileNotFoundError:
            allowlist_text = ""
        report = cli.diff_fixture_rows(
            state, rows, cli.parse_allowlist(allowlist_text)
        )
    except (ValueError, OSError) as exc:
        raise ValueError(f"{resource.name}: {exc}") from exc
    if format == "json":
        text = cli.reports.diff_json(report)
    else:
        from ..text import render_diff_text

        text = render_diff_text(report)
    return text, 0 if report.ok else 1
