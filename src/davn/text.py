"""Rendering of derived objects as text and markdown.

A command imports this module only for a text or markdown report, so a
``--format json`` command compiles none of it.  Like `davn.reports`, it
reads only the engine: the cells a table row shares with its JSON form
(the lifted constraints, the residual's ket sum) come from
`davn.postselect`, which a report with no table row does not load.
"""

from __future__ import annotations

from .states import BasisKet, outcome_digits, phase_str, ratio_str

# Type checkers take any TYPE_CHECKING as true; at run time the block is
# skipped, so rendering a report does not import typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .checks import Check
    from .fixtures import DiffReport
    from .lhv import DavnReport, ParadoxReport
    from .postselect import ConstraintRow
    from .sampling import SampleSummary


def outcome_label(outcome: BasisKet) -> str:
    eigenvalues = ",".join(map(phase_str, outcome))
    return f"outcome {outcome_digits(outcome)} (Z = {eigenvalues})"


# --- condition tables -----------------------------------------------------


def _row_cells(row: ConstraintRow) -> tuple[str, str, str, str]:
    from .postselect import lift_words, render_state

    basic, extended = lift_words(row, row.basic, row.extended)
    return (
        row.pair.describe(),
        render_state(row.residual),
        str(basic) if basic else "---",
        str(extended) if extended else "---",
    )


def render_table_text(
    label: str, blocks: list[tuple[BasisKet, tuple[ConstraintRow, ...]]]
) -> str:
    lines = [f"condition table {label}"]
    for number, (outcome, rows) in enumerate(blocks, start=1):
        lines.append(f"\nblock {number}: {outcome_label(outcome)}")
        cells = [_row_cells(row) for row in rows]
        widths = [max(len(c[i]) for c in cells) for i in range(4)]
        for c in cells:
            lines.append(
                "  "
                + "   ".join(c[i].ljust(widths[i]) for i in range(4)).rstrip()
            )
    return "\n".join(lines) + "\n"


def render_table_markdown(
    label: str, blocks: list[tuple[BasisKet, tuple[ConstraintRow, ...]]]
) -> str:
    lines = [f"## Condition table {label}"]
    for number, (outcome, rows) in enumerate(blocks, start=1):
        lines.append(f"\n### Block {number}: {outcome_label(outcome)}")
        lines.append("| pair | residual | basic | extended |")
        lines.append("|---|---|---|---|")
        for row in rows:
            cells = (c.replace("|", "\\|") for c in _row_cells(row))
            lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# --- paradox and aggregate reports ----------------------------------------


def render_paradox_text(report: ParadoxReport) -> str:
    lines = [
        outcome_label(report.outcome),
        f"type: {report.type_label or 'unclassified'}    "
        f"probability: {ratio_str(*report.probability)}",
        "",
        "pair conditions:",
    ]
    for cells in map(_row_cells, report.rows):
        lines.append(f"  {cells[0]}  ->  {cells[2]}   [extended: {cells[3]}]")
    lines.append("")
    if report.satisfiable:
        values = ",".join(map(str, report.witness))
        lines.append(f"LHV model EXISTS: X values i^({values})")
        lines.append("no paradox for this outcome")
    else:
        lines.append("LHV model: none (all 256 assignments violate a constraint)")
        lines.append("minimal unsatisfiable core:")
        for constraint in report.minimal_core:
            lines.append(f"  {constraint}")
        lines.append(
            "extended-only constraints already unsatisfiable: "
            + ("yes" if report.extended_only_unsatisfiable else "no")
        )
    return "\n".join(lines) + "\n"


def render_davn_text(report: DavnReport) -> str:
    lines = [
        f"verdict: {report.verdict}",
        f"supported outcomes: {report.support_size}",
        f"probability covered: {ratio_str(*report.probability_sum)}",
        "refuted outcomes: "
        f"{sum(not r.satisfiable for r in report.reports)}/{report.support_size}",
        "type census: "
        + ", ".join(f"{k}: {v}" for k, v in report.type_counts.items()),
        "extended-only refutation everywhere: "
        + ("yes" if all(r.extended_only_unsatisfiable for r in report.reports)
           else "no"),
    ]
    if report.failing_outcomes:
        lines.append(
            "outcomes with an LHV model: "
            + ", ".join(outcome_digits(o) for o in report.failing_outcomes)
        )
    lines.append("")
    lines.append("per-outcome summary (outcome, type, core size):")
    for r in report.reports:
        core = len(r.minimal_core) if r.minimal_core is not None else "-"
        lines.append(
            f"  {outcome_digits(r.outcome)}  {r.type_label or '?':6}  "
            f"{'unsat' if not r.satisfiable else 'SAT':5}  core={core}"
        )
    return "\n".join(lines) + "\n"


# --- state checks, sampling, fixtures diff --------------------------------


def render_checks_text(name: str, checks: list[Check]) -> str:
    lines = [f"state: {name}"]
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.name}")
        lines.append(f"       {c.detail}")
    lines.append(
        "result: " + ("PASS" if all(c.passed for c in checks) else "FAIL")
    )
    return "\n".join(lines) + "\n"


def two_decimals(num: int, den: int) -> str:
    """A non-negative ``num / den`` rounded half-even to two decimals, exactly.

    ``format(num / den, ".2f")`` rounds the nearest double instead, so it
    gives 2.67 for 107/40 = 2.675.
    """
    cents, rest = divmod(100 * num, den)
    if 2 * rest > den or 2 * rest == den and cents % 2:
        cents += 1
    whole, hundredths = divmod(cents, 100)
    return f"{whole}.{hundredths:02d}"


def render_sample_text(state_name: str, summary: SampleSummary) -> str:
    deviation = summary.max_abs_deviation
    lines = [
        f"state: {state_name}   runs: {summary.runs}   seed: {summary.seed}",
        f"generator: {summary.generator}",
        f"max deviation from expectation: {ratio_str(*deviation)} "
        f"(= {two_decimals(*deviation)})",
        "counts:",
    ]
    for ket, count in sorted(summary.counts.items()):
        lines.append(f"  {outcome_digits(ket)}: {count}")
    return "\n".join(lines) + "\n"


def render_diff_text(report: DiffReport) -> str:
    lines = [
        f"rows checked: {report.total_rows}",
        f"fully matched: {report.matched_rows}",
        f"known discrepancies (allowlisted): {len(report.allowlisted)}",
    ]
    for verdict, entry in report.allowlisted:
        lines.append(
            f"  [{entry.tag}] table {verdict.row.table} row "
            f"{verdict.row.index} ({entry.kind}): {entry.note}"
        )
    if report.failures:
        lines.append(f"FAILURES: {len(report.failures)}")
        for verdict in report.failures:
            lines.append(
                f"  table {verdict.row.table} row {verdict.row.index} "
                f"pair {verdict.row.pair.describe()}: "
                + "; ".join(verdict.reasons)
            )
    if report.unused_allowlist:
        lines.append("allowlist entries that no longer fire:")
        for entry in report.unused_allowlist:
            lines.append(
                f"  table {entry.table} row {entry.index} kind {entry.kind}"
            )
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines) + "\n"
