"""Rendering of derived objects as text, markdown and JSON.

JSON output is schema-stable: every dict is built in a fixed key order,
rationals are rendered as strings like ``1/56``, and nothing
time-dependent is included, so byte-identical reruns are guaranteed for
the non-sampling commands.  The schemas are documented in the README.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import isqrt

from .states import BasisKet, StateVector, phase_str, ratio_str

# Type checkers take any TYPE_CHECKING as true; at run time the block is
# skipped, so rendering a report does not import typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from .checks import Check
    from .fixtures import DiffReport
    from .lhv import DavnReport, ParadoxReport
    from .postselect import Constraint, ConstraintRow
    from .sampling import SampleSummary


def to_json(payload: dict[str, Any]) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte.

    Each value is rendered once per nesting depth: fragments are
    memoized on the value's id and depth for this call, while the payload
    keeps every value alive, so a subtree shared across the payload (a
    constraint cited by many outcomes) is encoded once.  Each container
    is one parts list and one join.  Scalars go through `_scalar`, keys
    through `_quote`; a float, or a key that is not a string, raises
    TypeError.
    """
    memo: dict[tuple[int, int], str] = {}

    def render(value: Any, depth: int) -> str:
        key = (id(value), depth)
        text = memo.get(key)
        if text is None:
            # Each item is led by a comma, a newline and its indent.
            inner, parts = ",\n" + "  " * (depth + 1), []
            if isinstance(value, dict):
                for k, v in value.items():
                    parts += inner, _quote(k), ": ", render(v, depth + 1)
                text = "{}"
            elif isinstance(value, (list, tuple)):
                for v in value:
                    parts += inner, render(v, depth + 1)
                text = "[]"
            else:
                text = _scalar(value)
            if parts:
                # The first comma becomes the opening bracket.
                parts[0] = text[0] + inner[1:]
                parts.append("\n" + "  " * depth + text[1])
                text = "".join(parts)
            memo[key] = text
        return text

    return render(payload, 0) + "\n"


#: JSON's short escapes; other characters outside ' '..'~' become \uXXXX.
_ESCAPES = {c: "\\" + e for c, e in zip('"\\\n\r\t\b\f', '"\\nrtbf')}


def _escape(char: str) -> str:
    if " " <= char <= "~" or char in _ESCAPES:
        return _ESCAPES.get(char, char)
    # One escape per UTF-16 unit: a surrogate pair above U+FFFF.
    units = char.encode("utf-16-be", "surrogatepass").hex(" ", 2)
    return "\\u" + units.replace(" ", "\\u")


def _quote(text: str) -> str:
    """A JSON string, as ``json.dumps`` writes it.  Anything but a str
    raises TypeError, from ``str.isascii``."""
    if str.isascii(text) and text.isprintable() and not ('"' in text or "\\" in text):
        return '"' + text + '"'
    return '"' + "".join(map(_escape, text)) + '"'


def _scalar(value: object) -> str:
    """A JSON scalar, as ``json.dumps`` writes it; a float raises TypeError."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return _quote(value)


def outcome_digits(outcome: BasisKet) -> str:
    return "".join(map(str, outcome))


def outcome_eigenvalues(outcome: BasisKet) -> str:
    return ",".join(map(phase_str, outcome))


def outcome_json(outcome: BasisKet) -> dict[str, Any]:
    return {
        "exponents": list(outcome),
        "eigenvalues": list(map(phase_str, outcome)),
    }


def render_amplitude_term(ket: BasisKet, t: int, first: bool) -> str:
    sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[t]
    if first and t in (0, 1):
        sign = sign[1:]
    return f"{sign}|{outcome_digits(ket)}>"


def render_state(state: StateVector) -> str:
    """Ket-sum rendering with the exact normalisation as a suffix."""
    parts = []
    for index, ket in enumerate(state.support()):
        parts.append(render_amplitude_term(ket, state.phases[ket], index == 0))
    body = "(" + "".join(parts) + ")"
    n = state.norm_sq
    if n == 1:
        return body
    root = isqrt(n)
    return body + (f"/{root}" if root * root == n else f"/sqrt({n})")


@cache
def constraint_json(constraint: Constraint) -> dict[str, Any]:
    """One shared dict per distinct constraint; callers must not mutate it."""
    return {
        "word": constraint.word_str(),
        "exponents": list(constraint.exps),
        "value": phase_str(constraint.target),
        "value_exponent": constraint.target,
    }


@lru_cache(maxsize=256)
def _constraint_list(constraints: tuple[Constraint, ...]) -> list[dict[str, Any]]:
    """One shared list per distinct constraint tuple; callers must not
    mutate it.  At most 256 are kept (a davn report of psi1234 and one of
    psi4-embedded need 57 together); an evicted list is rebuilt equal,
    so the bound changes only how much `to_json` can share."""
    return list(map(constraint_json, constraints))


@lru_cache(maxsize=256)
def _constraints_json(
    basic: tuple[Constraint, ...], extended: tuple[Constraint, ...]
) -> dict[str, Any]:
    """One shared ``constraints`` dict per distinct (basic, extended)
    pair; callers must not mutate it.  Bounded as `_constraint_list`."""
    return {"basic": _constraint_list(basic), "extended": _constraint_list(extended)}


# --- condition tables -----------------------------------------------------


def table_rows_json(rows: tuple[ConstraintRow, ...]) -> list[dict[str, Any]]:
    from .postselect import constraint_from_row

    out = []
    for row in rows:
        sites = row.sites
        basic, extended = (
            constraint_json(constraint_from_row(sites, word)) if word else None
            for word in (row.basic, row.extended)
        )
        out.append(
            {
                "pair": row.pair.describe(),
                "residual": render_state(row.residual),
                "basic": basic,
                "extended": extended,
                "eigenwords": [
                    constraint_json(constraint_from_row(sites, word))
                    for word in row.eigenwords
                ],
            }
        )
    return out


def _row_cells(row: ConstraintRow) -> tuple[str, str, str, str]:
    from .postselect import constraint_from_row

    sites = row.sites
    return (
        row.pair.describe(),
        render_state(row.residual),
        str(constraint_from_row(sites, row.basic)) if row.basic else "---",
        str(constraint_from_row(sites, row.extended)) if row.extended else "---",
    )


def render_table_text(
    label: str, blocks: list[tuple[BasisKet, tuple[ConstraintRow, ...]]]
) -> str:
    lines = [f"condition table {label}"]
    for number, (outcome, rows) in enumerate(blocks, start=1):
        lines.append(
            f"\nblock {number}: outcome {outcome_digits(outcome)} "
            f"(Z = {outcome_eigenvalues(outcome)})"
        )
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
        lines.append(
            f"\n### Block {number}: outcome {outcome_digits(outcome)} "
            f"(Z = {outcome_eigenvalues(outcome)})"
        )
        lines.append("| pair | residual | basic | extended |")
        lines.append("|---|---|---|---|")
        for row in rows:
            cells = (c.replace("|", "\\|") for c in _row_cells(row))
            lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_table_json(
    label: str, blocks: list[tuple[BasisKet, tuple[ConstraintRow, ...]]]
) -> str:
    return to_json(
        {
            "schema": "davn.tables/1",
            "table": label,
            "blocks": [
                {
                    "block": number,
                    "outcome": outcome_json(outcome),
                    "rows": table_rows_json(rows),
                }
                for number, (outcome, rows) in enumerate(blocks, start=1)
            ],
        }
    )


# --- paradox and aggregate reports ----------------------------------------


def paradox_json(report: ParadoxReport, include_rows: bool = False) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "outcome": outcome_json(report.outcome),
        "type": report.type_label,
        "probability": ratio_str(*report.probability),
        "constraints": _constraints_json(
            report.constraints_basic, report.constraints_extended
        ),
        "lhv_satisfiable": report.satisfiable,
        "witness": list(report.witness) if report.witness else None,
        "minimal_core": None if report.minimal_core is None
        else _constraint_list(report.minimal_core),
        "extended_only_unsatisfiable": report.extended_only_unsatisfiable,
    }
    if include_rows:
        payload["rows"] = table_rows_json(report.rows)
    return payload


def render_paradox_text(report: ParadoxReport) -> str:
    lines = [
        f"outcome {outcome_digits(report.outcome)} "
        f"(Z = {outcome_eigenvalues(report.outcome)})",
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


def davn_json(report: DavnReport) -> str:
    return to_json(
        {
            "schema": "davn.report/1",
            "verdict": report.verdict,
            "support_size": report.support_size,
            "probability_sum": ratio_str(*report.probability_sum),
            "type_counts": report.type_counts,
            "unsatisfiable_outcomes": sum(not r.satisfiable for r in report.reports),
            "failing_outcomes": [outcome_json(o) for o in report.failing_outcomes],
            "outcomes": [paradox_json(r) for r in report.reports],
        }
    )


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


def checks_json(name: str, checks: list[Check]) -> str:
    return to_json(
        {
            "schema": "davn.verify-state/1",
            "state": name,
            "passed": all(c.passed for c in checks),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
        }
    )


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


def sample_json(state_name: str, summary: SampleSummary) -> str:
    return to_json(
        {
            "schema": "davn.sample/1",
            "state": state_name,
            "seed": summary.seed,
            "runs": summary.runs,
            "generator": summary.generator,
            "max_abs_deviation": ratio_str(*summary.max_abs_deviation),
            "counts": [
                {"outcome": outcome_json(ket), "count": count}
                for ket, count in sorted(summary.counts.items())
            ],
        }
    )


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


def diff_json(report: DiffReport) -> str:
    return to_json(
        {
            "schema": "davn.fixtures-diff/1",
            "ok": report.ok,
            "total_rows": report.total_rows,
            "matched_rows": report.matched_rows,
            "allowlisted": [
                {
                    "table": verdict.row.table,
                    "row": verdict.row.index,
                    "kind": entry.kind,
                    "tag": entry.tag,
                    "note": entry.note,
                    "reasons": list(verdict.reasons),
                }
                for verdict, entry in report.allowlisted
            ],
            "failures": [
                {
                    "table": verdict.row.table,
                    "row": verdict.row.index,
                    "pair": verdict.row.pair.describe(),
                    "reasons": list(verdict.reasons),
                }
                for verdict in report.failures
            ],
            "unused_allowlist": [
                {"table": e.table, "row": e.index, "kind": e.kind}
                for e in report.unused_allowlist
            ],
        }
    )


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
