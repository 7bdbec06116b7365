"""Rendering of derived objects as JSON.

JSON output is schema-stable: every dict is built in a fixed key order,
rationals are rendered as strings like ``1/56``, and nothing
time-dependent is included, so byte-identical reruns are guaranteed for
the non-sampling commands.  The schemas are documented in the README.
Text and markdown reports live in `davn.text`, which a ``--format
json`` command does not import; neither renderer imports the other.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .states import BasisKet, phase_str, ratio_str

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
    is one parts list and one join.  Scalars go through `_scalar`, and
    each distinct key through `_quote` once per call; a float, or a key
    that is not a string, raises TypeError.
    """
    memo: dict[tuple[int, int], str] = {}
    quoted: dict[str, str] = {}

    def render(value: Any, depth: int) -> str:
        key = (id(value), depth)
        text = memo.get(key)
        if text is None:
            # Each item is led by a comma, a newline and its indent.
            inner, parts = ",\n" + "  " * (depth + 1), []
            if isinstance(value, dict):
                for k, v in value.items():
                    q = quoted.get(k)
                    if q is None:
                        q = quoted[k] = _quote(k)
                    parts += inner, q, ": ", render(v, depth + 1)
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


def outcome_json(outcome: BasisKet) -> dict[str, Any]:
    return {
        "exponents": list(outcome),
        "eigenvalues": list(map(phase_str, outcome)),
    }


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


# --- condition tables -----------------------------------------------------


def table_rows_json(rows: tuple[ConstraintRow, ...]) -> list[dict[str, Any]]:
    from .postselect import lift_words, render_state

    out = []
    for row in rows:
        basic, extended, *words = lift_words(
            row, row.basic, row.extended, *row.eigenwords
        )
        out.append(
            {
                "pair": row.pair.describe(),
                "residual": render_state(row.residual),
                "basic": basic and constraint_json(basic),
                "extended": extended and constraint_json(extended),
                "eigenwords": list(map(constraint_json, words)),
            }
        )
    return out


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
        "constraints": {
            "basic": _constraint_list(report.constraints_basic),
            "extended": _constraint_list(report.constraints_extended),
        },
        "lhv_satisfiable": report.satisfiable,
        "witness": list(report.witness) if report.witness else None,
        "minimal_core": None if report.minimal_core is None
        else _constraint_list(report.minimal_core),
        "extended_only_unsatisfiable": report.extended_only_unsatisfiable,
    }
    if include_rows:
        payload["rows"] = table_rows_json(report.rows)
    return payload


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
