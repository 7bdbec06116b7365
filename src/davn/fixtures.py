"""Transcribed reference tables, diffed row by row against the derivation.

The package ships the paper's ten condition tables as fixture files, one
row per pair selection of each table outcome.  This module parses them,
re-derives every row with the derivation's own row builder, and diffs
the two, with a versioned allowlist for known discrepancies in the
reference.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .factory import TABLE_BLOCKS, canonical_table_label
from .postselect import SITE_PAIRS, Eigenword, PairSelection, _constraint_row
from .states import (
    BasisKet, StateVector, outcome_digits, parse_phase, quote_input,
)

# Table files and the allowlist share one line grammar: fields
# ``key=value`` separated by ``|``, with key and value stripped.  The
# value grammar is the (pattern, shape) pairs below; ``re`` compiles each
# pattern on its first use and caches it, so a command that reads no
# fixture compiles none.  The 336 packaged rows repeat their values (146
# distinct texts among 1344 pair, residual and eigenword fields), so each
# value parser is a pure function of the field text, memoized in a
# bounded cache (the text is outside input) that keeps no errors and only
# immutable results: a row builds its own pair and residual dict.

_PHASE = r"\s*([+-]?[1i])\s*"
_OUTCOME = ("[0-3]{4}", "4 digits 0..3")
_PAIR = (f"Z([1-4])={_PHASE},Z([1-4])={_PHASE}", "Z<i>=<phase>,Z<j>=<phase>")
_RESIDUAL = ("[0-3]{2}:[0-3](?:;[0-3]{2}:[0-3])*", "<ket>:<t>;.. of digits 0..3")
_EIGENWORD = (f"([0-3]),([0-3]):{_PHASE}|none", "u,v:<phase> or none")
_ROW = ("-?[0-9]{1,200}", "a row number in at most 200 ASCII digits")


def _fields(line: str) -> dict[str, str]:
    """A data line's fields; a repeated key keeps its last value."""
    fields = {}
    for part in line.split("|"):
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def _match(grammar: tuple[str, str], text: str) -> re.Match:
    pattern, shape = grammar
    match = re.fullmatch(pattern, text)
    if match is None:
        raise ValueError(f"{quote_input(text)} is not {shape}")
    return match


def _bad_line(kind: str, line_no: int, raw: str, exc: Exception) -> ValueError:
    reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"bad {kind} line {line_no} ({reason}): {quote_input(raw)}")


class FixtureRow:
    """One transcribed reference-table row.

    ``index`` is the 1-based data-row position within its table file and
    is the row identifier used by the allowlist.  ``block_outcome`` comes
    from the block header comment preceding the row.  ``residual`` maps
    the residual's kets to their phase exponents.
    """

    __slots__ = (
        "table", "index", "block_outcome", "pair", "residual", "basic",
        "extended",
    )

    def __init__(
        self,
        table: str,
        index: int,
        block_outcome: BasisKet,
        pair: PairSelection,
        residual: dict[BasisKet, int],
        basic: Eigenword | None,
        extended: Eigenword | None,
    ) -> None:
        self.table = table
        self.index = index
        self.block_outcome = block_outcome
        self.pair = pair
        self.residual = residual
        self.basic = basic
        self.extended = extended


@lru_cache(maxsize=256)
def _pair(text: str) -> tuple[int, int, int, int]:
    """PairSelection arguments: 0-based sites and phase exponents."""
    i, m_i, j, m_j = _match(_PAIR, text).groups()
    return int(i) - 1, int(j) - 1, parse_phase(m_i), parse_phase(m_j)


@lru_cache(maxsize=256)
def _residual(text: str) -> tuple[tuple[BasisKet, int], ...]:
    """The residual's (ket, phase exponent) items."""
    terms = _match(_RESIDUAL, text)[0].split(";")
    residual = {(int(a), int(b)): int(t) for a, b, _, t in terms}
    if len(residual) != len(terms):
        raise ValueError("a residual ket is repeated")
    return tuple(residual.items())


@lru_cache(maxsize=256)
def _eigenword(text: str) -> Eigenword | None:
    u, v, value = _match(_EIGENWORD, text).groups()
    if u is None:
        return None
    return ((int(u), int(v)), parse_phase(value))


def parse_fixture_text(text: str, label: str) -> list[FixtureRow]:
    """Parse the fixture file of table ``label``.

    Data lines are ``table=.. | pair=Z<i>=<v>,Z<j>=<v> | residual=
    <ket>:<t>;.. | basic=<u,v>:<v>|none | extended=..``; block header
    comments ``# block <n> outcome=<digits>`` attach the outcome each
    row group belongs to.  Outcomes (4 digits), residual kets (2),
    residual phase exponents and eigenword exponents (1 each) take
    digits 0..3 and pair sites 1..4; a residual names each ket once.  A
    row of another table than ``label``, or anything malformed, raises
    ValueError naming the line,
    so it is an input error, not a failed verification.
    """
    rows: list[FixtureRow] = []
    block_outcome: BasisKet | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                if "outcome=" in line:
                    digits = line.split("outcome=", 1)[1].split() or [""]
                    block_outcome = tuple(map(int, _match(_OUTCOME, digits[0])[0]))
                continue
            fields = _fields(line)
            table = canonical_table_label(fields["table"])
            if table != label:
                raise ValueError(f"row of table {table} in a table {label} file")
            pair = PairSelection(*_pair(fields["pair"]))
            residual = dict(_residual(fields["residual"]))
            basic = _eigenword(fields["basic"])
            extended = _eigenword(fields["extended"])
            if block_outcome is None:
                raise ValueError("row precedes a block header")
        except (KeyError, ValueError) as exc:
            raise _bad_line("fixture", line_no, raw, exc) from exc
        rows.append(
            FixtureRow(
                table, len(rows) + 1, block_outcome, pair, residual, basic,
                extended,
            )
        )
    return rows


def check_table_shape(rows: list[FixtureRow], label: str) -> None:
    """Raise ValueError unless ``rows`` hold all of table ``label``.

    Its blocks are the outcomes of ``TABLE_BLOCKS[label]`` in order,
    each with one row per unordered site pair.
    """
    blocks: dict[BasisKet, list[tuple[int, int]]] = {}
    for row in rows:
        pair = (row.pair.site_i, row.pair.site_j)
        blocks.setdefault(row.block_outcome, []).append((min(pair), max(pair)))
    found = " ".join(map(outcome_digits, blocks)) or "none"
    expected = " ".join(map(outcome_digits, TABLE_BLOCKS[label]))
    if found != expected:
        if len(found) > 200:
            found = f"{found[:200]}... ({len(found)} characters)"
        raise ValueError(f"blocks {found}, expected {expected}")
    for outcome, pairs in blocks.items():
        if sorted(pairs) != sorted(SITE_PAIRS):
            raise ValueError(
                f"block {outcome_digits(outcome)} does not hold one row per site pair"
            )


#: Allowlist kinds: the two checks a fixture row can fail.
ALLOWLIST_KINDS = ("derivation", "block-pair")


class RowVerdict:
    """Comparison of a fixture row against the derived row.

    ``failed`` maps each allowlist kind the row fails to its reasons,
    block-pair first.  ``derivation`` fails unless the residual is equal
    up to a global fourth-root phase (the reference states residuals only
    up to phase), the listed basic constraint is among the derived
    eigenwords with the same eigenvalue (or both sides agree there is
    none) and the extended constraint matches exactly.
    """

    __slots__ = ("row", "failed")

    def __init__(self, row: FixtureRow, failed: dict[str, tuple[str, ...]]) -> None:
        self.row = row
        self.failed = failed

    @property
    def reasons(self) -> tuple[str, ...]:
        return sum(self.failed.values(), ())


def phase_between(a: dict, b: dict) -> int | None:
    """c with a[k] == b[k] + c (mod 4) on one common support, or None.

    On phase-exponent maps this is the global phase i**c between the
    two amplitude maps; the first ket fixes c.
    """
    if a.keys() != b.keys():
        return None
    first = next(iter(a), None)
    if first is None:
        return 0
    c = (a[first] - b[first]) % 4
    for k, t in a.items():
        if (t - b[k]) % 4 != c:
            return None
    return c


def verify_reference_row(state: StateVector, row: FixtureRow) -> RowVerdict:
    """Re-derive one reference row from the state and diff it."""
    failed = {}
    pair, block = row.pair, row.block_outcome
    if (pair.m_i, pair.m_j) != (block[pair.site_i], block[pair.site_j]):
        failed["block-pair"] = (
            f"pair {pair.describe()} disagrees with block outcome "
            f"{outcome_digits(block)}",
        )
    try:
        derived = _constraint_row(state, pair)
    except ValueError:
        reasons = ["selection has empty projection"]
    else:
        reasons = []
        if phase_between(row.residual, derived.residual.phases) is None:
            reasons.append("residual differs beyond a global phase")
        if row.basic is None and derived.eigenwords:
            reasons.append("reference row lists no constraint but eigenwords exist")
        if row.basic is not None and row.basic not in derived.eigenwords:
            reasons.append("basic eigenvalue differs or word is not an eigenword")
        if row.extended != derived.extended:
            reasons.append("extended constraint differs")
    if reasons:
        failed["derivation"] = tuple(reasons)
    return RowVerdict(row, failed)


class AllowlistEntry:
    __slots__ = ("table", "index", "kind", "tag", "note")

    def __init__(
        self, table: str, index: int, kind: str, tag: str, note: str
    ) -> None:
        self.table = table
        self.index = index
        self.kind = kind
        self.tag = tag
        self.note = note

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.table, self.index, self.kind)


def parse_allowlist(text: str) -> list[AllowlistEntry]:
    """Parse the allowlist of known reference-table discrepancies.

    Lines are ``table=<label> | row=<n> | kind=<derivation|block-pair>
    | tag=<TAG> | note=<text>``; the tags are documented in the file
    header and name the open question each entry is tied to.  Rows count
    from 1.
    """
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _fields(line)
        try:
            entry = AllowlistEntry(
                canonical_table_label(fields["table"]),
                int(_match(_ROW, fields["row"])[0]),
                fields["kind"],
                fields["tag"],
                fields.get("note", ""),
            )
            if entry.kind not in ALLOWLIST_KINDS:
                raise ValueError(f"unknown kind {quote_input(entry.kind)}")
            if entry.index < 1:
                raise ValueError(f"row {entry.index} is below 1")
        except (KeyError, ValueError) as exc:
            raise _bad_line("allowlist", line_no, raw, exc) from exc
        entries.append(entry)
    return entries


class DiffReport:
    """Outcome of diffing every fixture table against the derivation.

    diff_fixture_rows fills it in row by row.
    """

    __slots__ = (
        "total_rows", "matched_rows", "allowlisted", "failures",
        "unused_allowlist",
    )

    def __init__(self) -> None:
        self.total_rows = 0
        self.matched_rows = 0
        self.allowlisted: list[tuple[RowVerdict, AllowlistEntry]] = []
        self.failures: list[RowVerdict] = []
        self.unused_allowlist: list[AllowlistEntry] = []

    @property
    def ok(self) -> bool:
        return not self.failures and not self.unused_allowlist


def diff_fixture_rows(
    state: StateVector,
    rows: list[FixtureRow],
    allowlist: list[AllowlistEntry],
) -> DiffReport:
    """Row-by-row verification with allowlist accounting.

    A row fails the diff if its derivation disagrees or its pair labels
    disagree with its block, unless a matching allowlist entry of the
    right kind exists.  Unused allowlist entries are reported too, so the
    list cannot silently rot; an entry naming no fixture row, or one
    repeating another's table, row and kind, is an input error
    (ValueError).
    """
    parsed = {(row.table, row.index) for row in rows}
    allowed: dict[tuple[str, int, str], AllowlistEntry] = {}
    for entry in allowlist:
        name = f"allowlist entry table {entry.table} row {entry.index}"
        if (entry.table, entry.index) not in parsed:
            raise ValueError(f"{name} names no fixture row")
        if entry.key in allowed:
            raise ValueError(f"{name} kind {entry.kind} is repeated")
        allowed[entry.key] = entry
    report = DiffReport()
    report.total_rows = len(rows)
    for row in rows:
        verdict = verify_reference_row(state, row)
        if not verdict.failed:
            report.matched_rows += 1
            continue
        entries = [
            allowed.get((row.table, row.index, kind))
            for kind in ALLOWLIST_KINDS
            if kind in verdict.failed
        ]
        if None in entries:
            report.failures.append(verdict)
        report.allowlisted += [(verdict, e) for e in entries if e is not None]
    used = {entry.key for _, entry in report.allowlisted}
    report.unused_allowlist = [
        entry for key, entry in sorted(allowed.items()) if key not in used
    ]
    return report
