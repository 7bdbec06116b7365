"""Post-selection on Z-outcome pairs and derived eigenword constraints.

Fixing the Z outcomes of two sites restricts the state to the matching
kets; the two remaining sites then carry a residual two-ququart state.
Scanning X-word candidates X_k**u X_l**v over (u, v) in {1,2,3}**2 for
exact eigen-relations of that residual yields the deterministic
value constraints of the argument:

* basic constraint  - the first eigenword found in row-major scan order,
* extended constraint - its even-exponent consequence (the square for an
  odd-degree basic, the basic itself when it is already even),
* ``---``            - no eigenword exists for that residual.

Single-site words (u or v = 0) are not candidates: they never fix the
residuals of the built-in states.  Only an extended constraint can be
one, as the square of an odd basic word such as X_k X_l**2.  The module
also houses the fixture machinery that diffs a derived table against a
transcribed reference table row by row, with a versioned allowlist for
known discrepancies in the reference.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .gauss import GaussInt, parse_phase, phase_str
from .states import BasisKet, StateVector, phase_between

#: An eigen-relation of a two-site residual: ((u, v), eigenvalue exponent).
Eigenword = tuple[tuple[int, int], int]

#: Candidate eigenwords X_k**u X_l**v as exponent pairs (u, v), in
#: row-major scan order.
CANDIDATE_WORDS = tuple((u, v) for u in range(1, 4) for v in range(1, 4))


class PairSelection:
    """Z outcomes on two distinct sites (0-based), as phase exponents."""

    __slots__ = ("site_i", "site_j", "m_i", "m_j")

    def __init__(self, site_i: int, site_j: int, m_i: int, m_j: int) -> None:
        if site_i == site_j:
            raise ValueError("pair selection needs two distinct sites")
        self.site_i = site_i
        self.site_j = site_j
        self.m_i = m_i
        self.m_j = m_j

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PairSelection:
            return NotImplemented
        return (self.site_i, self.site_j, self.m_i, self.m_j) == (
            other.site_i, other.site_j, other.m_i, other.m_j
        )

    def describe(self) -> str:
        return (
            f"Z{self.site_i + 1}={phase_str(self.m_i)},"
            f"Z{self.site_j + 1}={phase_str(self.m_j)}"
        )


class ResidualState:
    """State of the remaining sites after a pair selection."""

    __slots__ = ("sites", "state")

    def __init__(self, sites: tuple[int, ...], state: StateVector) -> None:
        self.sites = sites
        self.state = state


class ConstraintRow:
    """One table row: a pair selection and what it forces on the rest."""

    __slots__ = ("pair", "residual", "eigenwords", "basic", "extended")

    def __init__(
        self,
        pair: PairSelection,
        residual: ResidualState,
        eigenwords: tuple[Eigenword, ...],
        basic: Eigenword | None,
        extended: Eigenword | None,
    ) -> None:
        self.pair = pair
        self.residual = residual
        self.eigenwords = eigenwords
        self.basic = basic
        self.extended = extended


def postselect_pair(state: StateVector, pair: PairSelection) -> ResidualState:
    """Project two sites onto given Z outcomes; keep the rest.

    The residual keeps the amplitudes of all matching kets re-indexed to
    the remaining sites in ascending order; the global phase is whatever
    the state carries (comparisons downstream are phase-insensitive).
    Raises if a site is out of range or the selection has probability
    zero.  The first selection on a site pair sweeps the kets once and
    files them with the state by the pair's outcomes; each residual is
    built on its first selection and shared by every later one.
    """
    sites = (pair.site_i, pair.site_j)
    for site in sites:
        if not 0 <= site < state.n_sites:
            raise ValueError(f"site {site + 1} out of range")
    index = state._selections.get(sites)
    if index is None:
        kets_by_outcome: dict[tuple[int, int], dict[BasisKet, GaussInt]] = {}
        for ket, amp in state.amplitudes.items():
            outcome = (ket[pair.site_i], ket[pair.site_j])
            kets_by_outcome.setdefault(outcome, {})[ket] = amp
        index = state._selections[sites] = (kets_by_outcome, {})
    kets_by_outcome, residuals = index
    outcome = (pair.m_i, pair.m_j)
    residual = residuals.get(outcome)
    if residual is None:
        if outcome not in kets_by_outcome:
            raise ValueError(
                f"selection {pair.describe()} has probability zero"
            )
        keep = tuple(s for s in range(state.n_sites) if s not in sites)
        amplitudes = {
            tuple(ket[s] for s in keep): amp
            for ket, amp in kets_by_outcome[outcome].items()
        }
        residual = residuals[outcome] = ResidualState(
            keep, StateVector(len(keep), amplitudes, level=state.level)
        )
    return residual


def derive_constraints(
    residual: StateVector,
) -> tuple[tuple[Eigenword, ...], Eigenword | None, Eigenword | None]:
    """Scan all candidate eigenwords of a two-site residual.

    Returns (all eigenwords in scan order, basic, extended).  The basic
    constraint is the first eigenword found; the extended one is its
    even-exponent form, which is itself an eigen-relation (squaring an
    eigen-relation squares the eigenvalue).  The scan is a pure function
    of the amplitudes, so each distinct residual is scanned once per
    process.
    """
    if residual.n_sites != 2:
        raise ValueError("constraints are derived from two-site residuals")
    if residual.is_zero():
        raise ValueError("zero state has no eigenvalues")
    if residual.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    return _scan(frozenset(residual.amplitudes.items()))


def _shift_eigenvalue(amplitudes: dict, u: int, v: int) -> int | None:
    """c with X_k**u X_l**v |s> = i**c |s>, or None.

    The word sends |a,b> to |a+u, b+v> with no phase, so the relation
    holds exactly when the shifted kets are the support and
    amp[k] == i**c * amp[k + (u, v)] with one common c.
    """
    image = {
        ((a + u) % 4, (b + v) % 4): amp for (a, b), amp in amplitudes.items()
    }
    return phase_between(image, amplitudes)


@lru_cache(maxsize=1024)
def _scan(
    items: frozenset[tuple[BasisKet, GaussInt]],
) -> tuple[tuple[Eigenword, ...], Eigenword | None, Eigenword | None]:
    """derive_constraints on a validated nonzero two-ququart residual."""
    amplitudes = dict(items)
    eigenwords = tuple(
        ((u, v), t)
        for u, v in CANDIDATE_WORDS
        if (t := _shift_eigenvalue(amplitudes, u, v)) is not None
    )
    if not eigenwords:
        return eigenwords, None, None
    basic = eigenwords[0]
    (u, v), _ = basic
    if u % 2 == 0 and v % 2 == 0:
        return eigenwords, basic, basic
    # The square of an odd word may act on one site only (u or v even),
    # so it is tested on its own rather than looked up among the nine.
    u, v = 2 * u % 4, 2 * v % 4
    t = _shift_eigenvalue(amplitudes, u, v)
    if t is None:
        raise AssertionError(
            f"square of eigenword {basic} did not verify; scan is broken"
        )
    return eigenwords, basic, ((u, v), t)


SITE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _constraint_row(state: StateVector, pair: PairSelection) -> ConstraintRow:
    """Select the pair and derive its constraints: one table row.

    Raises ValueError, as postselect_pair does, for a selection of
    probability zero.
    """
    residual = postselect_pair(state, pair)
    return ConstraintRow(pair, residual, *derive_constraints(residual.state))


def table_for_outcome(
    state: StateVector, outcome: BasisKet
) -> tuple[ConstraintRow, ...]:
    """The six constraint rows of one joint outcome, one per site pair."""
    if state.amplitude(outcome).is_zero():
        raise ValueError(
            f"outcome {outcome} has probability zero; no table for it"
        )
    return tuple(
        _constraint_row(state, PairSelection(i, j, outcome[i], outcome[j]))
        for i, j in SITE_PAIRS
    )


# ---------------------------------------------------------------------------
# Reference tables.
#
# The ten condition tables are grouped in blocks, one block per state
# component; the block lists below give the component digits in table
# order.  Tables beyond the first two come in A/B twins covering the two
# phase orientations of a component family.

TABLE_BLOCKS: dict[str, tuple[BasisKet, ...]] = {
    "I": ((0, 0, 0, 0), (2, 2, 2, 2)),
    "II": (
        (0, 0, 2, 2), (2, 0, 0, 2), (2, 2, 0, 0),
        (0, 2, 2, 0), (0, 2, 0, 2), (2, 0, 2, 0),
    ),
    "III-A": (
        (0, 2, 3, 3), (3, 0, 2, 3), (3, 3, 0, 2),
        (2, 3, 3, 0), (0, 3, 2, 3), (3, 0, 3, 2),
    ),
    "III-B": (
        (2, 0, 3, 3), (3, 2, 0, 3), (3, 3, 2, 0),
        (0, 3, 3, 2), (2, 3, 0, 3), (3, 2, 3, 0),
    ),
    "IV-A": (
        (0, 2, 1, 1), (1, 0, 2, 1), (1, 1, 0, 2),
        (2, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 2),
    ),
    "IV-B": (
        (2, 0, 1, 1), (1, 2, 0, 1), (1, 1, 2, 0),
        (0, 1, 1, 2), (2, 1, 0, 1), (1, 2, 1, 0),
    ),
    "V-A": (
        (1, 3, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3),
        (3, 0, 0, 1), (1, 0, 3, 0), (0, 1, 0, 3),
    ),
    "V-B": (
        (3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 3, 1),
        (1, 0, 0, 3), (3, 0, 1, 0), (0, 3, 0, 1),
    ),
    "VI-A": (
        (1, 3, 2, 2), (2, 1, 3, 2), (2, 2, 1, 3),
        (3, 2, 2, 1), (1, 2, 3, 2), (2, 1, 2, 3),
    ),
    "VI-B": (
        (3, 1, 2, 2), (2, 3, 1, 2), (2, 2, 3, 1),
        (1, 2, 2, 3), (3, 2, 1, 2), (2, 3, 2, 1),
    ),
}

TABLE_LABELS = tuple(TABLE_BLOCKS)

#: Positional roman names I..X for the ten tables, in document order.
TABLE_ALIASES = {
    "III": "III-A", "IV": "III-B", "V": "IV-A", "VI": "IV-B",
    "VII": "V-A", "VIII": "V-B", "IX": "VI-A", "X": "VI-B",
}


def canonical_table_label(label: str) -> str:
    name = label.strip().upper()
    name = TABLE_ALIASES.get(name, name)
    if name not in TABLE_BLOCKS:
        raise ValueError(f"unknown table label: {label!r}")
    return name


# ---------------------------------------------------------------------------
# Fixture files.
#
# Table files and the allowlist share one line grammar: fields
# ``key=value`` separated by ``|``, with key and value stripped.  The
# value grammar is the (pattern, shape) pairs below; ``re`` compiles each
# pattern on its first use and caches it, so a command that reads no
# fixture compiles none.

_PHASE = r"\s*([+-]?[1i])\s*"
_OUTCOME = ("[0-3]{4}", "4 digits 0..3")
_PAIR = (f"Z([1-4])={_PHASE},Z([1-4])={_PHASE}", "Z<i>=<phase>,Z<j>=<phase>")
_RESIDUAL = ("[0-3]{2}:[0-3](?:;[0-3]{2}:[0-3])*", "<ket>:<t>;.. of digits 0..3")
_EIGENWORD = (f"([0-3]),([0-3]):{_PHASE}|none", "u,v:<phase> or none")
_ROW = ("-?[0-9]+", "a row number in ASCII digits")


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
        raise ValueError(f"{text!r} is not {shape}")
    return match


def _bad_line(kind: str, line_no: int, raw: str, exc: Exception) -> ValueError:
    reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"bad {kind} line {line_no} ({reason}): {raw!r}")


class FixtureRow:
    """One transcribed reference-table row.

    ``index`` is the 1-based data-row position within its table file and
    is the row identifier used by the allowlist.  ``block_outcome`` comes
    from the block header comment preceding the row.  ``residual`` maps
    the residual's kets to their unit amplitudes.
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
        residual: dict[BasisKet, GaussInt],
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
    digits 0..3 and pair sites 1..4; a row of another table than
    ``label``, or anything malformed, raises ValueError naming the line,
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
            i, m_i, j, m_j = _match(_PAIR, fields["pair"]).groups()
            pair = PairSelection(
                int(i) - 1, int(j) - 1, parse_phase(m_i), parse_phase(m_j)
            )
            terms = _match(_RESIDUAL, fields["residual"])[0].split(";")
            residual = {
                (int(a), int(b)): GaussInt.from_phase(int(t))
                for a, b, _, t in terms
            }
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


class RowVerdict:
    """Comparison of a fixture row against the derived row.

    ``residual_ok`` means equal up to a global fourth-root phase (the
    reference states residuals only up to phase).  ``basic_ok`` means the
    listed basic constraint is among the derived eigenwords with the same
    eigenvalue (or both sides agree there is none); ``extended_ok`` is an
    exact match of the extended constraint.  ``block_ok`` records whether
    the row's printed pair outcomes agree with its block's outcome.
    """

    __slots__ = (
        "row", "residual_ok", "basic_ok", "extended_ok", "block_ok", "reasons",
    )

    def __init__(
        self,
        row: FixtureRow,
        residual_ok: bool,
        basic_ok: bool,
        extended_ok: bool,
        block_ok: bool,
        reasons: tuple[str, ...],
    ) -> None:
        self.row = row
        self.residual_ok = residual_ok
        self.basic_ok = basic_ok
        self.extended_ok = extended_ok
        self.block_ok = block_ok
        self.reasons = reasons

    @property
    def derivation_ok(self) -> bool:
        return self.residual_ok and self.basic_ok and self.extended_ok


def verify_reference_row(state: StateVector, row: FixtureRow) -> RowVerdict:
    """Re-derive one reference row from the state and diff it."""
    reasons: list[str] = []
    expected_i = row.block_outcome[row.pair.site_i]
    expected_j = row.block_outcome[row.pair.site_j]
    block_ok = (row.pair.m_i, row.pair.m_j) == (expected_i, expected_j)
    if not block_ok:
        reasons.append(
            f"pair {row.pair.describe()} disagrees with block outcome "
            f"{''.join(map(str, row.block_outcome))}"
        )
    try:
        derived = _constraint_row(state, row.pair)
    except ValueError:
        return RowVerdict(
            row, False, False, False, block_ok,
            (*reasons, "selection has empty projection"),
        )
    residual_ok = (
        phase_between(row.residual, derived.residual.state.amplitudes)
        is not None
    )
    if not residual_ok:
        reasons.append("residual differs beyond a global phase")
    if row.basic is None:
        basic_ok = not derived.eigenwords
        if not basic_ok:
            reasons.append("reference row lists no constraint but eigenwords exist")
    else:
        basic_ok = row.basic in derived.eigenwords
        if not basic_ok:
            reasons.append("basic eigenvalue differs or word is not an eigenword")
    extended_ok = row.extended == derived.extended
    if not extended_ok:
        reasons.append("extended constraint differs")
    return RowVerdict(
        row, residual_ok, basic_ok, extended_ok, block_ok, tuple(reasons)
    )


#: Allowlist kinds: the two checks a fixture row can fail.
ALLOWLIST_KINDS = ("derivation", "block-pair")


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
                raise ValueError(f"unknown kind {entry.kind!r}")
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
    used = set()
    report = DiffReport()
    for row in rows:
        verdict = verify_reference_row(state, row)
        report.total_rows += 1
        unallowed_failure = False
        for kind, ok in (
            ("derivation", verdict.derivation_ok),
            ("block-pair", verdict.block_ok),
        ):
            if ok:
                continue
            key = (row.table, row.index, kind)
            entry = allowed.get(key)
            if entry is None:
                unallowed_failure = True
            else:
                used.add(key)
                report.allowlisted.append((verdict, entry))
        if unallowed_failure:
            report.failures.append(verdict)
        elif verdict.derivation_ok and verdict.block_ok:
            report.matched_rows += 1
    report.unused_allowlist = [
        entry for key, entry in sorted(allowed.items()) if key not in used
    ]
    return report
