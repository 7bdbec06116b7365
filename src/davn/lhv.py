"""Local-hidden-variable refutation of the post-selection constraints.

A hidden-variable model assigns each site's X observable a fourth root of
unity i**v_j, and powers follow classically: X_j**u takes the value
i**(u*v_j).  A derived constraint  X_k**u X_l**v = i**t  therefore reads

    u*v_k + v*v_l = t  (mod 4),

a linear condition over Z4.  Refutation is by brute force over all
4**4 = 256 assignments; exhaustiveness is the proof, so the scan is the
permanent implementation, not a placeholder.  It runs on 256-bit masks:
bit k is ASSIGNMENTS[k], a set's truth set is the AND of its members'
masks, and the lexicographically first witness is the lowest set bit.
Minimal unsatisfiable cores are found by increasing-size subset
enumeration with lexicographic tie-breaking, which makes every report
byte-reproducible.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, product
from operator import and_

from .factory import TABLE_LABELS, TABLE_OF_OUTCOME, joint_z_probability, z_support
from .postselect import (
    Constraint, ConstraintRow, constraint_from_row, table_for_outcome,
)
from .states import BasisKet, StateVector

#: All hidden-variable assignments (v1, v2, v3, v4), lexicographic.
ASSIGNMENTS: tuple[tuple[int, int, int, int], ...] = tuple(
    product(range(4), repeat=4)
)

Assignment = tuple[int, int, int, int]

#: Mask with one bit per assignment, all set.
ALL_ASSIGNMENTS = (1 << len(ASSIGNMENTS)) - 1


@cache
def truth_mask(constraint: Constraint) -> int:
    """Bit k set iff ASSIGNMENTS[k] meets sum_j e_j * v_j == target (mod 4).

    Built by one pass over the 256 assignments, once per distinct
    constraint; there are at most 255 * 4 = 1020 of them (nonzero
    exponent words times targets), which bounds the cache.
    """
    e1, e2, e3, e4 = constraint.exps
    target = constraint.target
    return sum(
        1 << k
        for k, (v1, v2, v3, v4) in enumerate(ASSIGNMENTS)
        if (e1 * v1 + e2 * v2 + e3 * v3 + e4 * v4) % 4 == target
    )


def satisfiable(constraints: list[Constraint]) -> Assignment | None:
    """First assignment (lexicographic) meeting every constraint, or None.

    Bit k of the AND of the truth masks is ASSIGNMENTS[k]; the witness is
    the lowest set bit.  An empty list is satisfied by (0, 0, 0, 0).
    """
    joint = reduce(and_, map(truth_mask, constraints), ALL_ASSIGNMENTS)
    return ASSIGNMENTS[(joint & -joint).bit_length() - 1] if joint else None


def minimal_unsat_core(constraints: list[Constraint]) -> list[Constraint]:
    """Smallest-first, lexicographically-first unsatisfiable subset.

    Because subsets are enumerated by increasing size, the first
    unsatisfiable subset found has every proper subset satisfiable, so it
    is a minimal core.  Input must be unsatisfiable.
    """
    if satisfiable(constraints) is not None:
        raise ValueError("constraint set is satisfiable; no unsat core")
    masks = [truth_mask(c) for c in constraints]
    for size in range(1, len(constraints) + 1):
        for combo in combinations(range(len(constraints)), size):
            if not reduce(and_, (masks[index] for index in combo)):
                return [constraints[index] for index in combo]
    raise AssertionError("unsatisfiable set must contain an unsat core")


def classify_type(outcome: BasisKet) -> str:
    """Family label of a supported outcome: I, II or III..VI with -A/-B.

    Families follow the table blocks: I covers the two constant
    outcomes, II the placements of two 2s, and the A/B twins of III..VI
    split each remaining family by the phase of the originating
    component.  Each table holds one phase: A is +i for III, IV and V
    but -i for VI.
    """
    label = TABLE_OF_OUTCOME.get(tuple(outcome))
    if label is None:
        raise ValueError(f"outcome {outcome} is not one of the 56 supported tuples")
    return label


class ParadoxReport:
    """Refutation record for one supported measurement outcome."""

    __slots__ = (
        "outcome", "type_label", "probability", "rows", "constraints_basic",
        "constraints_extended", "witness", "minimal_core",
        "extended_only_unsatisfiable",
    )

    def __init__(
        self,
        outcome: BasisKet,
        type_label: str | None,
        probability: tuple[int, int],
        rows: tuple[ConstraintRow, ...],
        constraints_basic: tuple[Constraint, ...],
        constraints_extended: tuple[Constraint, ...],
        witness: Assignment | None,
        minimal_core: tuple[Constraint, ...] | None,
        extended_only_unsatisfiable: bool,
    ) -> None:
        self.outcome = outcome
        self.type_label = type_label
        self.probability = probability
        self.rows = rows
        self.constraints_basic = constraints_basic
        self.constraints_extended = constraints_extended
        self.witness = witness
        self.minimal_core = minimal_core
        self.extended_only_unsatisfiable = extended_only_unsatisfiable

    @property
    def satisfiable(self) -> bool:
        return self.witness is not None

    @property
    def is_paradox(self) -> bool:
        return self.probability[0] > 0 and not self.satisfiable


def verify_paradox(state: StateVector, outcome: BasisKet) -> ParadoxReport:
    """Build the constraint set of one outcome and refute it exhaustively.

    The set is every basic constraint plus every extended constraint of
    the outcome's six rows (extended ones are implied by basics but the
    hand arguments use them, so they are kept; duplicates are dropped
    with first occurrence preserved).
    """
    rows = table_for_outcome(state, outcome)
    basics = [
        constraint_from_row(row.residual.sites, row.basic)
        for row in rows
        if row.basic is not None
    ]
    extendeds = [
        constraint_from_row(row.residual.sites, row.extended)
        for row in rows
        if row.extended is not None
    ]
    merged = list(dict.fromkeys(basics + extendeds))
    witness = satisfiable(merged)
    core = None if witness is not None else tuple(minimal_unsat_core(merged))
    return ParadoxReport(
        outcome=tuple(outcome),
        type_label=TABLE_OF_OUTCOME.get(tuple(outcome)),
        probability=joint_z_probability(state, outcome),
        rows=rows,
        constraints_basic=tuple(basics),
        constraints_extended=tuple(extendeds),
        witness=witness,
        minimal_core=core,
        extended_only_unsatisfiable=satisfiable(extendeds) is None,
    )


class DavnReport:
    """Aggregate over every supported outcome of a state.

    The verdict is DAVN exactly when the supported outcomes exhaust the
    distribution (probabilities sum to 1) and every one of them is
    LHV-unsatisfiable, i.e. any run of the experiment lands in a refuted
    outcome.  ``probability_sum`` is (sum of their numerators, norm_sq).
    """

    __slots__ = (
        "reports", "support_size", "probability_sum", "verdict",
        "failing_outcomes",
    )

    def __init__(
        self,
        reports: tuple[ParadoxReport, ...],
        support_size: int,
        probability_sum: tuple[int, int],
        verdict: str,
        failing_outcomes: tuple[BasisKet, ...],
    ) -> None:
        self.reports = reports
        self.support_size = support_size
        self.probability_sum = probability_sum
        self.verdict = verdict
        self.failing_outcomes = failing_outcomes

    @property
    def type_counts(self) -> dict[str, int]:
        """Outcome counts per family I..VI (subfamilies merged).

        Families come in table order, then "unclassified".
        """
        counts: dict[str, int] = {}
        for report in self.reports:
            label = report.type_label or "unclassified"
            roman = label.split("-")[0]
            counts[roman] = counts.get(roman, 0) + 1
        families = dict.fromkeys(name.split("-")[0] for name in TABLE_LABELS)
        order = [r for r in families if r in counts]
        order += [k for k in sorted(counts) if k not in families]
        return {k: counts[k] for k in order}


def verify_davn(state: StateVector) -> DavnReport:
    """Run verify_paradox over the whole support, in outcome order."""
    if state.is_zero():
        raise ValueError("a state of zero norm has no outcome distribution")
    outcomes = z_support(state)
    reports = tuple(verify_paradox(state, o) for o in outcomes)
    covered = sum(r.probability[0] for r in reports)
    failing = tuple(r.outcome for r in reports if r.satisfiable)
    verdict = "DAVN" if covered == state.norm_sq and not failing else "NOT-DAVN"
    return DavnReport(
        reports=reports,
        support_size=len(outcomes),
        probability_sum=(covered, state.norm_sq),
        verdict=verdict,
        failing_outcomes=failing,
    )
