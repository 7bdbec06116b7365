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
byte-reproducible.  verify_davn refutes each distinct constraint set of
its outcomes once, in a memo that lives for that one call.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product
from operator import and_

from .factory import TABLE_LABELS, TABLE_OF_OUTCOME, joint_z_probability
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

    Built blockwise: bit 4*v3 + v4 of low[r] is set iff e3*v3 + e4*v4 == r
    (mod 4), and the 16-bit block 4*v1 + v2 is low[target - e1*v1 - e2*v2].
    It is built once per distinct constraint; there are at most
    255 * 4 = 1020 of them (nonzero exponent words times targets), which
    bounds the cache.
    """
    (e1, e2, e3, e4), target = constraint.exps, constraint.target
    low, mask = [0, 0, 0, 0], 0
    for k, (_, _, v3, v4) in enumerate(ASSIGNMENTS[:16]):
        low[(e3 * v3 + e4 * v4) % 4] |= 1 << k
    for k, (_, _, v1, v2) in enumerate(ASSIGNMENTS[:16]):
        mask |= low[(target - e1 * v1 - e2 * v2) % 4] << 16 * k
    return mask


def satisfiable(constraints: list[Constraint]) -> Assignment | None:
    """First assignment (lexicographic) meeting every constraint, or None.

    Bit k of the AND of the truth masks is ASSIGNMENTS[k]; the witness is
    the lowest set bit.  An empty list is satisfied by (0, 0, 0, 0).
    """
    joint = reduce(and_, map(truth_mask, constraints), ALL_ASSIGNMENTS)
    return ASSIGNMENTS[(joint & -joint).bit_length() - 1] if joint else None


def minimal_unsat_core(constraints: list[Constraint]) -> list[Constraint]:
    """Smallest-first, lexicographically-first unsatisfiable subset.

    Subsets are tried by increasing size, each size in combinations
    order, so the first unsatisfiable one found has every proper subset
    satisfiable: it is a minimal core.  The walk is depth first and
    carries the AND of each prefix's masks, so a prefix is ANDed once
    for all the subsets that extend it.  Input must be unsatisfiable.
    """
    masks = [truth_mask(c) for c in constraints]
    if reduce(and_, masks, ALL_ASSIGNMENTS):
        raise ValueError("constraint set is satisfiable; no unsat core")

    def walk(start: int, left: int, joint: int) -> list[Constraint] | None:
        for index in range(start, len(masks) - left + 1):
            rest = joint & masks[index]
            if left == 1 and not rest:
                return [constraints[index]]
            if left > 1 and (tail := walk(index + 1, left - 1, rest)):
                return [constraints[index], *tail]
        return None

    for size in range(1, len(masks)):
        if core := walk(0, size, ALL_ASSIGNMENTS):
            return core
    return list(constraints)


class ParadoxReport:
    """Refutation record for one supported measurement outcome."""

    __slots__ = (
        "outcome", "type_label", "probability", "rows", "constraints_basic",
        "constraints_extended", "witness", "minimal_core",
        "extended_only_unsatisfiable",
    )

    def __init__(
        self, outcome: BasisKet, type_label: str | None,
        probability: tuple[int, int], rows: tuple[ConstraintRow, ...],
        constraints_basic: tuple[Constraint, ...],
        constraints_extended: tuple[Constraint, ...],
        witness: Assignment | None, minimal_core: tuple[Constraint, ...] | None,
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
    with first occurrence preserved).  The outcome must lie on the
    state's support: one of probability zero has no table, and raises
    ValueError.
    """
    return _paradox(state, tuple(outcome), {})


def _paradox(state: StateVector, outcome: BasisKet, refuted: dict) -> ParadoxReport:
    """verify_paradox, with the refutation of each distinct pair of merged
    and extended sets kept in ``refuted`` for the later outcomes."""
    rows, lift = table_for_outcome(state, outcome), constraint_from_row
    basics = [lift(r.sites, r.basic) for r in rows if r.basic]
    extendeds = [lift(r.sites, r.extended) for r in rows if r.extended]
    merged = list(dict.fromkeys(basics + extendeds))
    key = (tuple(merged), tuple(extendeds))
    if (found := refuted.get(key)) is None:
        witness = satisfiable(merged)
        core = None if witness else tuple(minimal_unsat_core(merged))
        # The extended constraints are among the merged ones, so only a
        # refuted set needs them checked alone.
        flag = core is not None and satisfiable(extendeds) is None
        found = refuted[key] = witness, core, flag
    witness, core, extended_only = found
    return ParadoxReport(
        outcome=outcome,
        type_label=TABLE_OF_OUTCOME.get(outcome),
        probability=joint_z_probability(state, outcome),
        rows=rows,
        constraints_basic=tuple(basics),
        constraints_extended=tuple(extendeds),
        witness=witness,
        minimal_core=core,
        extended_only_unsatisfiable=extended_only,
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
        self, reports: tuple[ParadoxReport, ...], support_size: int,
        probability_sum: tuple[int, int], verdict: str,
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

        A label is one of ``TABLE_LABELS`` or None, so families come in
        table order, then "unclassified"; an empty one is left out.
        """
        families = (label.split("-")[0] for label in TABLE_LABELS)
        counts = dict.fromkeys([*families, "unclassified"], 0)
        for report in self.reports:
            counts[(report.type_label or "unclassified").split("-")[0]] += 1
        return {k: n for k, n in counts.items() if n}


def verify_davn(state: StateVector) -> DavnReport:
    """Run verify_paradox over the whole support, in outcome order; each
    distinct pair of merged and extended sets is refuted once per call."""
    outcomes, refuted = state.support(), {}
    reports = tuple(_paradox(state, o, refuted) for o in outcomes)
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
