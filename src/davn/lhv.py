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

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, product
from operator import and_

from .factory import TABLE_LABELS, TABLE_OF_OUTCOME, joint_z_probability, z_support
from .gauss import phase_str
from .postselect import ConstraintRow, Eigenword, table_for_outcome
from .states import BasisKet, StateVector

#: All hidden-variable assignments (v1, v2, v3, v4), lexicographic.
ASSIGNMENTS: tuple[tuple[int, int, int, int], ...] = tuple(
    product(range(4), repeat=4)
)

Assignment = tuple[int, int, int, int]

#: Mask with one bit per assignment, all set.
ALL_ASSIGNMENTS = (1 << len(ASSIGNMENTS)) - 1


def _term_masks(site: int) -> tuple[tuple[int, ...], ...]:
    """masks[e][r]: the assignments with e * v_site == r (mod 4).

    Built as unions of the value masks v_site == x, which are disjoint,
    so sum is union.
    """
    values = [
        sum(1 << k for k, a in enumerate(ASSIGNMENTS) if a[site] == x)
        for x in range(4)
    ]
    return tuple(
        tuple(sum(values[x] for x in range(4) if e * x % 4 == r) for r in range(4))
        for e in range(4)
    )


#: _TERM_MASKS[j][e][r]: mask of the assignments with e * v_j == r (mod 4).
_TERM_MASKS = tuple(_term_masks(site) for site in range(4))


class Constraint:
    """Product of X powers across sites equals a fourth root of unity.

    ``exps`` holds one X exponent per site and ``target`` the phase
    exponent, all in 0..3; nothing reduces them mod 4, so construction
    rejects anything else.  Constraints compare and hash by (exps,
    target), so verify_paradox can drop repeats with ``dict.fromkeys``.
    """

    __slots__ = ("exps", "target", "_truth_mask")

    def __init__(self, exps: tuple[int, int, int, int], target: int) -> None:
        if type(exps) is not tuple or len(exps) != 4 or not all(
            type(e) is int and 0 <= e <= 3 for e in exps
        ):
            raise ValueError(f"exps {exps!r} is not a tuple of four ints in 0..3")
        if not any(exps):
            raise ValueError("constraint must involve at least one site")
        if type(target) is not int or not 0 <= target <= 3:
            raise ValueError(f"target {target!r} is not an int in 0..3")
        self.exps = exps
        self.target = target
        self._truth_mask = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Constraint:
            return NotImplemented
        return self.exps == other.exps and self.target == other.target

    def __hash__(self) -> int:
        return hash((self.exps, self.target))

    def __repr__(self) -> str:
        return f"Constraint(exps={self.exps}, target={self.target})"

    @property
    def truth_mask(self) -> int:
        """Bit k set iff ASSIGNMENTS[k] satisfies the constraint.

        Built on first read.  by_sum[s] holds the assignments whose sum
        of e_j * v_j over the sites so far is s mod 4; a site's term r
        moves by_sum[s - r] there (a negative index wraps mod 4).
        """
        if self._truth_mask is None:
            by_sum = (ALL_ASSIGNMENTS, 0, 0, 0)
            for site, e in enumerate(self.exps):
                if e:
                    term = _TERM_MASKS[site][e]
                    by_sum = tuple(
                        by_sum[s] & term[0] | by_sum[s - 1] & term[1]
                        | by_sum[s - 2] & term[2] | by_sum[s - 3] & term[3]
                        for s in range(4)
                    )
            self._truth_mask = by_sum[self.target]
        return self._truth_mask

    def word_str(self) -> str:
        """The X word in text form, e.g. ``X3*X4^3`` (sites 1-based)."""
        return "*".join(
            f"X{j + 1}" + (f"^{e}" if e > 1 else "")
            for j, e in enumerate(self.exps)
            if e
        )

    def __str__(self) -> str:
        return f"{self.word_str()} = {phase_str(self.target)}"


@cache
def constraint_from_row(
    sites: tuple[int, ...], eigenword: Eigenword
) -> Constraint:
    """Lift a two-site eigenword onto the four-site constraint form.

    Each distinct (sites, eigenword) gives one shared Constraint, so its
    truth mask is built once.  Rows name two of four sites and exponents
    and an eigenvalue mod 4, a finite set that bounds the cache.
    """
    (u, v), t = eigenword
    exps = [0, 0, 0, 0]
    exps[sites[0]] = u
    exps[sites[1]] = v
    return Constraint(tuple(exps), t)


def satisfiable(constraints: list[Constraint]) -> Assignment | None:
    """First assignment (lexicographic) meeting every constraint, or None.

    Bit k of the AND of the truth masks is ASSIGNMENTS[k]; the witness is
    the lowest set bit.  An empty list is satisfied by (0, 0, 0, 0).
    """
    joint = reduce(and_, (c.truth_mask for c in constraints), ALL_ASSIGNMENTS)
    return ASSIGNMENTS[(joint & -joint).bit_length() - 1] if joint else None


def minimal_unsat_core(constraints: list[Constraint]) -> list[Constraint]:
    """Smallest-first, lexicographically-first unsatisfiable subset.

    Because subsets are enumerated by increasing size, the first
    unsatisfiable subset found has every proper subset satisfiable, so it
    is a minimal core.  Input must be unsatisfiable.
    """
    if satisfiable(constraints) is not None:
        raise ValueError("constraint set is satisfiable; no unsat core")
    masks = [c.truth_mask for c in constraints]
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
        probability: Fraction,
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
        return self.probability > 0 and not self.satisfiable


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
    outcome.
    """

    __slots__ = (
        "reports", "support_size", "probability_sum", "verdict",
        "failing_outcomes",
    )

    def __init__(
        self,
        reports: tuple[ParadoxReport, ...],
        support_size: int,
        probability_sum: Fraction,
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
    outcomes = z_support(state)
    reports = tuple(verify_paradox(state, o) for o in outcomes)
    probability_sum = sum(
        (r.probability for r in reports), Fraction(0)
    )
    failing = tuple(r.outcome for r in reports if r.satisfiable)
    verdict = "DAVN" if probability_sum == 1 and not failing else "NOT-DAVN"
    return DavnReport(
        reports=reports,
        support_size=len(outcomes),
        probability_sum=probability_sum,
        verdict=verdict,
        failing_outcomes=failing,
    )
