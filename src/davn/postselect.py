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
one, as the square of an odd basic word such as X_k X_l**2.
"""

from __future__ import annotations

from functools import lru_cache

from .gauss import phase_str
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

    The residual keeps the phases of all matching kets re-indexed to
    the remaining sites in ascending order; the global phase is whatever
    the state carries (comparisons downstream are phase-insensitive).
    Raises if a site is out of range or the selection has probability
    zero.  The first selection on a site pair sweeps the kets once and
    files them with the state by the pair's outcomes; each residual is
    built on its first selection, without re-checking the kets it cuts
    from the validated state, and shared by every later one.
    """
    sites = (pair.site_i, pair.site_j)
    index = state._selections.get(sites)
    if index is None:
        # Only a site pair in range is filed, so a filed pair needs no check.
        for site in sites:
            if not 0 <= site < state.n_sites:
                raise ValueError(f"site {site + 1} out of range")
        kets_by_outcome: dict[tuple[int, int], dict[BasisKet, int]] = {}
        for ket, t in state.phases.items():
            outcome = (ket[pair.site_i], ket[pair.site_j])
            kets_by_outcome.setdefault(outcome, {})[ket] = t
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
        phases = {
            tuple(ket[s] for s in keep): t
            for ket, t in kets_by_outcome[outcome].items()
        }
        residual = residuals[outcome] = ResidualState(
            keep, StateVector._cut(len(keep), phases, state.level)
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
    of the phases, so each distinct residual is scanned once per
    process; the memo is keyed on the state, which hashes its phases
    once, so a residual shared by many rows is not hashed again.
    """
    if residual.n_sites != 2:
        raise ValueError("constraints are derived from two-site residuals")
    if residual.is_zero():
        raise ValueError("zero state has no eigenvalues")
    if residual.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    return _scan(residual)


def _shift_eigenvalue(phases: dict, u: int, v: int) -> int | None:
    """c with X_k**u X_l**v |s> = i**c |s>, or None.

    The word sends |a,b> to |a+u, b+v> with no phase, so the relation
    holds exactly when the shifted kets are the support and
    phases[k] == phases[k + (u, v)] + c (mod 4) with one common c.
    """
    image = {((a + u) % 4, (b + v) % 4): t for (a, b), t in phases.items()}
    return phase_between(image, phases)


@lru_cache(maxsize=1024)
def _scan(
    residual: StateVector,
) -> tuple[tuple[Eigenword, ...], Eigenword | None, Eigenword | None]:
    """derive_constraints on a validated nonzero two-ququart residual."""
    phases = residual.phases
    eigenwords = tuple(
        ((u, v), t)
        for u, v in CANDIDATE_WORDS
        if (t := _shift_eigenvalue(phases, u, v)) is not None
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
    t = _shift_eigenvalue(phases, u, v)
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
    if outcome not in state.phases:
        raise ValueError(
            f"outcome {outcome} has probability zero; no table for it"
        )
    return tuple(
        _constraint_row(state, PairSelection(i, j, outcome[i], outcome[j]))
        for i, j in SITE_PAIRS
    )
