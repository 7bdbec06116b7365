"""Post-selection on Z-outcome pairs and derived eigenword constraints.

Fixing the Z outcomes of two sites restricts the state to the matching
kets; the two remaining sites then carry a residual two-ququart state.
Scanning X-word candidates X_k**u X_l**v over (u, v) in {1,2,3}**2 for
exact eigen-relations of that residual yields the deterministic
value constraints of the argument:

* basic constraint  - the first eigenword found in row-major scan order,
* extended constraint - its even-exponent consequence: the square
  ((2u, 2v), 2t) mod 4 of an odd basic ((u, v), t), else the basic,
* ``---``            - no eigenword exists for that residual.

Single-site words (u or v = 0) are not candidates: they never fix the
residuals of the built-in states.  Only an extended constraint can be
one, as the square of an odd basic word such as X_k X_l**2.
`constraint_from_row` lifts each onto the four-site `Constraint` that
`davn.lhv` refutes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import isqrt
from operator import itemgetter

from .states import BasisKet, StateVector, outcome_digits, phase_str

#: An eigen-relation of a two-site residual: ((u, v), eigenvalue exponent).
Eigenword = tuple[tuple[int, int], int]

#: Candidate eigenwords X_k**u X_l**v as exponent pairs (u, v), in
#: row-major scan order.
CANDIDATE_WORDS = tuple(product(range(1, 4), repeat=2))


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


class ConstraintRow:
    """One table row: a pair selection, the two sites it keeps, their
    residual state and what that state forces on them."""

    __slots__ = ("pair", "sites", "residual", "eigenwords", "basic", "extended")

    def __init__(
        self,
        pair: PairSelection,
        sites: tuple[int, int],
        residual: StateVector,
        eigenwords: tuple[Eigenword, ...],
        basic: Eigenword | None,
        extended: Eigenword | None,
    ) -> None:
        self.pair = pair
        self.sites = sites
        self.residual = residual
        self.eigenwords = eigenwords
        self.basic = basic
        self.extended = extended


class Constraint:
    """Product of X powers across sites equals a fourth root of unity.

    ``exps`` holds one X exponent per site and ``target`` the phase
    exponent, all in 0..3; nothing reduces them mod 4, so construction
    rejects anything else.  A constraint is a value, and it is interned:
    once the arguments are validated, ``Constraint(exps, target)``
    returns the one object of that value, so equal constraints are the
    same object and every memo or dedupe keyed on one (``lhv.truth_mask``,
    ``reports.constraint_json``, verify_paradox's ``dict.fromkeys``)
    hashes and compares by identity.  There are 255 * 4 = 1020 valid
    constraints (nonzero exponent words times targets), which bounds the
    table.  Copies and unpickled constraints come back through the
    constructor, so they are the interned object too.
    """

    __slots__ = ("exps", "target")

    def __new__(cls, exps: tuple[int, int, int, int], target: int) -> Constraint:
        # Validated before the lookup: (True, 0, 0, 0) == (1, 0, 0, 0),
        # so a bool exponent would otherwise find the int-keyed object.
        if type(exps) is not tuple or len(exps) != 4 or not all(
            type(e) is int and 0 <= e <= 3 for e in exps
        ):
            raise ValueError(f"exps {exps!r} is not a tuple of four ints in 0..3")
        if not any(exps):
            raise ValueError("constraint must involve at least one site")
        if type(target) is not int or not 0 <= target <= 3:
            raise ValueError(f"target {target!r} is not an int in 0..3")
        key = exps, target
        if key not in _CONSTRAINTS:
            constraint = object.__new__(cls)
            constraint.exps, constraint.target = key
            # Two threads that race here still keep one object.
            _CONSTRAINTS.setdefault(key, constraint)
        return _CONSTRAINTS[key]

    def __reduce__(self):
        return Constraint, (self.exps, self.target)

    def __repr__(self) -> str:
        return f"Constraint(exps={self.exps}, target={self.target})"

    def word_str(self) -> str:
        """The X word in text form, e.g. ``X3*X4^3`` (sites 1-based)."""
        return "*".join(
            f"X{j + 1}" + (f"^{e}" if e > 1 else "")
            for j, e in enumerate(self.exps)
            if e
        )

    def __str__(self) -> str:
        return f"{self.word_str()} = {phase_str(self.target)}"


#: The interned constraints, by (exps, target): at most 1020 entries.
_CONSTRAINTS = {}


@lru_cache(maxsize=512)
def constraint_from_row(
    sites: tuple[int, ...], eigenword: Eigenword
) -> Constraint:
    """Lift a two-site eigenword onto the four-site constraint form.

    Constraints are interned, so equal lifts are one object; the memo
    saves each repeated row the build and the validation.  Rows name one
    of six site pairs, an exponent pair in 0..3 and an eigenvalue mod 4:
    384 keys, within the bound, so no entry is evicted.
    """
    (u, v), t = eigenword
    exps = [0, 0, 0, 0]
    exps[sites[0]] = u
    exps[sites[1]] = v
    return Constraint(tuple(exps), t)


def lift_words(row: ConstraintRow, *words: Eigenword | None) -> list[Constraint | None]:
    """Each of ``row``'s words as its four-site constraint; None stays None."""
    return [constraint_from_row(row.sites, word) if word else None for word in words]


#: The sign of a ket-sum term, by its phase exponent.
_SIGNS = ("+", "+i", "-", "-i")


def render_state(state: StateVector) -> str:
    """Ket-sum rendering with the exact normalisation as a suffix.  A
    state of zero norm has no normalisation and raises ValueError."""
    phases = state.phases
    if not phases:
        raise ValueError("a state of zero norm has no normalisation")
    terms = "".join(
        f"{_SIGNS[phases[ket]]}|{outcome_digits(ket)}>" for ket in state.support()
    )
    body = "(" + terms.removeprefix("+") + ")"
    n = state.norm_sq
    if n == 1:
        return body
    root = isqrt(n)
    return body + (f"/{root}" if root * root == n else f"/sqrt({n})")


def postselect_pair(state: StateVector, pair: PairSelection) -> StateVector:
    """Project two sites onto given Z outcomes: the state of the rest.

    The residual keeps the phases of all matching kets re-indexed to
    the remaining sites in ascending order, kets in lexicographic order;
    the global phase is whatever the state carries (comparisons
    downstream are phase-insensitive).  Raises if a site is out of range
    or the selection has probability zero.  Each selection is read from
    the state's table, with the sites in either order, so equal
    residuals of one state are one object.
    """
    i, j = pair.site_i, pair.site_j
    for site in (i, j):
        if not 0 <= site < state.n_sites:
            raise ValueError(f"site {site + 1} out of range")
    key = (i, j, pair.m_i, pair.m_j) if i < j else (j, i, pair.m_j, pair.m_i)
    residual = _selections(state).get(key)
    if residual is None:
        raise ValueError(f"selection {pair.describe()} has probability zero")
    return residual


@lru_cache(maxsize=32)
def _selections(state: StateVector) -> dict[tuple[int, ...], StateVector]:
    """Every residual of ``state`` by its selection (i, j, m_i, m_j), i < j:
    one sweep of the sorted kets per site pair, each residual cut with no
    re-check of its kets, and equal residuals filed as one object."""
    n, kets = state.n_sites, sorted(state.phases.items())
    table, shared = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            # Each ket's two selected digits first, then the rest.
            reorder = itemgetter(i, j, *(s for s in range(n) if s not in (i, j)))
            by_outcome: dict[tuple[int, ...], dict[BasisKet, int]] = {}
            for ket, t in kets:
                ket = reorder(ket)
                by_outcome.setdefault(ket[:2], {})[ket[2:]] = t
            for (m_i, m_j), phases in by_outcome.items():
                cut = StateVector._cut(n - 2, phases, state.level)
                table[i, j, m_i, m_j] = shared.setdefault(cut, cut)
    return table


def _shift_eigenvalue(phases: dict, u: int, v: int) -> int | None:
    """c with X_k**u X_l**v |s> = i**c |s>, or None.

    The word sends |a,b> to |a+u, b+v> with no phase, so the relation
    holds exactly when the shifted kets are the support and
    phases[k] == phases[k + (u, v)] + c (mod 4) with one common c.  The
    shift is a bijection, so every ket's partner lying in the support
    makes the supports equal; the scan stops at the first missing
    partner or the first phase that disagrees.  ``phases`` must not be
    empty.
    """
    c = None
    for (a, b), t in phases.items():
        partner = phases.get(((a + u) % 4, (b + v) % 4))
        if partner is None or c is not None and c != (t - partner) % 4:
            return None
        c = (t - partner) % 4
    return c


@lru_cache(maxsize=1024)
def derive_constraints(
    residual: StateVector,
) -> tuple[tuple[Eigenword, ...], Eigenword | None, Eigenword | None]:
    """Scan all candidate eigenwords of a two-site residual.

    Returns (all eigenwords in scan order, basic, extended).  The basic
    constraint is the first eigenword found; the extended one is its
    even-exponent form, computed rather than scanned for, as squaring an
    eigen-relation squares the eigenvalue.  The scan is a pure function
    of the phases, so the function is its own memo, keyed on the
    residual (one object per distinct residual of a state); the memo
    keeps no exception, so an invalid residual raises on every call.
    """
    if residual.n_sites != 2:
        raise ValueError("constraints are derived from two-site residuals")
    if residual.is_zero():
        raise ValueError("zero state has no eigenvalues")
    if residual.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    phases = residual.phases
    eigenwords = tuple(
        ((u, v), t)
        for u, v in CANDIDATE_WORDS
        if (t := _shift_eigenvalue(phases, u, v)) is not None
    )
    if not eigenwords:
        return eigenwords, None, None
    basic = eigenwords[0]
    (u, v), t = basic
    if u % 2 == 0 and v % 2 == 0:
        return eigenwords, basic, basic
    return eigenwords, basic, ((2 * u % 4, 2 * v % 4), 2 * t % 4)


SITE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: The sites a four-site row keeps, by its two selected sites in either order.
_KEPT_SITES = {
    pair: tuple(s for s in range(4) if s not in pair)
    for pair in permutations(range(4), 2)
}


def _constraint_row(state: StateVector, pair: PairSelection) -> ConstraintRow:
    """Select the pair and derive its constraints: one table row.

    Raises ValueError, as postselect_pair and derive_constraints do.
    """
    residual = postselect_pair(state, pair)
    # Derived first: it rejects all but four-site states, whose pairs
    # _KEPT_SITES holds.
    scan = derive_constraints(residual)
    return ConstraintRow(pair, _KEPT_SITES[pair.site_i, pair.site_j], residual, *scan)


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
