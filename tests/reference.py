"""Plain reference forms that the tests check the engine against.

No command needs these, so they live with the tests: each is the
obvious, slow statement of a fact the package computes another way.
"""

from __future__ import annotations

from davn.fixtures import FixtureRow
from davn.gauss import ZERO, phase_str
from davn.lhv import Constraint
from davn.postselect import PairSelection, ResidualState
from davn.states import BasisKet, StateVector, phase_between

# ---------------------------------------------------------------------------
# Generalized Pauli words for four-level systems (d = 4).
#
# A word is the monomial  i**t * prod_j X_j**a_j Z_j**b_j  over n sites,
# stored normal-ordered (X to the left of Z on every site) with a single
# global phase exponent t.  The defining actions on a basis ket are
#
#     X |k> = |k + 1 mod 4>          Z |k> = i**k |k>
#
# so every phase stays inside {1, i, -1, -i}.  Exponents are reduced
# mod 4 (X**4 = Z**4 = 1).  The text form reads e.g. ``X3*X4^3``,
# ``Z1*Z2*Z3*Z4`` or ``i^3*X1*Z2^2`` (site labels are 1-based).


class PauliWord:
    """i**phase * prod over sites of X**x_exp * Z**z_exp.

    ``sites`` holds one (x_exp, z_exp) pair per site; every exponent is
    reduced mod 4 on construction.
    """

    __slots__ = ("phase", "sites")

    def __init__(self, phase: int, sites: tuple[tuple[int, int], ...]) -> None:
        self.phase = phase % 4
        self.sites = tuple((a % 4, b % 4) for a, b in sites)

    def __repr__(self) -> str:
        return f"PauliWord(phase={self.phase}, sites={self.sites})"

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @classmethod
    def from_exponents(
        cls,
        n_sites: int,
        x_exps: dict[int, int] | None = None,
        z_exps: dict[int, int] | None = None,
    ) -> PauliWord:
        """Build a word from 0-based site -> exponent maps."""
        xs = [0] * n_sites
        zs = [0] * n_sites
        for site, exp in (x_exps or {}).items():
            xs[site] = exp
        for site, exp in (z_exps or {}).items():
            zs[site] = exp
        return cls(0, tuple(zip(xs, zs)))


def apply_word(word: PauliWord, ket: BasisKet) -> tuple[int, BasisKet]:
    """Image of a basis ket under a word: (phase exponent, new ket).

    Per site, X**a Z**b |k> = i**(b*k) |k + a>, so the total phase is the
    word phase plus sum(b_j * k_j) and each digit shifts by a_j.
    """
    if len(ket) != word.n_sites:
        raise ValueError(
            f"word acts on {word.n_sites} sites, ket has {len(ket)}"
        )
    phase = word.phase
    digits = []
    for (a, b), k in zip(word.sites, ket):
        phase += b * k
        digits.append((k + a) % 4)
    return phase % 4, tuple(digits)


def word_str(word: PauliWord) -> str:
    """Canonical text form; ``I`` is the identity with no phase."""
    factors = []
    for index, (a, b) in enumerate(word.sites):
        label = index + 1
        if a:
            factors.append(f"X{label}" + (f"^{a}" if a > 1 else ""))
        if b:
            factors.append(f"Z{label}" + (f"^{b}" if b > 1 else ""))
    body = "*".join(factors) if factors else "I"
    if word.phase:
        return f"i^{word.phase}*{body}"
    return body


def eigenvalue_of(word: PauliWord, state: StateVector) -> int | None:
    """Phase exponent c with word|s> = i**c |s>, or None.

    Decided from amplitudes: the word sends k to i**t |k'>, so the relation
    holds exactly when every k' is in the support and amp[k] * i**t ==
    i**c * amp[k'] with one common c, a fourth-root eigenvalue.  Raises on
    a zero state, where the relation is vacuous.
    """
    if state.is_zero():
        raise ValueError("zero state has no eigenvalues")
    if state.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    amplitudes = state.amplitudes
    image = {}
    for ket, amp in amplitudes.items():
        t, shifted = apply_word(word, ket)
        if shifted not in amplitudes:
            return None
        image[shifted] = amp.times_phase(t)
    return phase_between(image, amplitudes)


def scaled_by_phase(state: StateVector, t: int) -> StateVector:
    """i**t * state, amplitude by amplitude."""
    return StateVector(
        state.n_sites,
        {ket: amp.times_phase(t) for ket, amp in state.amplitudes.items()},
        level=state.level,
    )


def apply_to_state(word: PauliWord, state: StateVector) -> StateVector:
    """Linear extension of the word action; preserves norm_sq exactly."""
    if state.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    out = {}
    for ket, amp in state.amplitudes.items():
        t, image = apply_word(word, ket)
        out[image] = out.get(image, ZERO) + amp.times_phase(t)
    return StateVector(state.n_sites, out, level=state.level)


def phase_relative_to(state: StateVector, other: StateVector) -> int | None:
    """t with state == i**t * other amplitude by amplitude, else None."""
    if state.level != other.level or state.n_sites != other.n_sites:
        return None
    return phase_between(state.amplitudes, other.amplitudes)


def holds(constraint: Constraint, values: tuple[int, ...]) -> bool:
    """Does the assignment i**values meet sum_j e_j * v_j == target (mod 4)?"""
    return (
        sum(e * v for e, v in zip(constraint.exps, values)) % 4
        == constraint.target
    )


def postselect_pair_sweep(state: StateVector, pair: PairSelection) -> ResidualState:
    """postselect_pair by one sweep of the kets per selection."""
    for site in (pair.site_i, pair.site_j):
        if not 0 <= site < state.n_sites:
            raise ValueError(f"site {site + 1} out of range")
    keep = [
        site
        for site in range(state.n_sites)
        if site not in (pair.site_i, pair.site_j)
    ]
    amplitudes = {}
    for ket, amp in state.amplitudes.items():
        if ket[pair.site_i] == pair.m_i and ket[pair.site_j] == pair.m_j:
            amplitudes[tuple(ket[s] for s in keep)] = amp
    residual = StateVector(len(keep), amplitudes, level=state.level)
    if residual.is_zero():
        raise ValueError(
            f"selection {pair.describe()} has probability zero"
        )
    return ResidualState(tuple(keep), residual)


def render_fixture_row(row: FixtureRow) -> str:
    """A fixture data line that parse_fixture_text reads back as ``row``."""

    def eigenword(word):
        if word is None:
            return "none"
        (u, v), t = word
        return f"{u},{v}:{phase_str(t)}"

    residual = ";".join(
        "".join(map(str, ket)) + f":{amp.as_phase()}"
        for ket, amp in sorted(row.residual.items())
    )
    return (
        f"table={row.table} | pair={row.pair.describe()}"
        f" | residual={residual}"
        f" | basic={eigenword(row.basic)}"
        f" | extended={eigenword(row.extended)}"
    )
