"""Plain reference forms that the tests check the engine against.

No command needs these, so they live with the tests: each is the
obvious, slow statement of a fact the package computes another way.
"""

from davn.gauss import ZERO, phase_str
from davn.lhv import Constraint
from davn.pauli import PauliWord, apply_word
from davn.postselect import FixtureRow, PairSelection, ResidualState
from davn.states import StateVector, phase_between


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
