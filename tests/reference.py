"""Plain reference forms that the tests check the engine against.

No command needs these, so they live with the tests: each is the
obvious, slow statement of a fact the package computes another way.
"""

from davn.lhv import Constraint
from davn.states import StateVector


def scaled_by_phase(state: StateVector, t: int) -> StateVector:
    """i**t * state, amplitude by amplitude."""
    return StateVector(
        state.n_sites,
        {ket: amp.times_phase(t) for ket, amp in state.amplitudes.items()},
        level=state.level,
    )


def holds(constraint: Constraint, values: tuple[int, ...]) -> bool:
    """Does the assignment i**values meet sum_j e_j * v_j == target (mod 4)?"""
    return (
        sum(e * v for e, v in zip(constraint.exps, values)) % 4
        == constraint.target
    )
