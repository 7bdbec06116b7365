"""Sparse multi-qudit state vectors with exact Gaussian-integer amplitudes.

A state is an unnormalised map from basis kets (tuples over Z_d) to
nonzero Gaussian integers, plus the cached squared norm.  Nothing is ever
divided: the physical state is the vector divided by sqrt(norm_sq), and
every consumer works with the integer data directly.

States are immutable after construction and all operations here are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

from .gauss import ZERO, GaussInt
from .pauli import BasisKet, PauliWord, apply_word


class StateVector:
    """Unnormalised state: ket -> amplitude, with squared norm cached."""

    __slots__ = ("level", "n_sites", "amplitudes", "norm_sq")

    def __init__(
        self,
        n_sites: int,
        amplitudes: dict[BasisKet, GaussInt],
        level: int = 4,
    ) -> None:
        cleaned: dict[BasisKet, GaussInt] = {}
        norm_sq = 0
        for ket, amp in amplitudes.items():
            if amp.is_zero():
                continue
            if len(ket) != n_sites:
                raise ValueError(f"ket {ket} does not have {n_sites} digits")
            if any(not 0 <= k < level for k in ket):
                raise ValueError(f"ket {ket} has digits outside 0..{level - 1}")
            cleaned[ket] = amp
            norm_sq += amp.norm_sq()
        self.level = level
        self.n_sites = n_sites
        self.amplitudes = cleaned
        self.norm_sq = norm_sq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.equals_exactly(other)

    def __repr__(self) -> str:
        return (
            f"StateVector(n_sites={self.n_sites}, level={self.level}, "
            f"terms={len(self.amplitudes)}, norm_sq={self.norm_sq})"
        )

    def amplitude(self, ket: BasisKet) -> GaussInt:
        return self.amplitudes.get(tuple(ket), ZERO)

    def is_zero(self) -> bool:
        return not self.amplitudes

    def support(self) -> list[BasisKet]:
        """Kets with nonzero amplitude, in lexicographic order."""
        return sorted(self.amplitudes)

    def equals_exactly(self, other: StateVector) -> bool:
        return (
            self.level == other.level
            and self.n_sites == other.n_sites
            and self.amplitudes == other.amplitudes
        )

    def phase_relative_to(self, other: StateVector) -> int | None:
        """t with self == i**t * other amplitude-by-amplitude, else None."""
        if self.level != other.level or self.n_sites != other.n_sites:
            return None
        return phase_between(self.amplitudes, other.amplitudes)


def apply_to_state(word: PauliWord, state: StateVector) -> StateVector:
    """Linear extension of the word action; preserves norm_sq exactly."""
    if state.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    out: dict[BasisKet, GaussInt] = {}
    for ket, amp in state.amplitudes.items():
        t, image = apply_word(word, ket)
        out[image] = out.get(image, ZERO) + amp.times_phase(t)
    return StateVector(state.n_sites, out, level=state.level)


def phase_between(a: dict, b: dict) -> int | None:
    """c with a[k] == i**c * b[k] on one common support, or None.

    Amplitudes are nonzero, so the first ket fixes c; no copies are built.
    """
    if a.keys() != b.keys():
        return None
    first = next(iter(a), None)
    if first is None:
        return 0
    c = next((t for t in range(4) if b[first].times_phase(t) == a[first]), None)
    if c is None or any(b[k].times_phase(c) != amp for k, amp in a.items()):
        return None
    return c


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
