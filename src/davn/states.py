"""Sparse multi-qudit state vectors with unit amplitudes.

A state is an unnormalised map from the basis kets of its support
(tuples over Z_d) to phase exponents: ket k carries the amplitude
i**phases[k].  Every state in this package has unit amplitudes, so the
squared norm is the number of kets.  Nothing is ever divided: the
physical state is the vector divided by sqrt(norm_sq), and every
consumer works with the integer data directly.

States are immutable after construction and all operations here are pure,
so values can be shared freely between threads.  Two slots are filled
later, each a function of the phases, so filling one twice is harmless:
``_hash``, the state's hash, on its first use as a key, and
``_selections``, postselect's index of the pair selections.

The constructor validates every ket and exponent, since they come from
outside.  A residual that postselect cuts from a validated state is
valid by construction, so it is built by ``StateVector._cut`` with no
re-check.
"""

from __future__ import annotations

#: A basis ket: one digit in 0..level-1 per site.
BasisKet = tuple[int, ...]


class StateVector:
    """Unnormalised state: ket -> phase exponent, with squared norm cached."""

    __slots__ = ("level", "n_sites", "phases", "norm_sq", "_hash", "_selections")

    def __init__(
        self, n_sites: int, phases: dict[BasisKet, int], level: int = 4
    ) -> None:
        for ket, t in phases.items():
            if len(ket) != n_sites:
                raise ValueError(f"ket {ket} does not have {n_sites} digits")
            if any(not 0 <= k < level for k in ket):
                raise ValueError(f"ket {ket} has digits outside 0..{level - 1}")
            if type(t) is not int or not 0 <= t < 4:
                raise ValueError(
                    f"phase exponent of ket {ket} is {t!r}, not an int in 0..3"
                )
        self.level = level
        self.n_sites = n_sites
        self.phases = dict(phases)
        self.norm_sq = len(phases)
        self._hash: int | None = None
        self._selections: dict = {}

    @classmethod
    def _cut(
        cls, n_sites: int, phases: dict[BasisKet, int], level: int
    ) -> StateVector:
        """A state from phases already known valid, without a re-check.

        Every exponent must be an int in 0..3 and every ket must have
        ``n_sites`` digits in 0..level-1; only a cut of a validated state
        meets that without checking.  ``phases`` is kept, not copied.
        """
        state = cls.__new__(cls)
        state.level = level
        state.n_sites = n_sites
        state.phases = phases
        state.norm_sq = len(phases)
        state._hash = None
        state._selections = {}
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.equals_exactly(other)

    def __hash__(self) -> int:
        # Equal states have equal phase maps, so this agrees with ==.
        if self._hash is None:
            self._hash = hash(frozenset(self.phases.items()))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"StateVector(n_sites={self.n_sites}, level={self.level}, "
            f"terms={len(self.phases)}, norm_sq={self.norm_sq})"
        )

    def is_zero(self) -> bool:
        return not self.phases

    def support(self) -> list[BasisKet]:
        """Kets with nonzero amplitude, in lexicographic order."""
        return sorted(self.phases)

    def equals_exactly(self, other: StateVector) -> bool:
        return (
            self.level == other.level
            and self.n_sites == other.n_sites
            and self.phases == other.phases
        )


def phase_between(a: dict, b: dict) -> int | None:
    """c with a[k] == b[k] + c (mod 4) on one common support, or None.

    On phase-exponent maps this is the global phase i**c between the
    two amplitude maps; the first ket fixes c.
    """
    if a.keys() != b.keys():
        return None
    first = next(iter(a), None)
    if first is None:
        return 0
    c = (a[first] - b[first]) % 4
    for k, t in a.items():
        if (t - b[k]) % 4 != c:
            return None
    return c
