"""Sparse multi-qudit state vectors with unit amplitudes, and the phase
group Z4 they are written in.

Every amplitude, eigenvalue and Z outcome in this package is a unit
i**t, so it is carried as its "phase exponent" t, a plain int reduced
mod 4; the group law is addition mod 4.  Probabilities are pairs
(numerator, norm_sq) of ints, and all checks downstream are equality
tests, never tolerance comparisons.

A state is an unnormalised, non-empty map from the basis kets of its
support (tuples over Z_d) to phase exponents: ket k carries the
amplitude i**phases[k].  Every state in this package has unit
amplitudes, so the squared norm is the number of kets.  Nothing is ever
divided: the physical state is the vector divided by sqrt(norm_sq), and
every consumer works with the integer data directly.

A state is a value: every slot is set when it is built and never
after, its hash included, so states can be shared freely between
threads and used as memo keys.  Memos over states live with the
modules that compute them (postselect keeps its own selections).

The constructor validates every ket and exponent, since they come from
outside, and rejects an empty map, so no consumer tests for one.  A
residual that postselect cuts from a validated state is valid by
construction, so it is built by ``StateVector._cut`` with no re-check.
"""

from __future__ import annotations

from math import gcd

#: A basis ket: one digit in 0..level-1 per site.
BasisKet = tuple[int, ...]

#: Rendering of the four unit phases i**t for t = 0..3.
PHASE_STRINGS = ("1", "i", "-1", "-i")

_PHASE_FROM_STRING = {s: t for t, s in enumerate(PHASE_STRINGS)}
_PHASE_FROM_STRING["+1"] = 0
_PHASE_FROM_STRING["+i"] = 1


def phase_str(t: int) -> str:
    """Render i**t as one of 1, i, -1, -i."""
    return PHASE_STRINGS[t % 4]


def outcome_digits(outcome: BasisKet) -> str:
    """A ket or Z outcome as its digits: (0, 2, 3, 3) -> 0233."""
    return "".join(map(str, outcome))


def ratio_str(num: int, den: int) -> str:
    """``num / den`` (``den > 0``) as ``str(Fraction)`` writes it: ``1/56``, ``1``."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def quote_input(text: str) -> str:
    """``repr(text)``, or of its first 200 characters and its length."""
    if len(text) <= 200:
        return repr(text)
    return f"{text[:200]!r}... ({len(text)} characters)"


def parse_phase(text: str) -> int:
    """Inverse of :func:`phase_str`; also accepts +1 and +i."""
    try:
        return _PHASE_FROM_STRING[text.strip()]
    except KeyError:
        raise ValueError(f"not a fourth root of unity: {text!r}") from None


class StateVector:
    """Unnormalised state: ket -> phase exponent, hashed once when built."""

    __slots__ = ("level", "n_sites", "phases", "_hash")

    def __init__(
        self, n_sites: int, phases: dict[BasisKet, int], level: int = 4
    ) -> None:
        if not phases:
            raise ValueError("a state needs at least one ket")
        for ket, t in phases.items():
            if len(ket) != n_sites:
                raise ValueError(f"ket {ket} does not have {n_sites} digits")
            if any(type(k) is not int or not 0 <= k < level for k in ket):
                raise ValueError(f"ket {ket} needs int digits in 0..{level - 1}")
            if type(t) is not int or not 0 <= t < 4:
                raise ValueError(
                    f"phase exponent of ket {ket} is {t!r}, not an int in 0..3"
                )
        self.level = level
        self.n_sites = n_sites
        self.phases = dict(phases)
        self._hash = hash(frozenset(self.phases.items()))

    @classmethod
    def _cut(
        cls, n_sites: int, phases: dict[BasisKet, int], level: int
    ) -> StateVector:
        """A state from phases already known valid, without a re-check.

        ``phases`` must be non-empty, every exponent an int in 0..3 and
        every ket ``n_sites`` int digits in 0..level-1; only a non-empty
        cut of a validated state meets that without checking.  ``phases``
        is kept, not copied.
        """
        state = cls.__new__(cls)
        state.level = level
        state.n_sites = n_sites
        state.phases = phases
        state._hash = hash(frozenset(phases.items()))
        return state

    @property
    def norm_sq(self) -> int:
        """Squared norm: every amplitude is a unit, so the ket count."""
        return len(self.phases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return (
            self.level == other.level
            and self.n_sites == other.n_sites
            and self.phases == other.phases
        )

    def __hash__(self) -> int:
        # Equal states have equal phase maps, so this agrees with ==.
        return self._hash

    def __repr__(self) -> str:
        return (
            f"StateVector(n_sites={self.n_sites}, level={self.level}, "
            f"terms={len(self.phases)}, norm_sq={self.norm_sq})"
        )

    def support(self) -> list[BasisKet]:
        """Kets with nonzero amplitude, in lexicographic order."""
        return sorted(self.phases)
