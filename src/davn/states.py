"""Sparse multi-qudit state vectors with exact Gaussian-integer amplitudes.

A state is an unnormalised map from basis kets (tuples over Z_d) to
nonzero Gaussian integers, plus the cached squared norm.  Nothing is ever
divided: the physical state is the vector divided by sqrt(norm_sq), and
every consumer works with the integer data directly.

States are immutable after construction and all operations here are pure,
so values can be shared freely between threads.  Two slots are filled
later, each a function of the amplitudes, so filling one twice is
harmless: ``_hash``, the state's hash, on its first use as a key, and
``_selections``, postselect's index of the pair selections.

The constructor validates every ket, since kets come from outside.  A
residual that postselect cuts from a validated state is valid by
construction, so it is built by ``StateVector._cut`` with no re-check.
"""

from __future__ import annotations

from .gauss import ZERO, GaussInt

#: A basis ket: one digit in 0..level-1 per site.
BasisKet = tuple[int, ...]


class StateVector:
    """Unnormalised state: ket -> amplitude, with squared norm cached."""

    __slots__ = (
        "level", "n_sites", "amplitudes", "norm_sq", "_hash", "_selections"
    )

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
        self._hash: int | None = None
        self._selections: dict = {}

    @classmethod
    def _cut(
        cls, n_sites: int, amplitudes: dict[BasisKet, GaussInt], level: int
    ) -> StateVector:
        """A state from amplitudes already known valid, without a re-check.

        Every amplitude must be nonzero and every ket must have
        ``n_sites`` digits in 0..level-1; only a cut of a validated state
        meets that without checking.  ``amplitudes`` is kept, not copied.
        """
        state = cls.__new__(cls)
        state.level = level
        state.n_sites = n_sites
        state.amplitudes = amplitudes
        state.norm_sq = sum(amp.norm_sq() for amp in amplitudes.values())
        state._hash = None
        state._selections = {}
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.equals_exactly(other)

    def __hash__(self) -> int:
        # Equal states have equal amplitude maps, so this agrees with ==.
        if self._hash is None:
            self._hash = hash(frozenset(self.amplitudes.items()))
        return self._hash

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


#: i**c as (re, im) for c = 0..3.
_UNIT_PARTS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def phase_between(a: dict, b: dict) -> int | None:
    """c with a[k] == i**c * b[k] on one common support, or None.

    Amplitudes are nonzero, so the first ket fixes c.  The products are
    compared part by part, so no amplitude is built.
    """
    if a.keys() != b.keys():
        return None
    first = next(iter(a), None)
    if first is None:
        return 0
    x, y = a[first], b[first]
    for c, (p, q) in enumerate(_UNIT_PARTS):
        if p * y.re - q * y.im == x.re and p * y.im + q * y.re == x.im:
            break
    else:
        return None
    for k, x in a.items():
        y = b[k]
        if p * y.re - q * y.im != x.re or p * y.im + q * y.re != x.im:
            return None
    return c
