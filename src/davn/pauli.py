"""Generalized Pauli words for four-level systems (d = 4).

A word is the monomial  i**t * prod_j X_j**a_j Z_j**b_j  over n sites,
stored normal-ordered (X to the left of Z on every site) with a single
global phase exponent t.  The defining actions on a basis ket are

    X |k> = |k + 1 mod 4>          Z |k> = i**k |k>

so every phase stays inside {1, i, -1, -i}.  Exponents are reduced
mod 4 (X**4 = Z**4 = 1).

Words have a text form used by the CLI and reports, e.g. ``X3*X4^3``,
``Z1*Z2*Z3*Z4`` or ``i^3*X1*Z2^2`` (site labels are 1-based).
"""

from __future__ import annotations

BasisKet = tuple[int, ...]


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
        phase: int = 0,
    ) -> PauliWord:
        """Build a word from 0-based site -> exponent maps."""
        xs = [0] * n_sites
        zs = [0] * n_sites
        for site, exp in (x_exps or {}).items():
            xs[site] = exp
        for site, exp in (z_exps or {}).items():
            zs[site] = exp
        return cls(phase, tuple(zip(xs, zs)))


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
