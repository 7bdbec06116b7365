"""Plain reference forms that the tests check the engine against.

No command needs these, so they live with the tests: each is the
obvious, slow statement of a fact the package computes another way.
The package holds every amplitude as a phase exponent; ``GaussInt`` here
is the ring Z[i] those amplitudes live in, so an oracle can add and
multiply amplitudes as written rather than as exponents.
"""

from __future__ import annotations

from davn.fixtures import FixtureRow
from davn.gauss import phase_str
from davn.lhv import Constraint
from davn.postselect import PairSelection, ResidualState
from davn.states import BasisKet, StateVector


class GaussInt:
    """A Gaussian integer re + im*i; compares and hashes by (re, im)."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int) -> None:
        self.re = re
        self.im = im

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussInt:
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussInt(re={self.re}, im={self.im})"

    def __add__(self, other: GaussInt) -> GaussInt:
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussInt) -> GaussInt:
        return GaussInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussInt:
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other: GaussInt) -> GaussInt:
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> GaussInt:
        return GaussInt(self.re, -self.im)

    def norm_sq(self) -> int:
        """|z|**2 = re**2 + im**2, an ordinary integer."""
        return self.re * self.re + self.im * self.im

    def times_phase(self, t: int) -> GaussInt:
        """Multiply by i**t, i.e. by IMAG t times."""
        z = self
        for _ in range(t % 4):
            z = z * IMAG
        return z

    def as_phase(self) -> int | None:
        """Return t with self == i**t, or None if self is not a unit."""
        for t in range(4):
            if self == GaussInt.from_phase(t):
                return t
        return None

    @staticmethod
    def from_phase(t: int) -> GaussInt:
        """The unit i**t."""
        return ONE.times_phase(t)


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
IMAG = GaussInt(0, 1)


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


def global_phase(a: dict, b: dict) -> int | None:
    """c in 0..3 with a[k] == b[k] + c (mod 4) on one support, by search."""
    if a.keys() != b.keys():
        return None
    for c in range(4):
        if all(a[k] == (b[k] + c) % 4 for k in a):
            return c
    return None


def eigenvalue_of(word: PauliWord, state: StateVector) -> int | None:
    """Phase exponent c with word|s> = i**c |s>, or None.

    Decided from phases: the word sends k to i**t |k'>, so the relation
    holds exactly when every k' is in the support and phases[k] + t ==
    phases[k'] + c (mod 4) with one common c, a fourth-root eigenvalue.
    Raises on a zero state, where the relation is vacuous.
    """
    if state.is_zero():
        raise ValueError("zero state has no eigenvalues")
    if state.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    phases = state.phases
    image = {}
    for ket, p in phases.items():
        t, shifted = apply_word(word, ket)
        if shifted not in phases:
            return None
        image[shifted] = (p + t) % 4
    return global_phase(image, phases)


def scaled_by_phase(state: StateVector, t: int) -> StateVector:
    """i**t * state, ket by ket."""
    return StateVector(
        state.n_sites,
        {ket: (p + t) % 4 for ket, p in state.phases.items()},
        level=state.level,
    )


def apply_to_state(word: PauliWord, state: StateVector) -> StateVector:
    """Linear extension of the word action, summed in Z[i].

    A word is a phased permutation of the kets, so every image amplitude
    is a unit again and the result is a state; norm_sq is preserved.
    """
    if state.level != 4:
        raise ValueError("Pauli words act on 4-level states only")
    out = {}
    for ket, p in state.phases.items():
        t, image = apply_word(word, ket)
        out[image] = out.get(image, ZERO) + GaussInt.from_phase(p).times_phase(t)
    phases = {ket: amp.as_phase() for ket, amp in out.items()}
    return StateVector(state.n_sites, phases, level=state.level)


def phase_relative_to(state: StateVector, other: StateVector) -> int | None:
    """t with state == i**t * other ket by ket, else None."""
    if state.level != other.level or state.n_sites != other.n_sites:
        return None
    return global_phase(state.phases, other.phases)


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
    phases = {}
    for ket, t in state.phases.items():
        if ket[pair.site_i] == pair.m_i and ket[pair.site_j] == pair.m_j:
            phases[tuple(ket[s] for s in keep)] = t
    residual = StateVector(len(keep), phases, level=state.level)
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
        "".join(map(str, ket)) + f":{t}"
        for ket, t in sorted(row.residual.items())
    )
    return (
        f"table={row.table} | pair={row.pair.describe()}"
        f" | residual={residual}"
        f" | basic={eigenword(row.basic)}"
        f" | extended={eigenword(row.extended)}"
    )
