"""Construction and diagnostics of the states under study.

The central object is a four-ququart state with 56 basis components whose
digits sum to 0 mod 4, so the product of the four Z operators fixes it
(`check_global_stabilizer`), while its single-site reduced density
matrices are not maximally mixed (`nonstabilizer_test`) - the combination
that makes it interesting.  A four-qubit seed state and its digit-map
embedding into ququarts are provided for comparison.  The paper's ten
condition tables group the same 56 components by family, so their
outcome lists are read off the component text too.

States carry phase exponents (amplitude i**t), so every supported
ket weighs 1: probabilities are exact `Fraction` values 1 / norm_sq, and
reduced-density entries count ket pairs by their phase difference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .gauss import parse_phase
from .states import BasisKet, StateVector

# The 56 components, written as <digits>:<amplitude>.  One row per
# component family: the two +1 kets, then six families each headed by a
# -1 ket (a placement of two 2s) followed by its eight +-i partners.
_PSI_1234_COMPONENTS = """
0000:+1 2222:+1
0022:-1 0233:+i 2033:-i 0211:+i 2011:-i 1300:+i 3100:-i 1322:-i 3122:+i
2002:-1 3023:+i 3203:-i 1021:+i 1201:-i 0130:+i 0310:-i 2132:-i 2312:+i
2200:-1 3302:+i 3320:-i 1102:+i 1120:-i 0013:+i 0031:-i 2213:-i 2231:+i
0220:-1 2330:+i 0332:-i 2110:+i 0112:-i 3001:+i 1003:-i 3221:-i 1223:+i
0202:-1 0323:+i 2303:-i 0121:+i 2101:-i 1030:+i 3010:-i 1232:-i 3212:+i
2020:-1 3032:+i 3230:-i 1012:+i 1210:-i 0103:+i 0301:-i 2123:-i 2321:+i
"""


def _parse_components(text: str) -> dict[BasisKet, int]:
    terms: dict[BasisKet, int] = {}
    for token in text.split():
        digits, value = token.split(":")
        ket = tuple(int(c) for c in digits)
        if ket in terms:
            raise ValueError(f"duplicate component {digits}")
        terms[ket] = parse_phase(value)
    return terms


PSI_1234_TERMS: dict[BasisKet, int] = _parse_components(_PSI_1234_COMPONENTS)

#: The ten condition tables, in document order.  Tables beyond the first
#: two come in A/B twins, one per phase of a family's +-i components.
TABLE_LABELS = (
    "I", "II", "III-A", "III-B", "IV-A", "IV-B", "V-A", "V-B", "VI-A", "VI-B",
)


def _table_blocks(text: str) -> dict[str, tuple[BasisKet, ...]]:
    """The outcomes of each condition table, in table order.

    Table I is the first component line.  Each later line is one family:
    its head (the -1 ket) belongs to table II and its eight +-i partners,
    in order, to III-A .. VI-B, so those nine tables are the columns of
    the six family lines.  A line of the wrong length is a transcription
    error and raises AssertionError, as the checksum does.
    """
    lines = [tuple(_parse_components(line)) for line in text.strip().splitlines()]
    shape = [len(line) for line in lines]
    if shape != [2, 9, 9, 9, 9, 9, 9]:
        raise AssertionError(
            f"component lines hold {shape} terms, expected 2 then six of 9"
        )
    first, *families = lines
    return dict(zip(TABLE_LABELS, (first, *zip(*families))))


#: Outcome kets of each table, one block per outcome.
TABLE_BLOCKS = _table_blocks(_PSI_1234_COMPONENTS)

#: The table each of the 56 outcome kets belongs to.
TABLE_OF_OUTCOME = {
    ket: label for label, kets in TABLE_BLOCKS.items() for ket in kets
}

#: Positional roman names I..X for the ten tables, in document order.
TABLE_ALIASES = {
    "III": "III-A", "IV": "III-B", "V": "IV-A", "VI": "IV-B",
    "VII": "V-A", "VIII": "V-B", "IX": "VI-A", "X": "VI-B",
}


def canonical_table_label(label: str) -> str:
    name = label.strip().upper()
    name = TABLE_ALIASES.get(name, name)
    if name not in TABLE_BLOCKS:
        raise ValueError(f"unknown table label: {label!r}")
    return name


def _check_transcription(terms: dict[BasisKet, int]) -> None:
    """Checksum over the embedded component table.

    The table is data and data entry is the main risk, so the structural
    facts are re-verified at build time: 56 distinct kets, digit sums all
    0 mod 4, and the amplitude census 2/6/24/24 over 1/-1/i/-i.
    """
    if len(terms) != 56:
        raise AssertionError(f"expected 56 components, found {len(terms)}")
    if any(sum(ket) % 4 for ket in terms):
        raise AssertionError("a component has digit sum != 0 mod 4")
    census = {t: 0 for t in range(4)}
    for t in terms.values():
        census[t] += 1
    if census != {0: 2, 1: 24, 2: 6, 3: 24}:
        raise AssertionError(f"amplitude census off: {census}")


def build_psi_1234() -> StateVector:
    """The 56-component four-ququart state (norm_sq = 56)."""
    _check_transcription(PSI_1234_TERMS)
    return StateVector(4, PSI_1234_TERMS)


def build_psi4_qubit() -> StateVector:
    """Four-qubit seed state: +|0000> minus the six weight-2 kets.

    norm_sq = 7; digits are 0 (up) and 1 (down).
    """
    phases = {(0, 0, 0, 0): 0}
    for i, j in combinations(range(4), 2):
        phases[tuple(1 if site in (i, j) else 0 for site in range(4))] = 2
    return StateVector(4, phases, level=2)


def embed_qubit_state(state: StateVector, target_digit: int) -> StateVector:
    """Relabel a 2-level state into 4 levels: 0 -> 0, 1 -> target_digit.

    Phases are unchanged, so norm_sq is preserved.
    """
    if state.level != 2:
        raise ValueError("embedding expects a 2-level state")
    if not 1 <= target_digit <= 3:
        raise ValueError("target digit must be one of 1, 2, 3")
    return StateVector(
        state.n_sites,
        {
            tuple(target_digit if k else 0 for k in ket): t
            for ket, t in state.phases.items()
        },
        level=4,
    )


class DensityMatrix:
    """Exact single-site density matrix: numerators over a common denominator.

    Entry (r, c) is (re + im*i) / denominator for the int pair
    numerators[r][c] = (re, im), so Hermiticity and trace are checked by
    integer equality.
    """

    __slots__ = ("dim", "denominator", "numerators")

    def __init__(
        self,
        dim: int,
        denominator: int,
        numerators: tuple[tuple[tuple[int, int], ...], ...],
    ) -> None:
        self.dim = dim
        self.denominator = denominator
        self.numerators = numerators

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(self.numerators[k][k][0], self.denominator)
            for k in range(self.dim)
        )

    def trace(self) -> Fraction:
        return sum(self.diagonal(), Fraction(0))

    def is_hermitian(self) -> bool:
        return all(
            self.numerators[c][r] == (re, -im)
            for r in range(self.dim)
            for c, (re, im) in enumerate(self.numerators[r])
        )

    def is_maximally_mixed(self) -> bool:
        """Exactly equal to identity / dim."""
        return all(
            (re * self.dim == self.denominator if r == c else re == 0) and im == 0
            for r in range(self.dim)
            for c, (re, im) in enumerate(self.numerators[r])
        )


def reduced_density(state: StateVector, site: int) -> DensityMatrix:
    """Exact partial trace onto one site (0-based index).

    Entry (r, c) sums i**(t_r - t_c) over the ket pairs that agree off
    the site and read r and c on it.  With n_e such pairs of exponent
    difference e mod 4, that is (n_0 - n_2) + (n_1 - n_3) i.
    """
    if not 0 <= site < state.n_sites:
        raise ValueError(f"site {site} out of range 0..{state.n_sites - 1}")
    d = state.level
    buckets: dict[BasisKet, dict[int, int]] = {}
    for ket, t in state.phases.items():
        rest = ket[:site] + ket[site + 1 :]
        buckets.setdefault(rest, {})[ket[site]] = t
    counts = [[[0] * 4 for _ in range(d)] for _ in range(d)]
    for row in buckets.values():
        for r, t_r in row.items():
            for c, t_c in row.items():
                counts[r][c][(t_r - t_c) % 4] += 1
    return DensityMatrix(
        d,
        state.norm_sq,
        tuple(tuple((n0 - n2, n1 - n3) for n0, n1, n2, n3 in r) for r in counts),
    )


class NonstabilizerVerdict:
    """Per-site deviation of the reduced density matrices from I/d.

    For a fully entangled state (assumed, not checked here) any deviation
    certifies that the state is not a stabilizer state.
    """

    __slots__ = ("densities", "deviating_sites")

    def __init__(
        self,
        densities: tuple[DensityMatrix, ...],
        deviating_sites: tuple[int, ...],
    ) -> None:
        self.densities = densities
        self.deviating_sites = deviating_sites

    @property
    def is_nonstabilizer(self) -> bool:
        return bool(self.deviating_sites)


def nonstabilizer_test(state: StateVector) -> NonstabilizerVerdict:
    densities = tuple(
        reduced_density(state, site) for site in range(state.n_sites)
    )
    deviating = tuple(
        site
        for site, rho in enumerate(densities)
        if not rho.is_maximally_mixed()
    )
    return NonstabilizerVerdict(densities, deviating)


class StabilizerAudit:
    """Result of applying the all-sites Z word.

    The word multiplies |k1..kn> by the phase of the digit sum, so it
    fixes the state exactly when every support ket has digit sum 0 mod d.
    `digit_rule_holds` records that each support ket is fixed exactly
    when its digit sum is 0 mod d, both ways.
    """

    __slots__ = ("stabilized", "digit_rule_holds")

    def __init__(self, stabilized: bool, digit_rule_holds: bool) -> None:
        self.stabilized = stabilized
        self.digit_rule_holds = digit_rule_holds


def z_word_fixes(state: StateVector, power: int) -> bool:
    """Does Z1**p Z2**p ... Zn**p fix the state exactly?

    Z**p sends |k> to i**(p*k) |k>, so the word multiplies each ket by the
    phase of p times its digit sum and fixes the state exactly when that
    is 0 mod 4 on every support ket.  Raises on a zero state, where the
    relation is vacuous.
    """
    if state.is_zero():
        raise ValueError("zero state has no eigenvalues")
    return all(power * sum(ket) % 4 == 0 for ket in state.phases)


def check_global_stabilizer(state: StateVector) -> StabilizerAudit:
    """Does Z1 Z2 ... Zn fix the state exactly?

    In fourth-root units Z is i**(p*k) with p = 4 // d: Z itself for
    d = 4 and the qubit diag(1, -1) for d = 2.  Raises on a zero state
    and on any other level.
    """
    d = state.level
    if d not in (2, 4):
        raise ValueError(f"Z words are defined for levels 2 and 4, not {d}")
    p = 4 // d
    digit_rule_holds = all(
        (p * sum(ket) % 4 == 0) == (sum(ket) % d == 0) for ket in state.phases
    )
    return StabilizerAudit(z_word_fixes(state, p), digit_rule_holds)


def joint_z_probability(state: StateVector, outcome: BasisKet) -> Fraction:
    """Probability of the joint Z outcome i**k_j on each site j.

    Measuring every Z projectively is measurement in the computational
    basis, so this is |amplitude|**2 / norm_sq: 1 / norm_sq on the
    support, since every amplitude is a unit, and 0 off it.
    """
    return Fraction(1, state.norm_sq) if outcome in state.phases else Fraction(0)


def z_support(state: StateVector) -> list[BasisKet]:
    """Outcome tuples with nonzero probability, in lexicographic order."""
    return state.support()


def commutation_phase_audit(d: int) -> int:
    """Sign relating X**(d/2) Z**(d/2) and Z**(d/2) X**(d/2) for even d.

    Swapping the halves multiplies by omega**((d/2)**2) with
    omega = exp(2*pi*i/d), which is +1 or -1 for even d; the value is -1
    (anticommuting, qubit-like) exactly when d/2 is odd.  Returned as
    +1 or -1.
    """
    if d % 2 or d < 2:
        raise ValueError("d must be a positive even integer")
    if d > 64:
        raise ValueError("audit supports d up to 64")
    exponent = (d // 2) ** 2 % d
    if exponent == 0:
        return 1
    if 2 * exponent == d:
        return -1
    raise AssertionError("(d/2)**2 mod d is always 0 or d/2 for even d")
