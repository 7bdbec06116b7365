"""Construction of the states under study, by name through `build_state`.

The central object is a four-ququart state with 56 basis components whose
digits sum to 0 mod 4, so the product of the four Z operators fixes it,
while its single-site reduced density matrices are not maximally mixed
(both are checked in `davn.checks`) - the combination that makes it
interesting.  A four-qubit seed state and its digit-map embedding into
ququarts are provided for comparison.  The paper's ten condition tables
group the same 56 components by family, so their outcome lists are read
off the component text too.

States carry phase exponents (amplitude i**t), so every supported
ket weighs 1: a probability is an exact pair ``(count, norm_sq)`` of
ints, the number of supported kets over the ket count, left unreduced.
"""

from __future__ import annotations

from itertools import combinations

from .states import BasisKet, StateVector, parse_phase, quote_input

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


def _parse_components(text: str) -> list[dict[BasisKet, int]]:
    """One dict of ket -> phase exponent per line of ``text``; a ket
    written twice anywhere in the text raises ValueError."""
    lines, seen = [], set()
    for line in text.strip().splitlines():
        terms: dict[BasisKet, int] = {}
        for token in line.split():
            digits, value = token.split(":")
            ket = tuple(map(int, digits))
            if ket in seen:
                raise ValueError(f"duplicate component {digits}")
            seen.add(ket)
            terms[ket] = parse_phase(value)
        lines.append(terms)
    return lines


_COMPONENT_LINES = _parse_components(_PSI_1234_COMPONENTS)

PSI_1234_TERMS: dict[BasisKet, int] = {
    ket: t for line in _COMPONENT_LINES for ket, t in line.items()
}

#: The ten condition tables, in document order.  Tables beyond the first
#: two come in A/B twins, one per phase of a family's +-i components.
TABLE_LABELS = (
    "I", "II", "III-A", "III-B", "IV-A", "IV-B", "V-A", "V-B", "VI-A", "VI-B",
)


def _table_blocks(lines: list[dict]) -> dict[str, tuple[BasisKet, ...]]:
    """The outcomes of each condition table, in table order.

    Table I is the first component line.  Each later line is one family:
    its head (the -1 ket) belongs to table II and its eight +-i partners,
    in order, to III-A .. VI-B, so those nine tables are the columns of
    the six family lines.  A line of the wrong length is a transcription
    error and raises AssertionError, as the checksum does.
    """
    shape = [len(line) for line in lines]
    if shape != [2, 9, 9, 9, 9, 9, 9]:
        raise AssertionError(
            f"component lines hold {shape} terms, expected 2 then six of 9"
        )
    first, *families = map(tuple, lines)
    return dict(zip(TABLE_LABELS, (first, *zip(*families))))


#: Outcome kets of each table, one block per outcome.
TABLE_BLOCKS = _table_blocks(_COMPONENT_LINES)

#: The table each of the 56 outcome kets belongs to, the label of its
#: family: I covers the two constant outcomes, II the placements of two
#: 2s, and the A/B twins of III..VI split each remaining family by the
#: phase of the originating component.  Each table holds one phase: A is
#: +i for III, IV and V but -i for VI.  A ket off the support has none.
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
    # ASCII as given: strip and upper turn some non-ASCII labels into ASCII.
    if not label.isascii() or name not in TABLE_BLOCKS:
        raise ValueError(f"unknown table label: {quote_input(label)}")
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


STATE_NAMES = ("psi1234", "psi4-qubit", "psi4-embedded")


def build_state(name: str) -> StateVector:
    if name == "psi1234":
        return build_psi_1234()
    if name == "psi4-qubit":
        return build_psi4_qubit()
    if name == "psi4-embedded":
        return embed_qubit_state(build_psi4_qubit(), 1)
    raise ValueError(f"unknown state {name!r}; expected one of {STATE_NAMES}")


def joint_z_probability(state: StateVector, outcome: BasisKet) -> tuple[int, int]:
    """Probability of the joint Z outcome i**k_j on each site j.

    Measuring every Z projectively is measurement in the computational
    basis, so this is |amplitude|**2 / norm_sq: the pair (1, norm_sq) on
    the support, since every amplitude is a unit, and (0, norm_sq) off it.
    """
    return (1 if outcome in state.phases else 0, state.norm_sq)
