"""State construction and diagnostics.

The 56-component state is cross-checked against a second, independently
typed transcription, structured by component family rather than by the
source layout, so a slip in either copy shows up as a mismatch.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from davn.checks import (
    DensityMatrix,
    check_global_stabilizer,
    commutation_phase_audit,
    nonstabilizer_test,
    reduced_density,
    z_word_fixes,
)
from davn.factory import (
    PSI_1234_TERMS,
    _parse_components,
    build_psi4_qubit,
    build_psi_1234,
    build_state,
    embed_qubit_state,
    joint_z_probability,
)
from davn.states import StateVector
from reference import ZERO, GaussInt, PauliWord, apply_to_state, eigenvalue_of

# Second transcription: families keyed by (phase, members).
SECOND_TRANSCRIPTION = {
    0: ["0000", "2222"],
    2: ["0022", "2002", "2200", "0220", "0202", "2020"],
    1: [
        "0233", "3023", "3302", "2330", "0323", "3032",   # two 3s family, +i
        "0211", "1021", "1102", "2110", "0121", "1012",   # two 1s family, +i
        "1300", "0130", "0013", "3001", "1030", "0103",   # 1,3 with 0s, +i
        "3122", "2312", "2231", "1223", "3212", "2321",   # 1,3 with 2s, +i
    ],
    3: [
        "2033", "3203", "3320", "0332", "2303", "3230",   # two 3s family, -i
        "2011", "1201", "1120", "0112", "2101", "1210",   # two 1s family, -i
        "3100", "0310", "0031", "1003", "3010", "0301",   # 1,3 with 0s, -i
        "1322", "2132", "2213", "3221", "1232", "2123",   # 1,3 with 2s, -i
    ],
}


def test_component_table_matches_second_transcription():
    expected = {}
    for phase, kets in SECOND_TRANSCRIPTION.items():
        for digits in kets:
            ket = tuple(int(c) for c in digits)
            assert ket not in expected, f"duplicate {digits}"
            expected[ket] = phase
    assert expected == PSI_1234_TERMS


def test_component_parser_rejects_a_repeated_ket():
    with pytest.raises(ValueError, match="duplicate component 0013"):
        _parse_components("0013:+i 2222:1 0013:-i")


def test_psi1234_shape():
    psi = build_psi_1234()
    assert psi.norm_sq == 56
    assert len(psi.phases) == 56
    assert all(sum(ket) % 4 == 0 for ket in psi.phases)
    census = {}
    for t in psi.phases.values():
        census[t] = census.get(t, 0) + 1
    assert census == {0: 2, 1: 24, 2: 6, 3: 24}


def test_psi1234_amplitude_spot_checks():
    psi = build_psi_1234()
    assert psi.phases[(0, 0, 0, 0)] == 0
    assert psi.phases[(0, 0, 2, 2)] == 2
    assert psi.phases[(0, 2, 3, 3)] == 1
    assert psi.phases[(2, 0, 3, 3)] == 3
    assert (1, 1, 1, 1) not in psi.phases


def test_global_stabilizer_identity():
    psi = build_psi_1234()
    zword = PauliWord.from_exponents(4, z_exps={j: 1 for j in range(4)})
    assert apply_to_state(zword, psi) == psi
    audit = check_global_stabilizer(psi)
    assert audit.stabilized and audit.digit_rule_holds


def test_digit_rule_on_single_kets():
    fixed = StateVector(4, {(0, 0, 1, 3): 0})
    assert check_global_stabilizer(fixed).stabilized
    moved = StateVector(4, {(0, 0, 0, 1): 0})
    audit = check_global_stabilizer(moved)
    assert not audit.stabilized
    assert audit.digit_rule_holds  # the rule itself still holds per ket


def test_digit_rule_tells_digit_sum_two_from_zero():
    # Digit sum 2 is even but not 0 mod 4: Z1*Z2*Z3*Z4 gives the phase -1.
    moved = StateVector(4, {(0, 0, 1, 1): 0})
    audit = check_global_stabilizer(moved)
    assert not audit.stabilized
    assert audit.digit_rule_holds


@st.composite
def unit_states(draw, level):
    """Nonzero unit-amplitude states; half of them on digit sums 0 mod 4."""
    n_sites = draw(st.integers(1, 4))
    kets = list(product(range(level), repeat=n_sites))
    if draw(st.booleans()):
        kets = [ket for ket in kets if sum(ket) % 4 == 0]
    phases = draw(
        st.dictionaries(st.sampled_from(kets), st.integers(0, 3), min_size=1)
    )
    return StateVector(n_sites, phases, level=level)


@given(unit_states(4), st.integers(0, 3))
def test_z_word_fixes_matches_reference_eigenvalue(state, power):
    n = state.n_sites
    word = PauliWord.from_exponents(n, z_exps={j: power for j in range(n)})
    assert z_word_fixes(state, power) == (eigenvalue_of(word, state) == 0)


@given(unit_states(2))
def test_qubit_stabilizer_is_even_down_spins(state):
    audit = check_global_stabilizer(state)
    assert audit.stabilized == all(sum(ket) % 2 == 0 for ket in state.phases)
    assert audit.digit_rule_holds


def test_stabilizer_audit_rejects_other_levels_and_zero_states():
    # Digit sum 3 is 0 mod 3, but no Z word is defined at level 3.  A zero
    # state is rejected when built (test_states.py::test_a_state_needs_a_ket).
    with pytest.raises(ValueError, match="levels 2 and 4"):
        check_global_stabilizer(StateVector(4, {(1, 2, 0, 0): 0}, 3))


def test_reduced_density_site1_exact():
    psi = build_psi_1234()
    rho = reduced_density(psi, 0)
    # 2/7, 3/14, 2/7, 3/14 over norm_sq = 56.
    assert rho.diagonal() == ((16, 56), (12, 56), (16, 56), (12, 56))
    assert tuple(Fraction(*entry) for entry in rho.diagonal()) == (
        Fraction(2, 7), Fraction(3, 14), Fraction(2, 7), Fraction(3, 14),
    )
    assert rho.is_hermitian()
    assert rho.trace() == (56, 56)
    # Off-diagonal entries vanish exactly.
    assert all(
        rho.numerators[r][c] == (0, 0)
        for r in range(4)
        for c in range(4)
        if r != c
    )


def brute_force_density(state, site):
    """rho on one site, summed over all ket pairs in Z[i]."""
    d = state.level
    dense = [[ZERO for _ in range(d)] for _ in range(d)]
    for ket_a, t_a in state.phases.items():
        for ket_b, t_b in state.phases.items():
            rest_a = ket_a[:site] + ket_a[site + 1 :]
            rest_b = ket_b[:site] + ket_b[site + 1 :]
            if rest_a == rest_b:
                row, col = ket_a[site], ket_b[site]
                amp_a, amp_b = GaussInt.from_phase(t_a), GaussInt.from_phase(t_b)
                dense[row][col] = dense[row][col] + amp_a * amp_b.conj()
    return [[(z.re, z.im) for z in row] for row in dense]


def test_reduced_density_brute_force_oracle():
    # Independent oracle: expand rho = sum over ket pairs explicitly on
    # the full 256-dimensional index set, then compare entry by entry.
    psi = build_psi_1234()
    rho = reduced_density(psi, 2)
    assert rho.denominator == 56
    assert [list(row) for row in rho.numerators] == brute_force_density(psi, 2)


@pytest.mark.parametrize("site", [-1, 4])
def test_reduced_density_rejects_a_site_out_of_range(site):
    with pytest.raises(ValueError, match=f"site {site} out of range 0..3"):
        reduced_density(build_psi_1234(), site)


@given(unit_states(4) | unit_states(2), st.integers(0, 3))
def test_reduced_density_matches_the_brute_force_oracle(state, site):
    site %= state.n_sites
    rho = reduced_density(state, site)
    assert rho.denominator == state.norm_sq
    assert [list(row) for row in rho.numerators] == brute_force_density(state, site)
    assert rho.is_hermitian() and rho.trace() == (state.norm_sq, state.norm_sq)


def test_density_predicates_read_the_int_pairs():
    def matrix(*numerators):
        return DensityMatrix(2, 2, numerators)

    assert matrix(((1, 0), (0, 0)), ((0, 0), (1, 0))).is_maximally_mixed()
    assert not matrix(((1, 0), (0, 1)), ((0, 1), (1, 0))).is_maximally_mixed()
    assert not matrix(((1, 1), (0, 0)), ((0, 0), (1, -1))).is_maximally_mixed()
    assert matrix(((1, 0), (0, 1)), ((0, -1), (1, 0))).is_hermitian()
    assert not matrix(((1, 0), (0, 1)), ((0, 1), (1, 0))).is_hermitian()
    assert not matrix(((1, 1), (0, 0)), ((0, 0), (1, 0))).is_hermitian()


def test_maximally_entangled_pair_is_maximally_mixed():
    pair = StateVector(2, {(k, k): 0 for k in range(4)})
    rho = reduced_density(pair, 0)
    assert rho.is_maximally_mixed()
    assert nonstabilizer_test(pair).deviating_sites == ()


def test_nonstabilizer_verdicts():
    assert nonstabilizer_test(build_psi_1234()).is_nonstabilizer
    assert nonstabilizer_test(build_psi4_qubit()).is_nonstabilizer


def test_joint_probabilities():
    psi = build_psi_1234()
    assert joint_z_probability(psi, (0, 0, 0, 0)) == (1, 56)
    assert joint_z_probability(psi, (0, 0, 0, 1)) == (0, 56)
    assert joint_z_probability(psi, (1, 1, 1, 1)) == (0, 56)
    # |amplitude|**2 / norm_sq, by the oracle's norm.
    for ket, t in psi.phases.items():
        weight = GaussInt.from_phase(t).norm_sq()
        assert joint_z_probability(psi, ket) == (weight, psi.norm_sq)
    total = sum(
        (
            Fraction(*joint_z_probability(psi, ket))
            for ket in product(range(4), repeat=4)
        ),
        Fraction(0),
    )
    assert total == 1


def test_a_state_of_zero_norm_has_no_distribution():
    # The empty state is refused where it is built, before the distribution.
    with pytest.raises(ValueError, match="at least one ket"):
        joint_z_probability(StateVector(4, {}), (0, 0, 0, 0))


def test_z_support_sizes():
    assert len(build_psi_1234().support()) == 56
    single = StateVector(4, {(0, 0, 0, 0): 0})
    assert single.support() == [(0, 0, 0, 0)]
    assert len(build_psi4_qubit().support()) == 7


def test_qubit_seed_state():
    q = build_psi4_qubit()
    assert q.norm_sq == 7
    assert q.phases[(0, 0, 0, 0)] == 0
    assert q.phases[(0, 1, 1, 0)] == 2
    assert (1, 1, 1, 1) not in q.phases
    # Oracle for the reduced density: count components by first digit.
    ups = sum(1 for ket in q.phases if ket[0] == 0)
    downs = sum(1 for ket in q.phases if ket[0] == 1)
    assert (ups, downs) == (4, 3)
    assert reduced_density(q, 0).diagonal() == ((4, 7), (3, 7))


def test_build_state_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown state 'psi9'; expected one of"):
        build_state("psi9")


def test_embedding_preserves_structure():
    q = build_psi4_qubit()
    emb = embed_qubit_state(q, 1)
    assert emb.level == 4
    assert emb.norm_sq == 7
    assert emb.phases[(0, 1, 1, 0)] == 2
    assert emb.phases[(0, 0, 0, 0)] == 0
    with pytest.raises(ValueError):
        embed_qubit_state(q, 0)
    with pytest.raises(ValueError):
        embed_qubit_state(emb, 1)


def test_embedded_state_keeps_squared_z_word():
    emb = embed_qubit_state(build_psi4_qubit(), 1)
    zz = PauliWord.from_exponents(4, z_exps={j: 2 for j in range(4)})
    assert apply_to_state(zz, emb) == emb
    # The plain Z word does not fix it: |0011> picks up phase i**2.
    audit = check_global_stabilizer(emb)
    assert not audit.stabilized


def test_commutation_phase_audit():
    assert commutation_phase_audit(2) == -1
    assert commutation_phase_audit(4) == 1
    assert commutation_phase_audit(6) == -1
    with pytest.raises(ValueError):
        commutation_phase_audit(3)
    with pytest.raises(ValueError):
        commutation_phase_audit(66)


def test_commutation_phase_audit_numeric_oracle():
    # Independent check with floating complex arithmetic (tests only):
    # the swap phase is omega**((d/2)**2).
    import cmath

    for d in range(2, 34, 2):
        omega = cmath.exp(2j * cmath.pi / d)
        value = omega ** ((d // 2) ** 2)
        expected = commutation_phase_audit(d)
        assert abs(value - expected) < 1e-9


def test_transcription_checksum_trips_on_corruption():
    from davn import factory

    broken = dict(PSI_1234_TERMS)
    broken[(0, 0, 2, 2)] = 0  # flip a sign: census breaks
    with pytest.raises(AssertionError):
        factory._check_transcription(broken)
    del broken[(0, 0, 2, 2)]
    with pytest.raises(AssertionError):
        factory._check_transcription(broken)
    # 56 kets and the right census again, but one of digit sum 1 mod 4.
    broken[(0, 0, 0, 1)] = PSI_1234_TERMS[(0, 0, 2, 2)]
    with pytest.raises(AssertionError, match="digit sum != 0 mod 4"):
        factory._check_transcription(broken)


@pytest.mark.parametrize(
    "old,new",
    [
        (" 3122:+i\n", "\n"),  # a family line one term short
        (" 3032:+i", "\n3032:+i"),  # a family line split in two
    ],
)
def test_table_blocks_trip_on_a_misshapen_component_line(old, new):
    from davn import factory

    text = factory._PSI_1234_COMPONENTS
    assert old in text
    with pytest.raises(AssertionError):
        factory._table_blocks(factory._parse_components(text.replace(old, new, 1)))
