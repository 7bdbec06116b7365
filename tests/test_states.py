"""StateVector behaviour: exactness, word action, eigen tests."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from davn.gauss import GaussInt
from davn.pauli import PauliWord, apply_word
from davn.states import StateVector, apply_to_state, eigenvalue_of
from reference import scaled_by_phase

X = PauliWord.from_exponents(1, x_exps={0: 1})


def unit_state(entries, n_sites=2, level=4):
    return StateVector(
        n_sites,
        {ket: GaussInt.from_phase(t) for ket, t in entries.items()},
        level=level,
    )


RESIDUAL = unit_state({(0, 0): 0, (1, 3): 1, (2, 2): 2, (3, 1): 3})


def test_zero_amplitudes_are_dropped():
    state = StateVector(1, {(0,): GaussInt(0, 0), (1,): GaussInt(1, 0)})
    assert state.support() == [(1,)]
    assert state.norm_sq == 1


def test_norm_is_recomputed_sum_of_squares():
    state = StateVector(1, {(0,): GaussInt(1, 2), (3,): GaussInt(0, -1)})
    assert state.norm_sq == 5 + 1


def test_digit_range_is_validated():
    with pytest.raises(ValueError):
        StateVector(1, {(4,): GaussInt(1, 0)})
    with pytest.raises(ValueError):
        StateVector(1, {(2,): GaussInt(1, 0)}, level=2)


def test_apply_preserves_norm():
    word = PauliWord.from_exponents(2, x_exps={0: 1}, z_exps={1: 2})
    image = apply_to_state(word, RESIDUAL)
    assert image.norm_sq == RESIDUAL.norm_sq


def test_identity_word_fixes_any_state():
    image = apply_to_state(PauliWord.from_exponents(2), RESIDUAL)
    assert image.equals_exactly(RESIDUAL)


def test_eigenvalue_of_residual_word():
    # X (x) X^3 on the table-I residual: forced value -i.
    word = PauliWord.from_exponents(2, x_exps={0: 1, 1: 3})
    assert eigenvalue_of(word, RESIDUAL) == 3


def test_eigenvalue_none_when_support_leaves():
    # X (x) X maps |00> to |11>, outside the support.
    word = PauliWord.from_exponents(2, x_exps={0: 1, 1: 1})
    assert eigenvalue_of(word, RESIDUAL) is None


def test_eigenvalue_of_two_ket_residual():
    state = unit_state({(0, 2): 1, (2, 0): 3})
    word = PauliWord.from_exponents(2, x_exps={0: 2, 1: 2})
    assert eigenvalue_of(word, state) == 2


def test_eigenvalue_requires_nonzero_state():
    empty = StateVector(1, {})
    with pytest.raises(ValueError):
        eigenvalue_of(X, empty)


def test_eigen_relation_is_exact_proportionality():
    word = PauliWord.from_exponents(2, x_exps={0: 2, 1: 2})
    c = eigenvalue_of(word, RESIDUAL)
    assert c is not None
    image = apply_to_state(word, RESIDUAL)
    assert image.equals_exactly(scaled_by_phase(RESIDUAL, c))


def test_phase_relative_to_finds_global_phase():
    for t in range(4):
        assert scaled_by_phase(RESIDUAL, t).phase_relative_to(RESIDUAL) == t
    other = unit_state({(0, 0): 0, (1, 3): 3, (2, 2): 2, (3, 1): 1})
    assert other.phase_relative_to(RESIDUAL) is None


def test_x_eigenstate_eigenvalues():
    # The amplitude at |k> is i**(-m*k): shifting k -> k+1 multiplies
    # every amplitude by i**m, so X has eigenvalue i**m.
    for m in range(4):
        state = StateVector(
            1, {(k,): GaussInt.from_phase(-m * k) for k in range(4)}
        )
        assert state.norm_sq == 4
        assert eigenvalue_of(X, state) == m


# ---------------------------------------------------------------------------
# Reference equivalence: eigenvalue_of against building the image state and
# searching the four phase copies, kept here as the specification.


def reference_eigenvalue(word, state):
    image = apply_to_state(word, state)
    for t in range(4):
        if image.equals_exactly(scaled_by_phase(state, t)):
            return t
    return None


def reference_phase(state, other):
    if state.level != other.level or state.n_sites != other.n_sites:
        return None
    for t in range(4):
        if state.equals_exactly(scaled_by_phase(other, t)):
            return t
    return None


@st.composite
def words(draw, n_sites):
    exps = st.lists(st.integers(0, 3), min_size=n_sites, max_size=n_sites)
    return PauliWord(draw(st.integers(0, 3)), tuple(zip(draw(exps), draw(exps))))


@st.composite
def word_and_state(draw):
    n_sites = draw(st.integers(1, 2))
    word = draw(words(n_sites))
    kets = list(product(range(4), repeat=n_sites))
    if draw(st.booleans()):
        phases = draw(
            st.dictionaries(st.sampled_from(kets), st.integers(0, 3), min_size=1)
        )
    else:
        # Follow the word's orbit of one ket, choosing each phase so that
        # word|s> = i**c |s> would hold; the orbit may still fail to close
        # consistently, so both answers occur.
        c = draw(st.integers(0, 3))
        ket = draw(st.sampled_from(kets))
        phases = {ket: draw(st.integers(0, 3))}
        while True:
            t, image = apply_word(word, ket)
            if image in phases:
                break
            phases[image] = (phases[ket] + t - c) % 4
            ket = image
    return word, unit_state(phases, n_sites=n_sites)


@given(word_and_state())
def test_eigenvalue_matches_reference_image_search(case):
    word, state = case
    assert eigenvalue_of(word, state) == reference_eigenvalue(word, state)


def test_eigenvalue_matches_reference_on_every_single_site_case():
    # All 624 nonzero one-site unit states against all 16 one-site words
    # without a global phase (the word phase only shifts c; the
    # hypothesis test above covers it).
    seen = set()
    for phases in product(range(5), repeat=4):
        entries = {(k,): t for k, t in enumerate(phases) if t < 4}
        if not entries:
            continue
        state = unit_state(entries, n_sites=1)
        for a, b in product(range(4), repeat=2):
            word = PauliWord(0, ((a, b),))
            expected = reference_eigenvalue(word, state)
            assert eigenvalue_of(word, state) == expected
            seen.add(expected)
    assert seen == {None, 0, 1, 2, 3}


@given(
    word_and_state(), st.integers(0, 3), st.sampled_from(["", "phase", "drop"])
)
def test_phase_relative_to_matches_reference(case, t, perturb):
    # Compare a state with a phase copy of itself, optionally with one
    # amplitude rotated or one ket dropped from the support.
    _, state = case
    amplitudes = dict(scaled_by_phase(state, t).amplitudes)
    ket = min(amplitudes)
    if perturb == "phase":
        amplitudes[ket] = amplitudes[ket].times_phase(1)
    elif perturb == "drop":
        del amplitudes[ket]
    other = StateVector(state.n_sites, amplitudes)
    assert state.phase_relative_to(other) == reference_phase(state, other)
    assert other.phase_relative_to(state) == reference_phase(other, state)
