"""StateVector behaviour: exactness, word action, eigen tests."""

from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from davn.fixtures import phase_between
from davn.states import StateVector, outcome_digits, quote_input
from reference import (
    PauliWord,
    apply_to_state,
    apply_word,
    eigenvalue_of,
    global_phase,
    phase_relative_to,
    scaled_by_phase,
)

X = PauliWord.from_exponents(1, x_exps={0: 1})


def unit_state(phases, n_sites=2, level=4):
    return StateVector(n_sites, phases, level=level)


RESIDUAL = unit_state({(0, 0): 0, (1, 3): 1, (2, 2): 2, (3, 1): 3})


def test_norm_sq_is_the_ket_count():
    # Every amplitude is a unit, so the squared norm counts the kets.
    state = StateVector(1, {(0,): 1, (3,): 3})
    assert state.norm_sq == 2
    assert StateVector(1, {}).norm_sq == 0


def test_constructor_copies_the_phase_map():
    # build_psi_1234 hands the constructor the module's PSI_1234_TERMS.
    phases = {(0,): 1}
    state = StateVector(1, phases)
    phases[(1,)] = 2
    assert state.phases == {(0,): 1}


def test_equal_states_hash_alike():
    # The eigenword scan memo is keyed on states, so == and hash agree.
    reordered = StateVector(2, dict(reversed(RESIDUAL.phases.items())))
    assert reordered == RESIDUAL
    assert hash(reordered) == hash(RESIDUAL)
    assert len({reordered, RESIDUAL, scaled_by_phase(RESIDUAL, 1)}) == 2


def test_outcome_digits_writes_one_digit_per_site():
    assert outcome_digits((0, 2, 3, 3)) == "0233"
    assert outcome_digits(()) == ""


def test_quote_input_keeps_at_most_200_characters_and_the_length():
    assert quote_input("x" * 200) == repr("x" * 200)
    cut = repr("'a\n" * 66 + "'a") + "... (300 characters)"
    assert quote_input("'a\n" * 100) == cut


def test_digit_range_is_validated():
    with pytest.raises(ValueError):
        StateVector(1, {(4,): 0})
    with pytest.raises(ValueError):
        StateVector(1, {(2,): 0}, level=2)


@pytest.mark.parametrize(
    "ket,t",
    [
        ((0, 1), True),
        ((0, 1), 4),
        ((0, 1), -1),
        ((0, 1), 1.0),
        ((0, 1), "1"),
        ((0, 1, 2), 1),
        ((0, 4), 1),
    ],
    ids=["bool", "four", "negative", "float", "str", "ket-length", "digit"],
)
def test_constructor_rejects_a_bad_ket_or_exponent(ket, t):
    with pytest.raises(ValueError):
        StateVector(2, {(0, 0): 0, ket: t})


def test_apply_preserves_norm():
    word = PauliWord.from_exponents(2, x_exps={0: 1}, z_exps={1: 2})
    image = apply_to_state(word, RESIDUAL)
    assert image.norm_sq == RESIDUAL.norm_sq


def test_identity_word_fixes_any_state():
    image = apply_to_state(PauliWord.from_exponents(2), RESIDUAL)
    assert image == RESIDUAL


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
    assert image == scaled_by_phase(RESIDUAL, c)


def test_phase_relative_to_finds_global_phase():
    for t in range(4):
        assert phase_relative_to(scaled_by_phase(RESIDUAL, t), RESIDUAL) == t
    other = unit_state({(0, 0): 0, (1, 3): 3, (2, 2): 2, (3, 1): 1})
    assert phase_relative_to(other, RESIDUAL) is None


def test_x_eigenstate_eigenvalues():
    # The amplitude at |k> is i**(-m*k): shifting k -> k+1 multiplies
    # every amplitude by i**m, so X has eigenvalue i**m.
    for m in range(4):
        state = StateVector(1, {(k,): -m * k % 4 for k in range(4)})
        assert state.norm_sq == 4
        assert eigenvalue_of(X, state) == m


# ---------------------------------------------------------------------------
# Reference equivalence: eigenvalue_of against building the image state and
# searching the four phase copies, kept here as the specification.


def reference_eigenvalue(word, state):
    image = apply_to_state(word, state)
    for t in range(4):
        if image == scaled_by_phase(state, t):
            return t
    return None


def reference_phase(state, other):
    if state.level != other.level or state.n_sites != other.n_sites:
        return None
    for t in range(4):
        if state == scaled_by_phase(other, t):
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
    phases = dict(scaled_by_phase(state, t).phases)
    ket = min(phases)
    if perturb == "phase":
        phases[ket] = (phases[ket] + 1) % 4
    elif perturb == "drop":
        del phases[ket]
    other = StateVector(state.n_sites, phases)
    assert phase_relative_to(state, other) == reference_phase(state, other)
    assert phase_relative_to(other, state) == reference_phase(other, state)


phase_maps = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 3),
    max_size=6,
)


@given(
    phase_maps,
    st.integers(0, 3),
    st.sampled_from(["same", "rotate", "drop", "add", "other"]),
    phase_maps,
)
@example({}, 0, "same", {})
@example({}, 0, "other", {(0, 0): 1})
def test_phase_between_matches_brute_force(a, c, change, other):
    # b is a phase copy of a, perhaps with one exponent rotated, one ket
    # dropped or added; or an independent map.
    b = {k: (t - c) % 4 for k, t in a.items()}
    if change == "rotate" and b:
        k = min(b)
        b[k] = (b[k] + 1) % 4
    elif change == "drop" and b:
        del b[min(b)]
    elif change == "add":
        b.setdefault((4, 4), 0)
    elif change == "other":
        b = other
    assert phase_between(a, b) == global_phase(a, b)
    assert phase_between(b, a) == global_phase(b, a)
    if change == "same":
        assert phase_between(a, b) == (c if a else 0)
