"""Seeded sampling: determinism, support coverage, exact bookkeeping."""

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from davn import sampling
from davn.checks import STATE_NAMES, build_state
from davn.factory import build_psi4_qubit, build_psi_1234
from davn.gauss import GaussInt
from davn.sampling import GENERATOR_ID, sample_outcomes
from davn.states import StateVector

PSI = build_psi_1234()


def test_zero_runs_is_an_error():
    with pytest.raises(ValueError):
        sample_outcomes(PSI, 0, 1)


@pytest.mark.parametrize("seed", [-7, -1, 7.0, "7", None, True, False])
def test_seed_must_be_a_non_negative_int(seed):
    # random.Random(-7) draws as random.Random(7), yet the summary would
    # record -7; True draws as 1 yet would be written as true.  The seed
    # is checked before the runs.
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        sample_outcomes(PSI, 0, seed)


@pytest.mark.parametrize("runs", [2.5, 1e3, "7", None, True, False, 0, -1])
def test_runs_must_be_a_positive_int(runs):
    # A float reached getrandbits and raised TypeError there; True drew
    # once yet would be written as "runs": true.
    with pytest.raises(ValueError, match="^runs must be a positive integer$"):
        sample_outcomes(PSI, runs, 7)


def test_single_run():
    summary = sample_outcomes(PSI, 1, 123)
    assert summary.total() == 1
    assert sum(1 for v in summary.counts.values() if v) == 1


def test_identical_seeds_give_identical_summaries():
    a = sample_outcomes(PSI, 5000, 42)
    b = sample_outcomes(PSI, 5000, 42)
    assert a == b
    c = sample_outcomes(PSI, 5000, 43)
    assert c != a


def test_counts_cover_exactly_the_support():
    summary = sample_outcomes(PSI, 500, 9)
    assert set(summary.counts) == set(PSI.support())
    assert summary.total() == 500
    assert summary.generator == GENERATOR_ID


def test_deviation_bookkeeping_is_exact():
    summary = sample_outcomes(PSI, 56, 5)
    expected = Fraction(56, 56)
    assert summary.max_abs_deviation == max(
        abs(Fraction(count) - expected) for count in summary.counts.values()
    )


def test_nonuniform_distribution_respects_weights():
    # A state with weights 4:1 - the heavy outcome must dominate.
    state = StateVector(
        1, {(0,): GaussInt(2, 0), (1,): GaussInt(0, 1)}
    )
    summary = sample_outcomes(state, 10000, 2)
    heavy, light = summary.counts[(0,)], summary.counts[(1,)]
    assert heavy + light == 10000
    assert 7600 < heavy < 8400  # ~5 sigma around 8000


def test_qubit_state_sampling():
    summary = sample_outcomes(build_psi4_qubit(), 700, 4)
    assert set(summary.counts) == set(build_psi4_qubit().support())
    assert summary.total() == 700


def reference_counts(state, runs, seed):
    """The pinned generator, one ``randrange`` draw at a time."""
    outcomes = state.support()
    boundaries = list(accumulate(state.amplitude(k).norm_sq() for k in outcomes))
    rng = random.Random(seed)
    counts = dict.fromkeys(outcomes, 0)
    for _ in range(runs):
        counts[outcomes[bisect_right(boundaries, rng.randrange(state.norm_sq))]] += 1
    return counts


@st.composite
def nonzero_states(draw):
    """Two-site states; a bound of 3 keeps most norms below 256, 11 most above."""
    kets = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=16, unique=True,
    ))
    bound = draw(st.sampled_from((3, 11)))
    parts = st.integers(-bound, bound)
    amps = {ket: GaussInt(draw(parts), draw(parts)) for ket in kets}
    amps[kets[0]] = GaussInt(draw(st.integers(1, bound)), draw(parts))
    return StateVector(2, amps)


def one_site_state(*amplitudes):
    return StateVector(1, {(k,): GaussInt(*a) for k, a in enumerate(amplitudes)})


HALF_REJECTED = StateVector(2, {(0, 1): GaussInt(10, 5), (3, 2): GaussInt(2, 0)})
assert HALF_REJECTED.norm_sq == 129
# Seed 2's first three outputs have top bytes 244, 220 and 242, all 129
# or more, so a first block of 3 accepts no draw.
assert all(t >= 129 for t in random.Random(2).getrandbits(96).to_bytes(12, "little")[3::4])
# Cumulative weights 1, 10, 50: no outcome boundary is a power of two.
UNEVEN = one_site_state((1, 0), (3, 0), (6, 2))
# Norm 255 = 250 + 5: 8-bit draws with shift 0, one value rejected.
NORM_255 = one_site_state((15, 5), (2, 1))


@settings(max_examples=200, deadline=None)
@given(
    nonzero_states(),
    st.integers(1, 3000),
    st.integers(min_value=0),
    st.integers(1, 8) | st.just(sampling._BLOCK),
)
@example(HALF_REJECTED, 2999, 7, 1)
@example(HALF_REJECTED, 3000, 5, 3)
@example(HALF_REJECTED, 1000, 2**70, sampling._BLOCK)
@example(HALF_REJECTED, 40, 2, 3)
@example(StateVector(1, {(2,): GaussInt(1, 0)}), 17, 0, 2)
@example(StateVector(1, {(2,): GaussInt(1, 0)}), 301, 3, 7)
@example(StateVector(1, {(0,): GaussInt(15, 5)}), 50, 1, 4)
@example(StateVector(1, {(0,): GaussInt(16, 0)}), 50, 1, 4)
@example(one_site_state((1, 0), (0, 1)), 203, 6, 5)
@example(one_site_state((1, 1)), 99, 8, 7)
@example(one_site_state((8, 0), (0, 8)), 301, 9, 3)
@example(one_site_state((8, 8)), 77, 10, 5)
@example(NORM_255, 1003, 11, 7)
@example(UNEVEN, 999, 12, 5)
@example(UNEVEN, 5000, 13, sampling._BLOCK)
def test_counts_equal_the_per_draw_reference(state, runs, seed, block):
    with mock.patch.object(sampling, "_BLOCK", block):
        summary = sample_outcomes(state, runs, seed)
    assert summary.counts == reference_counts(state, runs, seed)
    assert list(summary.counts) == state.support()


@pytest.mark.parametrize("name", STATE_NAMES)
def test_builtin_states_match_the_per_draw_reference(name):
    state = build_state(name)
    assert state.norm_sq < 256
    for seed in (0, 42):
        summary = sample_outcomes(state, 20000, seed)
        assert summary.counts == reference_counts(state, 20000, seed)


def test_zero_norm_state_is_an_error():
    with pytest.raises(ValueError):
        sample_outcomes(StateVector(1, {}), 10, 1)


def test_index_counts_equal_bytes_count():
    # Every index count up to the largest (norm_sq 255), at every length
    # up to five lanes of 8, on random bytes and on all-rejected ones.
    rng = random.Random(0)
    for n in range(1, 256):
        for length in range(41):
            for data in (bytes(rng.randint(0, n) for _ in range(length)), bytes([n]) * length):
                assert sampling._count_indices(data, n) == [data.count(i) for i in range(n)]
