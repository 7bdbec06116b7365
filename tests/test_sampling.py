"""Seeded sampling: determinism, support coverage, exact bookkeeping."""

import random
import struct
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from davn import sampling
from davn.checks import STATE_NAMES, build_state
from davn.factory import build_psi4_qubit, build_psi_1234
from davn.sampling import GENERATOR_ID, sample_outcomes
from davn.states import StateVector
from reference import GaussInt

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


def test_qubit_state_sampling():
    summary = sample_outcomes(build_psi4_qubit(), 700, 4)
    assert set(summary.counts) == set(build_psi4_qubit().support())
    assert summary.total() == 700


def reference_counts(state, runs, seed):
    """The pinned generator, one ``randrange`` draw at a time.

    ``mt19937-randrange-cdf/1`` maps each draw below the total weight to
    the first outcome, in lexicographic order, whose cumulative weight
    |amplitude|**2 exceeds it.
    """
    outcomes = state.support()
    weights = (GaussInt.from_phase(state.phases[k]).norm_sq() for k in outcomes)
    boundaries = list(accumulate(weights))
    rng = random.Random(seed)
    counts = dict.fromkeys(outcomes, 0)
    for _ in range(runs):
        counts[outcomes[bisect_right(boundaries, rng.randrange(boundaries[-1]))]] += 1
    return counts


#: The 1024 kets of five ququarts, so a state can hold past 256 of them.
FIVE_SITE_KETS = list(product(range(4), repeat=5))


def spread_state(phases, offset=0):
    """Five-site state with the k-th exponent on ket 7k + offset (mod 1024)."""
    return StateVector(
        5, {FIVE_SITE_KETS[(offset + 7 * k) % 1024]: t for k, t in enumerate(phases)}
    )


@st.composite
def unit_states(draw):
    """States of 1 to 300 unit kets: the byte tally below 256, the loop above."""
    n = draw(st.integers(1, 300))
    phases = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return spread_state(phases, draw(st.integers(0, 1023)))


def n_kets(n):
    return spread_state([k % 4 for k in range(n)])


HALF_REJECTED = n_kets(129)
# Seed 2's first three outputs have top bytes 244, 220 and 242, all 129
# or more, so a first block of 3 accepts no draw.
assert all(t >= 129 for t in random.Random(2).getrandbits(96).to_bytes(12, "little")[3::4])
# 255 outcomes: 8-bit draws with shift 0, one value rejected.
N_255 = n_kets(255)


@settings(max_examples=200, deadline=None)
@given(
    unit_states(),
    st.integers(1, 3000),
    st.integers(min_value=0),
    st.integers(1, 8) | st.just(sampling._BLOCK),
)
@example(HALF_REJECTED, 2999, 7, 1)
@example(HALF_REJECTED, 3000, 5, 3)
@example(HALF_REJECTED, 1000, 2**70, sampling._BLOCK)
@example(HALF_REJECTED, 40, 2, 3)
@example(n_kets(1), 17, 0, 2)
@example(spread_state([2], offset=5), 301, 3, 7)
@example(n_kets(2), 203, 6, 5)
@example(n_kets(3), 999, 12, 5)
@example(n_kets(3), 5000, 13, sampling._BLOCK)
@example(n_kets(128), 301, 9, 3)
@example(N_255, 1003, 11, 7)
@example(n_kets(256), 77, 10, 5)
@example(n_kets(257), 500, 14, 4)
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


def test_draw_counts_equal_a_per_word_count():
    # Every draw count up to the largest (norm_sq 255), at every length
    # up to five lanes of 8 words, on random words and on all-rejected
    # ones (top bits all set, so every draw is n or more).
    rng = random.Random(0)
    masks = sampling._lane_masks(40)
    for n in range(1, 256):
        k = n.bit_length()
        for length in range(41):
            for raw in (rng.randbytes(4 * length), b"\xff" * (4 * length)):
                draws = [w >> (32 - k) for (w,) in struct.iter_unpack("<I", raw)]
                expected = [draws.count(i) for i in range(n)]
                assert sampling._count_draws(raw, n, masks) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 255),
    st.integers(1, 3000),
    st.integers(min_value=0),
    st.integers(1, 8) | st.just(sampling._BLOCK),
)
@example(1, 301, 3, 7)
@example(129, 2999, 7, 1)
@example(129, 40, 2, 3)
@example(255, 1003, 11, sampling._BLOCK)
def test_tally_reads_the_outputs_the_per_draw_loop_reads(n, runs, seed, block):
    # The tally's last word is the runs-th accepted draw, so the generator
    # is left where the per-draw loop leaves it.
    rng = random.Random(seed)
    with mock.patch.object(sampling, "_BLOCK", block):
        sampling._tally_top_bytes(rng, n, runs)
    reference = random.Random(seed)
    for _ in range(runs):
        reference.randrange(n)
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("name", ["psi1234", "psi4-qubit"])
def test_several_full_blocks_match_the_per_draw_reference(name):
    # Two full blocks at the real size, then the tail blocks after them.
    state = build_state(name)
    runs = 2 * sampling._BLOCK + 4321
    summary = sample_outcomes(state, runs, 3)
    assert summary.counts == reference_counts(state, runs, 3)
