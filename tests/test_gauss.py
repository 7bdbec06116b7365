"""Phase strings of the package, and ring tests of the Z[i] test oracle.

The package keeps amplitudes as phase exponents; the oracles in
``reference`` compute with Gaussian integers, checked here.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from davn.states import parse_phase, phase_str
from reference import IMAG, ONE, GaussInt

ints = st.integers(min_value=-50, max_value=50)
gauss = st.builds(GaussInt, ints, ints)


def test_i_squared_is_minus_one():
    assert IMAG * IMAG == GaussInt(-1, 0)


def test_one_is_multiplicative_identity():
    x = GaussInt(3, -2)
    assert ONE * x == x
    assert x * ONE == x


def test_conjugate_of_i():
    assert IMAG.conj() == GaussInt(0, -1)


@given(gauss, gauss)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@given(gauss, gauss)
def test_norm_is_multiplicative(a, b):
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@given(gauss, gauss, gauss)
def test_ring_axioms_spot(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert -(-a) == a


def test_as_phase_is_a_bijection_on_units():
    seen = set()
    for t in range(4):
        unit = GaussInt.from_phase(t)
        assert unit.norm_sq() == 1
        assert unit.as_phase() == t
        seen.add(unit)
    assert len(seen) == 4


def test_as_phase_examples():
    assert GaussInt(0, -1).as_phase() == 3
    assert GaussInt(1, 0).as_phase() == 0
    assert GaussInt(2, 0).as_phase() is None


@given(gauss)
def test_as_phase_rejects_every_non_unit(z):
    if z.norm_sq() != 1:
        assert z.as_phase() is None
    else:
        assert z.as_phase() is not None


@given(gauss, st.integers(min_value=0, max_value=7))
def test_times_phase_matches_multiplication(z, t):
    assert z.times_phase(t) == z * GaussInt.from_phase(t)


def test_phase_strings_round_trip():
    for t in range(4):
        assert parse_phase(phase_str(t)) == t
    assert parse_phase("+i") == 1


@pytest.mark.parametrize("text", ["2", "-+1", "1+i", "", "j"])
def test_parse_phase_rejects_a_non_unit(text):
    with pytest.raises(ValueError, match="not a fourth root of unity"):
        parse_phase(text)


def test_equal_values_hash_equal():
    # Oracles key dicts and sets on amplitudes.
    a, b = GaussInt(2, -1), GaussInt(2, -1)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, GaussInt(-1, 2)}) == 2
    assert GaussInt(1, 0) != (1, 0)
