"""The JSON writer and the shared constraint fragments of reports."""

import json
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from davn.postselect import Constraint
from davn.reports import constraint_json, to_json, two_decimals

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**256)
    | st.floats()
    | st.text()
)

json_trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@st.composite
def trees_sharing_a_subtree(draw):
    """A tree holding one container at two nesting depths."""
    shared = draw(
        st.lists(json_trees, min_size=1, max_size=3)
        | st.dictionaries(st.text(), json_trees, min_size=1, max_size=3)
    )
    return {"shallow": shared, "deep": [draw(json_trees), {"here": shared}]}


SHARED = {"word": "X1", "exponents": [1, 0, 0, 0]}


@given(json_trees | trees_sharing_a_subtree())
@example({"a": SHARED, "b": [[SHARED], SHARED]})
@example({})
@example([[], {}, [{}], {"": []}])
@example([True, 1, False, 0, None, 1.0, -(2**100)])
@example({"kéy\n": "vâl\u0000ue ", "\U0001f600": "\t\x7f\""})
def test_to_json_matches_json_dumps(payload):
    assert to_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_constraint_json_is_shared_per_constraint():
    a = Constraint((1, 0, 0, 3), 2)
    assert constraint_json(a) is constraint_json(Constraint((1, 0, 0, 3), 2))
    assert constraint_json(a) == {
        "word": "X1*X4^3", "exponents": [1, 0, 0, 3],
        "value": "-1", "value_exponent": 2,
    }


def test_two_decimals_rounds_the_exact_value():
    # 2.675 is 2.67499999999999982236431605997495353221893310546875 as a
    # double, so the float rendering rounds it down.
    assert format(float(Fraction(107, 40)), ".2f") == "2.67"
    assert two_decimals(Fraction(107, 40)) == "2.68"
    assert two_decimals(Fraction(1, 200)) == "0.00"
    assert two_decimals(Fraction(3, 200)) == "0.02"
    assert two_decimals(Fraction(0)) == "0.00"
    assert two_decimals(Fraction(12345, 1)) == "12345.00"


@given(st.integers(0, 5_600_000), st.sampled_from([1, 2, 4, 7, 8, 14, 28, 56]))
@example(7, 8)
@example(1, 8)
def test_two_decimals_agrees_with_the_float_rendering_of_sample_deviations(a, d):
    # Deviations of the built-in states have denominators dividing 56 or 7:
    # a tie (2k + 1)/200 with such a denominator is m/8, held exactly by a
    # double, so both renderings agree there.
    x = Fraction(a, d)
    assert two_decimals(x) == format(float(x), ".2f")
