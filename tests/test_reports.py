"""The JSON writer and the shared constraint fragments of reports."""

import json

from hypothesis import example, given
from hypothesis import strategies as st

from davn.lhv import Constraint
from davn.reports import constraint_json, to_json

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
