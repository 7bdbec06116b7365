"""The JSON writer, the ratio helpers and the shared constraint
fragments of reports."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import davn.reports
from davn.factory import build_psi_1234
from davn.lhv import verify_davn
from davn.postselect import Constraint, render_state
from davn.reports import constraint_json, paradox_json, ratio_str, to_json
from davn.states import StateVector
from davn.text import two_decimals

#: Every code point, lone surrogates included, weighted towards the ones
#: JSON escapes: the C0 controls, DEL, the short escapes and astral
#: characters, which are written as surrogate pairs.
characters = st.characters(
    min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()
) | st.sampled_from(
    [chr(c) for c in range(0x20)]
    + ["\x7f", '"', "\\", "/", "\ud800", "\udfff", "\U0001f600", "\U0010ffff"]
)
strings = st.text(characters, max_size=12)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**256)
    | st.integers(min_value=-(2**256), max_value=-(2**64))
    | strings
)

json_trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(strings, children, max_size=4),
    max_leaves=20,
)


@st.composite
def trees_sharing_a_subtree(draw):
    """A tree holding one container at two nesting depths."""
    shared = draw(
        st.lists(json_trees, min_size=1, max_size=3)
        | st.dictionaries(strings, json_trees, min_size=1, max_size=3)
    )
    return {"shallow": shared, "deep": [draw(json_trees), {"here": shared}]}


SHARED = {"word": "X1", "exponents": [1, 0, 0, 0]}


@given(json_trees | trees_sharing_a_subtree())
@example({"a": SHARED, "b": [[SHARED], SHARED]})
@example({})
@example([[], {}, [{}], {"": []}])
@example([True, 1, False, 0, None, -(2**100)])
@example({"kéy\n": "vâl\u0000ue ", "\U0001f600": "\t\x7f\""})
def test_to_json_matches_json_dumps(payload):
    assert to_json(payload) == json.dumps(payload, indent=2) + "\n"


@given(scalars)
@example("")
@example("\ud800\udc00\udbff")
@example("".join(map(chr, range(0x20))) + "\x7f\x80\u2028\ufeff")
@example(-(2**300))
def test_each_scalar_and_key_is_written_as_json_dumps_writes_it(value):
    assert to_json({"v": value}) == json.dumps({"v": value}, indent=2) + "\n"
    if isinstance(value, str):
        assert to_json({value: 0}) == json.dumps({value: 0}, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [{"v": 1.0}, {"v": [0, 2.5]}, {"v": float("nan")}, {"v": 1j}, {"v": b"x"}],
)
def test_to_json_refuses_a_value_that_is_no_json_scalar(payload):
    with pytest.raises(TypeError):
        to_json(payload)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_to_json_refuses_a_key_that_is_not_a_string(key):
    # json.dumps would write 1, 1.5, None and True as strings; a report
    # has only string keys, so anything else is a fault.
    with pytest.raises(TypeError):
        to_json({"ok": 0, key: 0})


def test_to_json_quotes_each_distinct_key_once(monkeypatch):
    # A davn report repeats 16 key strings about 900 times; each is
    # quoted once per call, and a key that needs escapes still matches.
    calls, quote = [], davn.reports._quote

    def counting_quote(text):
        calls.append(text)
        return quote(text)

    payload = {"rows": [{"k": n, 'q"é': -n} for n in range(50)], "k": 0}
    monkeypatch.setattr(davn.reports, "_quote", counting_quote)
    assert to_json(payload) == json.dumps(payload, indent=2) + "\n"
    assert sorted(calls) == sorted(["rows", "k", 'q"é'])


def fraction_two_decimals(num, den):
    """The rendering that two_decimals replaced, on a Fraction."""
    whole, hundredths = divmod(round(Fraction(num, den) * 100), 100)
    return f"{whole}.{hundredths:02d}"


@given(st.integers(), st.integers(1, 10**30))
@example(0, 56)
@example(56, 56)
@example(-3, 6)
@example(12, 1)
def test_ratio_str_reads_as_the_fraction(num, den):
    assert ratio_str(num, den) == str(Fraction(num, den))


@given(st.integers(0, 10**30), st.integers(1, 10**12))
@example(107, 40)
@example(1, 200)
@example(3, 200)
@example(5, 1000)
@example(15, 1000)
def test_two_decimals_matches_the_fraction_rendering(num, den):
    assert two_decimals(num, den) == fraction_two_decimals(num, den)


def test_constraint_json_is_shared_per_constraint():
    a = Constraint((1, 0, 0, 3), 2)
    assert constraint_json(a) is constraint_json(Constraint((1, 0, 0, 3), 2))
    assert constraint_json(a) == {
        "word": "X1*X4^3", "exponents": [1, 0, 0, 3],
        "value": "-1", "value_exponent": 2,
    }


def test_paradox_json_shares_each_distinct_constraint_set():
    # The 56 outcomes of psi1234 hold 28 distinct basic tuples, 20
    # distinct extended tuples and 28 distinct cores, each rendered as
    # one shared list, so to_json renders each constraint list once.
    reports = verify_davn(build_psi_1234()).reports
    payloads = [paradox_json(r) for r in reports]
    for kind, attribute, count in (
        ("basic", "constraints_basic", 28),
        ("extended", "constraints_extended", 20),
    ):
        distinct = {getattr(r, attribute) for r in reports}
        lists = {id(p["constraints"][kind]) for p in payloads}
        assert len(lists) == len(distinct) == count
    cores = {r.minimal_core for r in reports}
    assert len({id(p["minimal_core"]) for p in payloads}) == len(cores) == 28
    a, b = payloads[0], paradox_json(reports[0])
    assert a["constraints"]["basic"] is b["constraints"]["basic"] and a == b
    assert a["constraints"]["extended"] is b["constraints"]["extended"]
    assert a["constraints"]["basic"] == [
        constraint_json(c) for c in reports[0].constraints_basic
    ]


def test_render_state_writes_the_norm_the_goldens_miss():
    # A norm of 1 has no suffix, a non-square norm is a square root, and
    # the empty state has no normalisation to write.
    one = StateVector(4, {(0, 1, 2, 3): 3})
    three = StateVector(4, {(0, 0, 0, 0): 0, (1, 1, 1, 1): 1, (2, 2, 2, 2): 2})
    assert render_state(one) == "(-i|0123>)"
    assert render_state(three) == "(|0000>+i|1111>-|2222>)/sqrt(3)"
    with pytest.raises(ValueError, match="zero norm"):
        render_state(StateVector(4, {}))


def test_two_decimals_rounds_the_exact_value():
    # 2.675 is 2.67499999999999982236431605997495353221893310546875 as a
    # double, so the float rendering rounds it down.
    assert format(float(Fraction(107, 40)), ".2f") == "2.67"
    assert two_decimals(107, 40) == "2.68"
    assert two_decimals(1, 200) == "0.00"
    assert two_decimals(3, 200) == "0.02"
    assert two_decimals(0, 1) == "0.00"
    assert two_decimals(12345, 1) == "12345.00"


@given(st.integers(0, 5_600_000), st.sampled_from([1, 2, 4, 7, 8, 14, 28, 56]))
@example(7, 8)
@example(1, 8)
def test_two_decimals_agrees_with_the_float_rendering_of_sample_deviations(a, d):
    # Deviations of the built-in states have denominators dividing 56 or 7:
    # a tie (2k + 1)/200 with such a denominator is m/8, held exactly by a
    # double, so both renderings agree there.
    assert two_decimals(a, d) == format(float(Fraction(a, d)), ".2f")
