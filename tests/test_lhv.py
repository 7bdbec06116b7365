"""Hidden-variable refutation: satisfiability, cores, classification."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davn import lhv
from davn.factory import build_psi_1234
from davn.lhv import (
    ASSIGNMENTS,
    Constraint,
    classify_type,
    constraint_from_row,
    minimal_unsat_core,
    satisfiable,
    verify_davn,
    verify_paradox,
)
from davn.states import StateVector
from davn.gauss import phase_str
from reference import PauliWord, holds, word_str

PSI = build_psi_1234()


def c(exps, target):
    return Constraint(tuple(exps), target)


def test_assignment_grid():
    assert len(ASSIGNMENTS) == 256
    assert ASSIGNMENTS[0] == (0, 0, 0, 0)
    assert ASSIGNMENTS[-1] == (3, 3, 3, 3)
    assert ASSIGNMENTS[1] == (0, 0, 0, 1)  # lexicographic


def test_empty_list_is_vacuously_satisfiable():
    assert satisfiable([]) == (0, 0, 0, 0)


def test_single_even_constraint_has_zero_witness():
    assert satisfiable([c((2, 2, 0, 0), 0)]) == (0, 0, 0, 0)


def test_type_one_extended_set_is_unsatisfiable():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    constraints = []
    for i, j in pairs:
        exps = [0, 0, 0, 0]
        exps[i] = exps[j] = 2
        constraints.append(c(exps, 2))
    assert satisfiable(constraints) is None


def test_type_one_parity_hand_argument_agrees_with_scan():
    # Hand argument: squared values live in {+1, -1}; asking every pair
    # product to be -1 means all four parities differ pairwise, which is
    # impossible.  Check the parity reasoning explicitly on all 16
    # parity vectors and compare with the exhaustive scan.
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    hand_satisfiable = False
    for bits in range(16):
        w = [(bits >> k) & 1 for k in range(4)]
        if all((w[i] + w[j]) % 2 == 1 for i, j in pairs):
            hand_satisfiable = True
    constraints = []
    for i, j in pairs:
        exps = [0, 0, 0, 0]
        exps[i] = exps[j] = 2
        constraints.append(c(exps, 2))
    assert hand_satisfiable is (satisfiable(constraints) is not None)


def test_constraint_requires_a_site():
    with pytest.raises(ValueError, match="at least one site"):
        c((0, 0, 0, 0), 1)


def test_equal_constraints_hash_equal():
    a, b = c((0, 2, 0, 2), 0), c((0, 2, 0, 2), 0)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert a != c((0, 2, 0, 2), 2) and a != c((2, 0, 2, 0), 0)
    assert list(dict.fromkeys([a, c((1, 0, 0, 0), 1), b])) == [a, c((1, 0, 0, 0), 1)]


def test_verify_paradox_drops_repeated_constraints(monkeypatch):
    # Outcome 0022 has even basic words, whose extended form is the basic
    # itself, so the merged set must hold each of them once.
    seen = []
    core = lhv.minimal_unsat_core
    monkeypatch.setattr(
        lhv, "minimal_unsat_core", lambda cs: seen.append(cs) or core(cs)
    )
    report = verify_paradox(PSI, (0, 0, 2, 2))
    everything = report.constraints_basic + report.constraints_extended
    (merged,) = seen
    assert len(set(merged)) == len(merged) < len(everything)
    assert set(merged) == set(everything)


@pytest.mark.parametrize(
    "exps,target,message",
    [
        ((1, 0, 0, 0), 4, "target 4"),
        ((4, 0, 0, 0), 0, "four ints in 0..3"),
        ((5, 0, 0, 0), 0, "four ints in 0..3"),
        ((-1, 0, 0, 0), 0, "four ints in 0..3"),
        ((1, 0, 0), 1, "four ints in 0..3"),
        ((1, 0, 0, 0, 0), 1, "four ints in 0..3"),
        ([1, 0, 0, 0], 1, "four ints in 0..3"),
        ((True, 0, 0, 0), 1, "four ints in 0..3"),
        ((1, 0, 0, 0), -1, "target -1"),
        ((1, 0, 0, 0), True, "target True"),
        ((0, 0, 0, 0), 0, "at least one site"),
    ],
)
def test_constraint_rejects_unreduced_or_misshapen_input(exps, target, message):
    with pytest.raises(ValueError, match=message):
        Constraint(exps, target)


def test_constraint_text_matches_reference_word_for_every_constraint():
    for exps in ASSIGNMENTS[1:]:
        word = PauliWord.from_exponents(
            4, x_exps={j: e for j, e in enumerate(exps) if e}
        )
        for target in range(4):
            assert str(c(exps, target)) == (
                f"{word_str(word)} = {phase_str(target)}"
            )


def test_truth_mask_is_built_once():
    # A 256-bit int is a new object each time it is computed.
    constraint = c((1, 2, 0, 3), 1)
    assert constraint.truth_mask is constraint.truth_mask


def test_constraint_from_row_shares_one_constraint_per_word():
    # Built from fresh tuples each time, as each table row does.
    first = constraint_from_row(tuple([1, 3]), ((1, 2), 3))
    assert first is constraint_from_row((1, 3), ((1, 2), 3))
    assert first.exps == (0, 1, 0, 2) and first.target == 3
    assert constraint_from_row((1, 3), ((1, 2), 1)) is not first
    assert constraint_from_row((0, 3), ((1, 2), 3)) is not first


def test_paradox_reports_share_their_constraints():
    # Outcomes 0000 and 2222 cite the same six basic constraints, so each
    # truth mask is built once for both.
    a, b = verify_paradox(PSI, (0, 0, 0, 0)), verify_paradox(PSI, (2, 2, 2, 2))
    assert len(a.constraints_basic) == 6
    assert all(x is y for x, y in zip(a.constraints_basic, b.constraints_basic))


exps_strategy = st.lists(
    st.integers(min_value=0, max_value=3), min_size=4, max_size=4
).filter(lambda e: any(e))


@given(exps_strategy, exps_strategy, st.integers(0, 3), st.integers(0, 3))
def test_constraint_evaluation_is_linear(e1, e2, t1, t2):
    # The value ledger of a product constraint is the sum of the factor
    # ledgers, so satisfaction composes additively.
    c1, c2 = c(e1, t1), c(e2, t2)
    merged_exps = tuple((a + b) % 4 for a, b in zip(e1, e2))
    for values in random.Random(0).sample(ASSIGNMENTS, 40):
        lhs1 = sum(e * v for e, v in zip(e1, values)) % 4
        lhs2 = sum(e * v for e, v in zip(e2, values)) % 4
        assert holds(c1, values) == (lhs1 == t1)
        assert holds(c2, values) == (lhs2 == t2)
        if any(merged_exps):
            merged = c(merged_exps, (t1 + t2) % 4)
            assert holds(merged, values) == ((lhs1 + lhs2) % 4 == (t1 + t2) % 4)


def test_word_rendering():
    assert str(c((0, 0, 1, 3), 3)) == "X3*X4^3 = -i"
    assert str(c((2, 2, 0, 0), 0)) == "X1^2*X2^2 = 1"


def test_minimal_core_rejects_satisfiable_input():
    with pytest.raises(ValueError):
        minimal_unsat_core([c((1, 0, 0, 0), 0)])


def test_single_constraint_core():
    # An even word can only take values +-1, so demanding i is already
    # contradictory on its own.
    core = minimal_unsat_core([c((2, 2, 0, 0), 1)])
    assert core == [c((2, 2, 0, 0), 1)]


def test_core_minimality_is_checked_exhaustively():
    report = verify_paradox(PSI, (0, 0, 0, 0))
    core = list(report.minimal_core)
    assert satisfiable(core) is None
    for drop in range(len(core)):
        subset = core[:drop] + core[drop + 1 :]
        assert satisfiable(subset) is not None


def test_every_outcome_core_is_sound_and_minimal():
    # Sweep all 56 reports: each core is unsatisfiable and every proper
    # subset (drop any one constraint) has a witness.
    for report in verify_davn(PSI).reports:
        core = list(report.minimal_core)
        assert 1 <= len(core) <= 6
        assert satisfiable(core) is None
        for drop in range(len(core)):
            assert satisfiable(core[:drop] + core[drop + 1 :]) is not None


def test_type_one_core_is_the_three_basic_constraints():
    report = verify_paradox(PSI, (0, 0, 0, 0))
    assert report.minimal_core == (
        c((0, 0, 1, 3), 3),
        c((0, 1, 0, 3), 3),
        c((0, 1, 3, 0), 3),
    )
    # Product argument: the three left sides multiply to an even word,
    # valued in {+1, -1}, while the right sides multiply to i.
    total_target = sum(cc.target for cc in report.minimal_core) % 4
    merged = [0, 0, 0, 0]
    for cc in report.minimal_core:
        merged = [(a + b) % 4 for a, b in zip(merged, cc.exps)]
    assert all(e % 2 == 0 for e in merged)
    assert total_target % 2 == 1


def test_classify_type_examples():
    assert classify_type((0, 0, 0, 0)) == "I"
    assert classify_type((2, 2, 2, 2)) == "I"
    assert classify_type((2, 0, 0, 2)) == "II"
    assert classify_type((0, 2, 3, 3)) == "III-A"
    assert classify_type((2, 0, 3, 3)) == "III-B"
    assert classify_type((1, 3, 2, 2)) == "VI-A"
    assert classify_type((3, 1, 2, 2)) == "VI-B"
    with pytest.raises(ValueError):
        classify_type((1, 1, 1, 1))


def test_verify_paradox_requires_support():
    with pytest.raises(ValueError):
        verify_paradox(PSI, (3, 3, 3, 3))


def test_paradox_reports_for_hand_worked_outcomes():
    r1 = verify_paradox(PSI, (0, 0, 0, 0))
    assert not r1.satisfiable and r1.type_label == "I"
    assert len(r1.constraints_basic) == 6

    r2 = verify_paradox(PSI, (0, 2, 3, 3))
    assert not r2.satisfiable and r2.type_label == "III-A"
    assert r2.minimal_core == (
        c((0, 0, 2, 2), 0),
        c((0, 2, 0, 2), 2),
        c((0, 1, 3, 0), 0),
    )

    r3 = verify_paradox(PSI, (3, 0, 2, 3))
    assert not r3.satisfiable
    assert len(r3.constraints_basic) == 4
    assert r3.minimal_core == r3.constraints_basic


def test_paradox_witness_for_product_state():
    single = StateVector(4, {(0, 0, 0, 0): 0})
    report = verify_paradox(single, (0, 0, 0, 0))
    assert report.satisfiable
    assert report.witness == (0, 0, 0, 0)
    assert report.minimal_core is None


def test_davn_on_the_main_state():
    report = verify_davn(PSI)
    assert report.verdict == "DAVN"
    assert report.support_size == 56
    assert report.probability_sum == 1
    assert report.failing_outcomes == ()
    assert report.type_counts == {
        "I": 2, "II": 6, "III": 12, "IV": 12, "V": 12, "VI": 12,
    }
    assert all(not r.satisfiable for r in report.reports)
    assert all(r.extended_only_unsatisfiable for r in report.reports)
    # Reports come back sorted by outcome.
    outcomes = [r.outcome for r in report.reports]
    assert outcomes == sorted(outcomes)


def test_davn_not_awarded_to_product_state():
    single = StateVector(4, {(0, 0, 0, 0): 0})
    report = verify_davn(single)
    assert report.verdict == "NOT-DAVN"
    assert report.failing_outcomes == ((0, 0, 0, 0),)



# ---------------------------------------------------------------------------
# Reference equivalence: the mask-based scan against a plain reference.holds
# loop over ASSIGNMENTS, kept here as the specification.


def reference_satisfiable(constraints):
    for values in ASSIGNMENTS:
        if all(holds(k, values) for k in constraints):
            return values
    return None


def reference_core(constraints):
    for size in range(1, len(constraints) + 1):
        for combo in combinations(range(len(constraints)), size):
            subset = [constraints[i] for i in combo]
            if reference_satisfiable(subset) is None:
                return subset
    return None


constraint_strategy = st.builds(c, exps_strategy, st.integers(0, 3))


@st.composite
def satisfiable_constraints(draw):
    # Targets read off a hidden assignment, so that assignment meets all.
    hidden = draw(st.sampled_from(ASSIGNMENTS))
    exps_list = draw(st.lists(exps_strategy, max_size=6))
    return [
        c(e, sum(a * v for a, v in zip(e, hidden)) % 4) for e in exps_list
    ]


constraint_lists = st.one_of(
    st.lists(constraint_strategy, max_size=6), satisfiable_constraints()
)


def test_truth_mask_matches_holds_for_every_constraint():
    for exps in ASSIGNMENTS[1:]:
        for target in range(4):
            constraint = c(exps, target)
            expected = sum(
                1 << k for k, values in enumerate(ASSIGNMENTS)
                if holds(constraint, values)
            )
            assert constraint.truth_mask == expected


@settings(max_examples=200)
@given(constraint_lists)
def test_satisfiable_matches_reference_scan(constraints):
    assert satisfiable(constraints) == reference_satisfiable(constraints)


@settings(max_examples=200)
@given(constraint_lists)
def test_minimal_core_matches_reference_search(constraints):
    if reference_satisfiable(constraints) is not None:
        with pytest.raises(ValueError):
            minimal_unsat_core(constraints)
    else:
        assert minimal_unsat_core(constraints) == reference_core(constraints)


@given(st.lists(constraint_strategy, min_size=1, max_size=5), constraint_strategy)
def test_minimal_core_matches_reference_on_contradictions(constraints, extra):
    # Adding a constraint and its negation-by-target makes any list
    # unsatisfiable, so the core search is always exercised here.
    clash = c(extra.exps, (extra.target + 1) % 4)
    constraints = constraints + [extra, clash]
    assert satisfiable(constraints) is None
    assert minimal_unsat_core(constraints) == reference_core(constraints)
