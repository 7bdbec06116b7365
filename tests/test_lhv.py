"""Hidden-variable refutation: satisfiability, cores, classification."""

import copy
import pickle
import random
from collections import Counter
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from davn import lhv, postselect
from davn.factory import TABLE_OF_OUTCOME, build_psi_1234
from davn.lhv import (
    ASSIGNMENTS,
    Constraint,
    ParadoxReport,
    constraint_from_row,
    minimal_unsat_core,
    satisfiable,
    verify_davn,
    verify_paradox,
)
from davn.postselect import PairSelection
from davn.states import StateVector, phase_str
from reference import (
    PauliWord, eigenvalue_of, holds, postselect_pair_sweep, word_str,
)

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
    assert a == b and a is b
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


def row_fields(row):
    return (
        row.pair, row.sites, row.residual, row.eigenwords,
        row.basic, row.extended,
    )


def report_fields(report):
    """Every field of a paradox report by name, each row by its fields."""
    return {
        name: [row_fields(row) for row in report.rows] if name == "rows"
        else getattr(report, name)
        for name in ParadoxReport.__slots__
    }


def test_verify_paradox_takes_an_outcome_as_a_list():
    report = verify_paradox(PSI, [0, 0, 2, 2])
    assert report.outcome == (0, 0, 2, 2) and report.type_label == "II"
    assert report_fields(report) == report_fields(verify_paradox(PSI, (0, 0, 2, 2)))


def spy_on_core_searches(monkeypatch):
    seen = []
    core = lhv.minimal_unsat_core
    monkeypatch.setattr(
        lhv, "minimal_unsat_core", lambda cs: seen.append(list(cs)) or core(cs)
    )
    return seen


def test_davn_searches_each_distinct_constraint_set_once(monkeypatch):
    # The 56 outcomes of PSI hold 28 distinct pairs of merged and extended
    # sets; the memo lives for one call, so a second call repeats the
    # same searches.
    seen = spy_on_core_searches(monkeypatch)
    first = verify_davn(PSI)
    assert len(seen) == 28
    assert len({tuple(merged) for merged in seen}) == 28
    calls = list(seen)
    second = verify_davn(PSI)
    assert seen[28:] == calls
    assert [report_fields(r) for r in first.reports] == [
        report_fields(r) for r in second.reports
    ]


def test_the_extended_only_flag_is_kept_per_extended_set(monkeypatch):
    # No derived table tells this key from the merged set alone: every
    # extended constraint is even and each even basic is its own
    # extended, so the merged set fixes the extended set.  These made-up
    # rows break that: both outcomes merge to X2 = 1, X1^2 = 1,
    # X1^2 = -1, but only the first cites X1^2 = 1 as extended.
    x, z, y = ((0, 1), 0), ((2, 0), 0), ((2, 0), 2)
    rows = {(0, 0, 0, 0): [(x, y), (z, z)], (1, 1, 1, 1): [(x, None), (z, y)]}
    monkeypatch.setattr(lhv, "table_for_outcome", lambda state, outcome: tuple(
        SimpleNamespace(sites=(0, 1), basic=b, extended=e)
        for b, e in rows[outcome]
    ))
    first, second = verify_davn(StateVector(4, dict.fromkeys(rows, 0))).reports
    merged = (c((0, 1, 0, 0), 0), c((2, 0, 0, 0), 0), c((2, 0, 0, 0), 2))
    for report in (first, second):
        everything = report.constraints_basic + report.constraints_extended
        assert tuple(dict.fromkeys(everything)) == merged
    assert first.minimal_core == second.minimal_core == merged[1:]
    assert first.extended_only_unsatisfiable
    assert not second.extended_only_unsatisfiable


def test_verify_paradox_searches_its_own_set_every_call(monkeypatch):
    seen = spy_on_core_searches(monkeypatch)
    verify_paradox(PSI, (0, 0, 0, 0))
    verify_paradox(PSI, (0, 0, 0, 0))
    assert len(seen) == 2 and seen[0] == seen[1]


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


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickled_constraints_come_back_interned(protocol):
    constraint = c((0, 3, 1, 2), 3)
    assert pickle.loads(pickle.dumps(constraint, protocol)) is constraint


def test_copied_constraints_are_the_interned_object():
    constraint = c((2, 0, 0, 1), 0)
    assert copy.copy(constraint) is constraint
    assert copy.deepcopy(constraint) is constraint
    assert copy.deepcopy([constraint, constraint]) == [constraint, constraint]


def test_the_intern_table_holds_each_valid_constraint_once():
    table = postselect._CONSTRAINTS
    every = [
        Constraint(exps, target) for exps in ASSIGNMENTS[1:] for target in range(4)
    ]
    assert len(table) == len(set(map(id, every))) == 255 * 4
    assert all(Constraint(x.exps, x.target) is x for x in every)
    # With every valid constraint interned, a rejected input must still
    # raise: (True, 0, 0, 0) == (1, 0, 0, 0), so only validating before
    # the table lookup keeps it from returning the int-keyed object.
    for exps, target in [
        ((1, 0, 0, 0), 4), ((4, 0, 0, 0), 0), ((True, 0, 0, 0), 1),
        ([1, 0, 0, 0], 1), ((1, 0, 0), 1), ((0, 0, 0, 0), 0),
        ((1, 0, 0, 0), True),
    ]:
        with pytest.raises(ValueError):
            Constraint(exps, target)
    assert len(table) == 255 * 4


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
    assert lhv.truth_mask(constraint) is lhv.truth_mask(c((1, 2, 0, 3), 1))


def test_a_constraint_is_a_value():
    # Both slots are set at construction; the truth mask lives in a memo
    # of lhv keyed on the constraint's value.
    assert Constraint.__slots__ == ("exps", "target")


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
    assert TABLE_OF_OUTCOME[(0, 0, 0, 0)] == "I"
    assert TABLE_OF_OUTCOME[(2, 2, 2, 2)] == "I"
    assert TABLE_OF_OUTCOME[(2, 0, 0, 2)] == "II"
    assert TABLE_OF_OUTCOME[(0, 2, 3, 3)] == "III-A"
    assert TABLE_OF_OUTCOME[(2, 0, 3, 3)] == "III-B"
    assert TABLE_OF_OUTCOME[(1, 3, 2, 2)] == "VI-A"
    assert TABLE_OF_OUTCOME[(3, 1, 2, 2)] == "VI-B"
    assert (1, 1, 1, 1) not in TABLE_OF_OUTCOME


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
    assert report.probability_sum == (56, 56)
    assert report.failing_outcomes == ()
    assert report.type_counts == {
        "I": 2, "II": 6, "III": 12, "IV": 12, "V": 12, "VI": 12,
    }
    assert all(not r.satisfiable for r in report.reports)
    assert all(r.probability == (1, 56) and r.is_paradox for r in report.reports)
    assert all(r.extended_only_unsatisfiable for r in report.reports)
    # Reports come back sorted by outcome.
    outcomes = [r.outcome for r in report.reports]
    assert outcomes == sorted(outcomes)


def test_davn_not_awarded_to_product_state():
    single = StateVector(4, {(0, 0, 0, 0): 0})
    report = verify_davn(single)
    assert report.verdict == "NOT-DAVN"
    assert report.failing_outcomes == ((0, 0, 0, 0),)


def test_davn_refuses_a_state_of_zero_norm():
    # The empty state is refused where it is built, before the refutation.
    with pytest.raises(ValueError, match="at least one ket"):
        verify_davn(StateVector(4, {}))


def neighbours_of_psi():
    """The 224 states one ket away from PSI, by kind: each ket's phase
    moved by 1, 2 or 3, and each ket dropped."""
    shifts, drops = [], []
    for ket, t in PSI.phases.items():
        for shift in (1, 2, 3):
            phases = dict(PSI.phases)
            phases[ket] = (t + shift) % 4
            shifts.append(StateVector(4, phases))
        kept = {k: s for k, s in PSI.phases.items() if k != ket}
        drops.append(StateVector(4, kept))
    return {"phase shift": shifts, "ket drop": drops}


def test_davn_reports_equal_the_reports_of_each_outcome():
    # The per-call memo of verify_davn must hand each outcome exactly
    # what verify_paradox builds for it alone.
    states = [PSI] + [s for kind in neighbours_of_psi().values() for s in kind]
    for state in states:
        for report in verify_davn(state).reports:
            assert report_fields(report) == report_fields(
                verify_paradox(state, report.outcome)
            )


def test_census_of_the_neighbours_of_psi():
    # Tripwire on the wiring from selections to verdicts: every state one
    # ket away from PSI is NOT-DAVN, and how many of its outcomes admit
    # an LHV model is pinned per kind of neighbour.
    census = {}
    for kind, states in neighbours_of_psi().items():
        counts = []
        for state in states:
            report = verify_davn(state)
            assert report.verdict == "NOT-DAVN"
            assert report.support_size == len(state.phases)
            assert report.probability_sum == (state.norm_sq, state.norm_sq)
            counts.append(len(report.failing_outcomes))
        census[kind] = dict(sorted(Counter(counts).items()))
    assert census == {
        "phase shift": {5: 96, 10: 48, 13: 24},
        "ket drop": {4: 32, 9: 16, 12: 8},
    }



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
            assert lhv.truth_mask(constraint) == expected


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


@st.composite
def refuted_by_a_product(draw):
    """Up to 12 constraints: up to 11 met by a hidden assignment, and one
    whose word is a product of powers of theirs but whose target is not
    the matching product, so the core may hold many of them."""
    hidden = draw(st.sampled_from(ASSIGNMENTS))
    exps_list = draw(st.lists(exps_strategy, min_size=1, max_size=11))
    constraints = [
        c(e, sum(a * v for a, v in zip(e, hidden)) % 4) for e in exps_list
    ]
    powers = draw(st.lists(
        st.integers(0, 3), min_size=len(constraints), max_size=len(constraints)
    ))
    exps = [
        sum(y * k.exps[j] for y, k in zip(powers, constraints)) % 4
        for j in range(4)
    ]
    assume(any(exps))
    target = sum(y * k.target for y, k in zip(powers, constraints))
    contradiction = c(exps, (target + draw(st.integers(1, 3))) % 4)
    constraints.insert(draw(st.integers(0, len(constraints))), contradiction)
    return constraints


@settings(max_examples=100, deadline=None)
@given(refuted_by_a_product())
def test_minimal_core_matches_reference_on_sets_of_up_to_twelve(constraints):
    assert satisfiable(constraints) is None
    assert minimal_unsat_core(constraints) == reference_core(constraints)


def test_minimal_core_matches_reference_on_every_set_of_psi(monkeypatch):
    # The 28 distinct merged sets of PSI hold 4 to 12 constraints.
    seen = spy_on_core_searches(monkeypatch)
    verify_davn(PSI)
    assert sorted({len(merged) for merged in seen}) == [4, 6, 8, 9, 12]
    for merged in seen:
        assert minimal_unsat_core(merged) == reference_core(merged)


# ---------------------------------------------------------------------------
# The whole pipeline against the oracles: selection by sweep, eigenwords by
# the general eigen test, refutation by holds, on near neighbours of PSI.


def oracle_row(state, pair):
    """(pair, residual sites, residual state, eigenwords, basic, extended)
    of one table row, from the reference forms alone."""
    residual = postselect_pair_sweep(state, pair)
    eigenwords = []
    for u, v in product(range(1, 4), repeat=2):
        word = PauliWord.from_exponents(2, x_exps={0: u, 1: v})
        t = eigenvalue_of(word, residual)
        if t is not None:
            eigenwords.append(((u, v), t))
    basic = extended = eigenwords[0] if eigenwords else None
    if basic is not None and (basic[0][0] % 2 or basic[0][1] % 2):
        u, v = 2 * basic[0][0] % 4, 2 * basic[0][1] % 4
        square = PauliWord.from_exponents(2, x_exps={0: u, 1: v})
        extended = ((u, v), eigenvalue_of(square, residual))
    sites = tuple(s for s in range(4) if s not in (pair.site_i, pair.site_j))
    return pair, sites, residual, tuple(eigenwords), basic, extended


def oracle_paradox(state, outcome):
    """The fields of verify_paradox, from the reference forms alone."""
    rows = [
        oracle_row(state, PairSelection(i, j, outcome[i], outcome[j]))
        for i, j in combinations(range(4), 2)
    ]

    def lifted(sites, eigenword):
        (u, v), t = eigenword
        exps = [0, 0, 0, 0]
        exps[sites[0]], exps[sites[1]] = u, v
        return c(exps, t)

    basics = [lifted(row[1], row[4]) for row in rows if row[4] is not None]
    extendeds = [lifted(row[1], row[5]) for row in rows if row[5] is not None]
    merged = []
    for constraint in basics + extendeds:
        if constraint not in merged:
            merged.append(constraint)
    witness = reference_satisfiable(merged)
    core = None if witness is not None else tuple(reference_core(merged))
    return {
        "rows": rows,
        "basic": tuple(basics),
        "extended": tuple(extendeds),
        "witness": witness,
        "core": core,
        "extended only": reference_satisfiable(extendeds) is None,
    }


def assert_matches_the_oracles(report, expected):
    assert [row_fields(row) for row in report.rows] == expected["rows"]
    assert report.constraints_basic == expected["basic"]
    assert report.constraints_extended == expected["extended"]
    assert report.witness == expected["witness"]
    assert report.minimal_core == expected["core"]
    assert report.extended_only_unsatisfiable == expected["extended only"]


def test_paradox_reports_of_neighbours_match_the_oracles():
    # Pins the wiring from selections to verdicts: which rows feed an
    # outcome's set, the order repeats are dropped in, the extended-only
    # flag and the core chosen.  A seeded sample of each kind of
    # neighbour, every outcome of each.
    rng = random.Random(19)
    sample = [
        state
        for states in neighbours_of_psi().values()
        for state in rng.sample(states, 6)
    ]
    refuted = satisfied = 0
    for state in sample:
        for outcome in sorted(state.phases):
            report = verify_paradox(state, outcome)
            assert_matches_the_oracles(report, oracle_paradox(state, outcome))
            refuted += report.witness is None
            satisfied += report.witness is not None
    assert refuted and satisfied


#: The drops of two kets of PSI, by index into its sorted kets, whose
#: states hold an outcome that is refuted while its extended constraints
#: alone are satisfiable: 17 of the 1540 drops, as the sweep of all of
#: them in test_every_two_ket_drop_matches_the_pinned_census finds.  Drop
#: (2, 36) holds two such outcomes.
SPLIT_FLAG_DROPS = (
    (1, 26), (1, 36), (1, 48), (2, 26), (2, 36), (2, 37), (2, 39), (2, 48),
    (3, 26), (3, 36), (3, 48), (27, 36), (27, 37), (27, 39), (36, 49),
    (37, 49), (39, 49),
)


def test_two_ket_drops_that_split_the_extended_only_flag_match_the_oracles():
    # On every one-ket neighbour of PSI the extended-only flag equals
    # "refuted", so those states cannot tell the flag from the verdict;
    # these can.  Each runs through verify_davn, whose memo shares the
    # flag between outcomes, and is checked outcome by outcome.
    kets = sorted(PSI.phases)
    split = []
    for i, j in SPLIT_FLAG_DROPS:
        phases = {k: t for k, t in PSI.phases.items() if k not in (kets[i], kets[j])}
        state = StateVector(4, phases)
        reports = verify_davn(state).reports
        assert [r.outcome for r in reports] == sorted(phases)
        for report in reports:
            assert_matches_the_oracles(report, oracle_paradox(state, report.outcome))
            if report.witness is None and not report.extended_only_unsatisfiable:
                split.append(((i, j), report.outcome))
    assert len(split) == 18 and {drop for drop, _ in split} == set(SPLIT_FLAG_DROPS)
    assert Counter(outcome for _, outcome in split) == {
        (0, 0, 0, 0): 9, (2, 2, 2, 2): 9,
    }


#: How many of the 1540 two-ket drops of PSI have each number of outcomes
#: that an LHV assignment satisfies.
DROP_FAILING_COUNTS = {
    4: 48, 6: 64, 8: 192, 9: 192, 11: 128, 12: 256, 13: 128, 14: 112,
    15: 160, 16: 80, 17: 24, 18: 24, 19: 64, 20: 24, 21: 8, 22: 32, 28: 1,
    30: 3,
}


def test_every_two_ket_drop_matches_the_pinned_census():
    # A tripwire over the whole neighbourhood at distance two, 83 160
    # outcomes in all: no drop is DAVN, and the extended-only flag splits
    # on the drops of SPLIT_FLAG_DROPS and on no others.
    kets = sorted(PSI.phases)
    verdicts, failing, outcomes, split = Counter(), Counter(), 0, []
    for i, j in combinations(range(len(kets)), 2):
        phases = {k: t for k, t in PSI.phases.items() if k not in (kets[i], kets[j])}
        report = verify_davn(StateVector(4, phases))
        verdicts[report.verdict] += 1
        failing[len(report.failing_outcomes)] += 1
        outcomes += report.support_size
        if any(r.witness is None and not r.extended_only_unsatisfiable
               for r in report.reports):
            split.append((i, j))
    assert verdicts == {"NOT-DAVN": 1540}
    assert outcomes == 83_160
    assert failing == DROP_FAILING_COUNTS
    assert split == list(SPLIT_FLAG_DROPS)
