"""Post-selection, constraint derivation, and the fixture machinery."""

import re
from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from davn.factory import STATE_NAMES, build_state
from davn.factory import (
    TABLE_BLOCKS,
    TABLE_LABELS,
    build_psi_1234,
    canonical_table_label,
    joint_z_probability,
)
from davn.fixtures import (
    ALLOWLIST_KINDS,
    DiffReport,
    FixtureRow,
    diff_fixture_rows,
    parse_allowlist,
    parse_fixture_text,
    verify_reference_row,
)
from davn import postselect
from davn.lhv import verify_davn
from davn.postselect import (
    CANDIDATE_WORDS,
    SITE_PAIRS,
    PairSelection,
    _selections,
    derive_constraints,
    postselect_pair,
    table_for_outcome,
)
from davn.states import StateVector
from reference import (
    GaussInt,
    PauliWord,
    eigenvalue_of,
    phase_relative_to,
    postselect_pair_sweep,
    render_fixture_row,
    scaled_by_phase,
)

PSI = build_psi_1234()


def unit_state(phases):
    return StateVector(2, phases)


def test_postselect_first_pair():
    residual = postselect_pair(PSI, PairSelection(0, 1, 0, 0))
    expected = unit_state({(0, 0): 0, (1, 3): 1, (2, 2): 2, (3, 1): 3})
    assert phase_relative_to(residual, expected) is not None


def test_postselect_two_ket_residual():
    residual = postselect_pair(PSI, PairSelection(2, 3, 3, 3))
    expected = unit_state({(0, 2): 1, (2, 0): 3})
    assert phase_relative_to(residual, expected) is not None


def test_pair_selection_needs_two_sites():
    with pytest.raises(ValueError, match="two distinct sites"):
        PairSelection(2, 2, 0, 1)


def test_diff_reports_do_not_share_lists():
    first, second = DiffReport(), DiffReport()
    first.failures.append("row")
    first.allowlisted.append("entry")
    first.unused_allowlist.append("entry")
    assert second.failures == second.allowlisted == second.unused_allowlist == []
    assert (second.total_rows, second.matched_rows) == (0, 0)


def test_postselect_empty_projection_names_pair():
    single = StateVector(4, {(0, 0, 0, 0): 0})
    with pytest.raises(ValueError, match="Z1=i,Z2=1"):
        postselect_pair(single, PairSelection(0, 1, 1, 0))


def test_every_pair_selection_of_psi_is_nonempty():
    # All 16 digit pairs occur on every site pair; projection weights add
    # back to the full norm.
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        weight = 0
        for a in range(4):
            for b in range(4):
                residual = postselect_pair(PSI, PairSelection(i, j, a, b))
                assert not residual.is_zero()
                weight += residual.norm_sq
        assert weight == PSI.norm_sq


phase_exponents = st.integers(0, 3)


def assert_selections_match_the_sweep(state):
    """Every selection, out-of-range sites included, against the sweep."""
    sites = range(state.n_sites + 1)
    for i in sites:
        for j in sites:
            if i == j:
                continue
            for a in range(4):
                for b in range(4):
                    pair = PairSelection(i, j, a, b)
                    try:
                        expected = postselect_pair_sweep(state, pair)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as raised:
                            postselect_pair(state, pair)
                        assert str(raised.value) == str(exc)
                        continue
                    residual = postselect_pair(state, pair)
                    assert residual == expected
                    # Kets come in lexicographic order, whatever the
                    # order the state was built in.
                    assert list(residual.phases) == sorted(expected.phases)
                    assert postselect_pair(state, pair) is residual


@pytest.mark.parametrize("name", STATE_NAMES)
def test_postselect_pair_matches_the_sweep_on_builtin_states(name):
    assert_selections_match_the_sweep(build_state(name))


four_site_kets = st.tuples(*[st.integers(0, 3)] * 4)


@given(st.dictionaries(four_site_kets, phase_exponents, min_size=1, max_size=24))
def test_postselect_pair_matches_the_sweep_on_random_states(phases):
    assert_selections_match_the_sweep(StateVector(4, phases))


@pytest.mark.parametrize("name", STATE_NAMES)
def test_residuals_equal_states_built_by_the_validating_constructor(name):
    # postselect_pair cuts residuals without re-checking their kets; the
    # public constructor, fed the same phases, is the reference.
    state = build_state(name)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            selected = 0
            for a in range(4):
                for b in range(4):
                    try:
                        residual = postselect_pair(
                            state, PairSelection(i, j, a, b)
                        )
                    except ValueError:
                        continue
                    reference = StateVector(
                        residual.n_sites,
                        dict(residual.phases),
                        level=residual.level,
                    )
                    assert residual == reference
                    assert list(residual.phases) == list(reference.phases)
                    assert residual.norm_sq == reference.norm_sq
                    assert hash(residual) == hash(reference)
                    selected += 1
            assert selected > 0


def test_states_of_one_shape_keep_their_own_selections():
    # Same kets, other phases: an index shared by shape would hand the
    # second state the first one's residuals.
    turned = scaled_by_phase(PSI, 1)
    pair = PairSelection(0, 1, 0, 0)
    mine, theirs = postselect_pair(PSI, pair), postselect_pair(turned, pair)
    assert phase_relative_to(mine, theirs) == 3
    assert theirs == postselect_pair_sweep(turned, pair)


def test_equal_states_share_their_selections():
    # The memo is keyed on the state's value, so a copy built with its
    # kets in reverse order gets the very residual of the original.
    reordered = StateVector(4, dict(reversed(PSI.phases.items())))
    pair = PairSelection(0, 1, 0, 0)
    assert postselect_pair(reordered, pair) is postselect_pair(PSI, pair)


def test_equal_residuals_of_a_state_are_one_object():
    # The 96 selections of PSI hold 38 distinct residuals, each handed
    # out as one object whichever order the pair names its sites in.
    selections = {
        (i, j, a, b): postselect_pair(PSI, PairSelection(i, j, a, b))
        for i, j in SITE_PAIRS
        for a in range(4)
        for b in range(4)
    }
    residuals = selections.values()
    assert len(selections) == 96
    assert len({id(r) for r in residuals}) == len(set(residuals)) == 38
    for (i, j, a, b), residual in selections.items():
        assert postselect_pair(PSI, PairSelection(j, i, b, a)) is residual


def test_a_fresh_refutation_compares_states_only_to_share_residuals(monkeypatch):
    # Each of the 58 repeats among PSI's 96 residuals is compared once,
    # when the table is built; every later lookup hits by identity.
    _selections.cache_clear()
    derive_constraints.cache_clear()
    calls = []
    equal = StateVector.__eq__
    monkeypatch.setattr(
        StateVector, "__eq__", lambda a, b: calls.append(1) or equal(a, b)
    )
    verify_davn(build_psi_1234())
    assert 0 < len(calls) <= 58


@pytest.mark.parametrize(
    ("name", "shifts"), [("psi1234", 9 * 38), ("psi4-embedded", 27)]
)
def test_each_distinct_residual_is_scanned_once(monkeypatch, name, shifts):
    # Nine candidate words per distinct residual (38 among psi1234's 96
    # selections, 3 among psi4-embedded's 24) and no further test: an
    # extended constraint is its basic one squared, not looked up again.
    _selections.cache_clear()
    derive_constraints.cache_clear()
    calls = []
    shift = postselect._shift_eigenvalue
    monkeypatch.setattr(
        postselect, "_shift_eigenvalue", lambda *a: calls.append(1) or shift(*a)
    )
    verify_davn(build_state(name))
    assert len(calls) == shifts
    assert derive_constraints.cache_info().misses * 9 == shifts


def test_residual_norm_matches_projected_weight():
    pair = PairSelection(0, 1, 0, 0)
    residual = postselect_pair(PSI, pair)
    direct = sum(
        GaussInt.from_phase(t).norm_sq()
        for ket, t in PSI.phases.items()
        if ket[0] == 0 and ket[1] == 0
    )
    assert residual.norm_sq == direct
    # Each residual ket corresponds to one supported outcome tuple.
    for ket, t in residual.phases.items():
        outcome = (0, 0) + ket
        assert joint_z_probability(PSI, outcome) == (
            GaussInt.from_phase(t).norm_sq(), PSI.norm_sq
        )


def test_derive_constraints_table_one_row():
    residual = unit_state({(0, 0): 0, (1, 3): 1, (2, 2): 2, (3, 1): 3})
    eigenwords, basic, extended = derive_constraints(residual)
    assert basic == ((1, 3), 3)
    assert extended == ((2, 2), 2)
    assert set(eigenwords) == {((1, 3), 3), ((2, 2), 2), ((3, 1), 1)}


def test_derive_constraints_no_eigenword():
    residual = unit_state({(0, 1): 1, (1, 0): 3, (2, 3): 1, (3, 2): 1})
    eigenwords, basic, extended = derive_constraints(residual)
    assert eigenwords == ()
    assert basic is None and extended is None


def test_derive_constraints_even_basic():
    residual = unit_state({(0, 2): 2, (1, 1): 1, (2, 0): 2, (3, 3): 1})
    eigenwords, basic, extended = derive_constraints(residual)
    assert basic == ((2, 2), 0)
    assert extended == basic
    assert eigenwords == (((2, 2), 0),)


def test_derive_constraints_deterministic():
    residual = unit_state({(0, 0): 0, (1, 3): 1, (2, 2): 2, (3, 1): 3})
    assert derive_constraints(residual) == derive_constraints(residual)


def test_derive_constraints_rejects_what_has_no_eigenwords():
    with pytest.raises(ValueError, match="two-site"):
        derive_constraints(StateVector(3, {(0, 0, 0): 0}))
    with pytest.raises(ValueError, match="zero state"):
        derive_constraints(StateVector(2, {}))
    with pytest.raises(ValueError, match="4-level"):
        derive_constraints(StateVector(2, {(0, 1): 0}, level=2))


def reference_eigenwords(state):
    """Eigenwords of the nine candidates by the general eigen test."""
    found = []
    for u, v in CANDIDATE_WORDS:
        word = PauliWord.from_exponents(2, x_exps={0: u, 1: v})
        t = eigenvalue_of(word, state)
        if t is not None:
            found.append(((u, v), t))
    return tuple(found)


@st.composite
def residuals_on_one_support(draw):
    """Two residuals with one support and independently drawn phases.

    The support is a union of orbits of one candidate shift; along each
    orbit phases[k + (u, v)] = phases[k] - c (mod 4), from a drawn seed
    exponent, so eigenwords occur often.  One exponent may then be
    redrawn outright, which breaks the relation unless it comes out the
    same.
    """
    u, v = draw(st.sampled_from(CANDIDATE_WORDS))
    kets = st.tuples(st.integers(0, 3), st.integers(0, 3))
    starts = draw(st.lists(kets, min_size=1, max_size=3))
    orbits = []
    for a, b in starts:
        orbit = []
        while (a, b) not in orbit:
            orbit.append((a, b))
            a, b = (a + u) % 4, (b + v) % 4
        orbits.append(orbit)
    states = []
    for _ in range(2):
        c = draw(st.integers(0, 3))
        phases = {}
        for orbit in orbits:
            t = draw(phase_exponents)
            for ket in orbit:
                phases.setdefault(ket, t)
                t = (t - c) % 4
        if draw(st.booleans()):
            ket = draw(st.sampled_from(sorted(phases)))
            phases[ket] = draw(phase_exponents)
        states.append(StateVector(2, phases))
    return states


#: i(|00> + |12> + |20> + |32>): its basic word X_k X_l**2 squares to
#: the one-site word X_k**2, which is not one of the nine candidates.
ONE_SITE_SQUARE = unit_state({(0, 0): 1, (1, 2): 1, (2, 0): 1, (3, 2): 1})


@given(residuals_on_one_support())
@example([
    unit_state({(0, 0): 0, (1, 3): 1, (2, 2): 2, (3, 1): 3}),
    unit_state({(0, 0): 0, (1, 3): 3, (2, 2): 2, (3, 1): 1}),
])
@example([ONE_SITE_SQUARE, ONE_SITE_SQUARE])
# The scan stops early; each of these breaks a word's relation only at
# the last ket in dict order, so a scan that stops too soon keeps it.
# X_k**2 X_l**2 maps the two kets onto each other, with phase
# differences 3 and then 1:
@example([unit_state({(0, 0): 0, (2, 2): 1})])
# X_k X_l shifts each ket onto the next and the last one off the support:
@example([unit_state({(0, 0): 0, (1, 1): 0, (2, 2): 0})])
def test_derive_constraints_matches_eigenvalue_of(states):
    # Both states share a support, so a scan remembered by support alone
    # would answer the second with the first one's eigenwords.
    for state in states:
        expected = reference_eigenwords(state)
        if not expected:
            assert derive_constraints(state) == ((), None, None)
            continue
        basic = expected[0]
        (u, v), t = basic
        if u % 2 == 0 and v % 2 == 0:
            extended = basic
        else:
            # The square may act on one site; the general test decides it.
            square = PauliWord.from_exponents(2, x_exps={0: 2 * u, 1: 2 * v})
            extended = ((2 * u % 4, 2 * v % 4), eigenvalue_of(square, state))
            assert extended[1] == 2 * t % 4
        assert derive_constraints(state) == (expected, basic, extended)


def test_every_derived_constraint_verifies_quantum_mechanically():
    for outcome in PSI.support():
        for row in table_for_outcome(PSI, outcome):
            for (u, v), t in row.eigenwords:
                word = PauliWord.from_exponents(2, x_exps={0: u, 1: v})
                assert eigenvalue_of(word, row.residual) == t
            if row.basic is not None:
                assert row.basic == row.eigenwords[0]
                (u, v), t = row.extended
                assert u % 2 == 0 and v % 2 == 0


def test_table_for_outcome_type_one():
    rows = table_for_outcome(PSI, (0, 0, 0, 0))
    assert len(rows) == 6
    basics = [row.basic for row in rows]
    assert basics == [
        ((1, 3), 3),  # sites 3,4
        ((1, 3), 3),  # sites 2,4
        ((1, 3), 3),  # sites 2,3
        ((1, 3), 1),  # sites 1,4: forced value +i
        ((1, 3), 3),  # sites 1,3
        ((1, 3), 3),  # sites 1,2
    ]
    assert all(row.extended == ((2, 2), 2) for row in rows)


def test_table_for_outcome_second_family_has_two_gaps():
    rows = table_for_outcome(PSI, (3, 0, 2, 3))
    gaps = [row.basic is None for row in rows]
    assert gaps == [True, False, False, False, False, True]


def test_table_for_outcome_rejects_unsupported():
    with pytest.raises(ValueError):
        table_for_outcome(PSI, (1, 1, 1, 1))


def test_table_labels_and_aliases():
    assert canonical_table_label("iii-a") == "III-A"
    assert canonical_table_label("IX") == "VI-A"
    assert canonical_table_label("I") == "I"
    with pytest.raises(ValueError):
        canonical_table_label("XI")
    # Block lists cover the full support exactly once.
    seen = [o for blocks in TABLE_BLOCKS.values() for o in blocks]
    assert len(seen) == 56
    assert set(seen) == set(PSI.support())


def test_fixture_block_headers_follow_the_table_blocks():
    # The blocks are read off the component text; the fixture files are a
    # second transcription of the same tables, tied to it by their headers.
    fixdir = resources.files("davn") / "fixtures"
    for label in TABLE_LABELS:
        text = (fixdir / f"table_{label}.txt").read_text(encoding="utf-8")
        outcomes = re.findall(r"^# block \d+ outcome=([0-3]{4})$", text, re.M)
        assert [tuple(map(int, o)) for o in outcomes] == list(TABLE_BLOCKS[label])


def fixture_rows():
    rows = []
    fixdir = resources.files("davn") / "fixtures"
    for label in TABLE_LABELS:
        rows += parse_fixture_text(
            (fixdir / f"table_{label}.txt").read_text(encoding="utf-8"), label
        )
    return rows, fixdir


def test_fixture_round_trip():
    rows, _ = fixture_rows()
    assert len(rows) == 336
    for row in rows:
        line = render_fixture_row(row)
        reparsed = parse_fixture_text(
            f"# block 1 outcome={''.join(map(str, row.block_outcome))}\n{line}",
            row.table,
        )[0]
        assert reparsed.pair == row.pair
        assert reparsed.residual == row.residual
        assert reparsed.basic == row.basic
        assert reparsed.extended == row.extended


def test_table_fields_may_have_spaces_around_the_equals_sign():
    # Table files read their fields by the allowlist's rule: key and value
    # are stripped.
    rows, _ = fixture_rows()
    spaced = parse_fixture_text(
        "# block 1 outcome=0000\n"
        "table = I | pair = Z1=1,Z2=1 | residual = 00:0;13:1;22:2;31:3"
        " | basic = 1,3:-i | extended = 2,2:-1",
        "I",
    )[0]
    assert spaced.pair == rows[0].pair
    assert spaced.residual == rows[0].residual
    assert (spaced.basic, spaced.extended) == (rows[0].basic, rows[0].extended)


#: Row 1 of table I, for parses of edited copies.
TABLE_I_ROW = (
    "table=I | pair=Z1=1,Z2=1 | residual=00:0;13:1;22:2;31:3"
    " | basic=1,3:-i | extended=2,2:-1"
)


@pytest.mark.parametrize(
    "old,new",
    [
        ("pair=Z1=1,Z2=1", "pair=Z1=1,Z2=2"),
        ("pair=Z1=1,Z2=1", "pair=Z1=1,Z1=-1"),
        ("residual=00:0;", "residual=00:4;"),
        ("residual=00:0;", "residual=00:0;00:2;"),
        ("basic=1,3:-i", "basic=4,3:-i"),
        ("extended=2,2:-1", "extended=2,2:2"),
    ],
)
def test_a_repeated_bad_value_is_rejected_on_each_line(old, new):
    # Value parses are memoized, but a failed one is not kept: the same
    # bad text fails again and names the line it is on.
    bad = TABLE_I_ROW.replace(old, new)
    messages = []
    for before in ([], [TABLE_I_ROW]):
        lines = ["# block 1 outcome=0000", *before, bad, bad]
        with pytest.raises(ValueError) as raised:
            parse_fixture_text("\n".join(lines), "I")
        messages.append(str(raised.value))
    assert messages[0].startswith("bad fixture line 2 (")
    assert messages[1] == messages[0].replace("line 2 (", "line 3 (", 1)


def test_rows_parsed_from_one_text_share_no_mutable_state():
    text = f"# block 1 outcome=0000\n{TABLE_I_ROW}\n{TABLE_I_ROW}"
    first, second = parse_fixture_text(text, "I")
    expected = dict(second.residual)
    first.residual[(0, 0)] = 2
    del first.residual[(1, 3)]
    first.pair.m_i = 3
    assert second.residual == expected
    assert second.pair == PairSelection(0, 1, 0, 0)
    again = parse_fixture_text(text, "I")[0]
    assert again.residual == expected
    assert again.pair == PairSelection(0, 1, 0, 0)


def test_verify_reference_row_matches_on_good_row():
    rows, _ = fixture_rows()
    verdict = verify_reference_row(PSI, rows[0])
    assert verdict.failed == {}
    assert verdict.reasons == ()


def test_verify_reference_row_flags_flipped_target():
    rows, _ = fixture_rows()
    row = rows[0]
    assert row.basic is not None
    (word, t) = row.basic
    tampered = FixtureRow(
        row.table, row.index, row.block_outcome, row.pair,
        row.residual, (word, (t + 2) % 4), row.extended,
    )
    verdict = verify_reference_row(PSI, tampered)
    assert list(verdict.failed) == ["derivation"]
    assert any(
        "eigenvalue differs" in reason for reason in verdict.failed["derivation"]
    )


def test_verify_reference_row_flags_wrong_residual():
    rows, _ = fixture_rows()
    row = rows[0]
    tampered_residual = dict(row.residual)
    ket = next(iter(tampered_residual))
    tampered_residual[ket] = (tampered_residual[ket] + 2) % 4
    tampered = FixtureRow(
        row.table, row.index, row.block_outcome, row.pair,
        tampered_residual, row.basic, row.extended,
    )
    verdict = verify_reference_row(PSI, tampered)
    assert verdict.failed == {
        "derivation": ("residual differs beyond a global phase",)
    }


def test_verify_reference_row_flags_an_empty_selection():
    # Every pair selection of PSI is nonempty, so the row is checked
    # against PSI without the kets its selection picks out.
    rows, _ = fixture_rows()
    row = rows[0]
    pair = row.pair
    state = StateVector(4, {
        ket: t
        for ket, t in PSI.phases.items()
        if (ket[pair.site_i], ket[pair.site_j]) != (pair.m_i, pair.m_j)
    })
    verdict = verify_reference_row(state, row)
    assert verdict.failed == {"derivation": ("selection has empty projection",)}


def test_verify_reference_row_flags_a_missing_constraint():
    rows, _ = fixture_rows()
    row = rows[0]
    assert row.basic is not None
    tampered = FixtureRow(
        row.table, row.index, row.block_outcome, row.pair,
        row.residual, None, row.extended,
    )
    verdict = verify_reference_row(PSI, tampered)
    assert verdict.failed == {
        "derivation": ("reference row lists no constraint but eigenwords exist",)
    }


def test_row_failing_both_kinds_keeps_the_reasons_of_each():
    # Table IV-A row 24 prints a Z3 outcome its block does not have, and
    # its content matches the block's selection, not the printed one.
    rows, fixdir = fixture_rows()
    (row,) = [r for r in rows if (r.table, r.index) == ("IV-A", 24)]
    verdict = verify_reference_row(PSI, row)
    assert sorted(verdict.failed) == sorted(ALLOWLIST_KINDS)
    assert verdict.reasons == (
        *verdict.failed["block-pair"], *verdict.failed["derivation"]
    )
    assert "disagrees with block outcome 2110" in verdict.reasons[0]
    allowlist_text = (fixdir / "allowlist.txt").read_text(encoding="utf-8")
    allowlist = [
        entry
        for entry in parse_allowlist(allowlist_text)
        if (entry.table, entry.index) == ("IV-A", 24)
    ]
    report = diff_fixture_rows(PSI, [row], allowlist)
    assert report.ok and report.matched_rows == 0
    assert [entry.kind for _, entry in report.allowlisted] == [
        "derivation", "block-pair",
    ]


def test_fixture_diff_is_clean_with_allowlist():
    rows, fixdir = fixture_rows()
    allowlist = parse_allowlist((fixdir / "allowlist.txt").read_text(encoding="utf-8"))
    report = diff_fixture_rows(PSI, rows, allowlist)
    assert report.ok
    assert report.total_rows == 336
    assert report.matched_rows == 330
    assert len(report.allowlisted) == len(allowlist) == 9
    assert report.unused_allowlist == []
    # Every allowlist entry carries a documented open-question tag.
    assert all(entry.tag.startswith("REF-") for entry in allowlist)


def test_fixture_completeness_of_reference_constraints():
    # Every non-allowlisted reference basic/extended constraint appears
    # among the derived eigenwords of its row.
    rows, fixdir = fixture_rows()
    allowlist = parse_allowlist((fixdir / "allowlist.txt").read_text(encoding="utf-8"))
    skip = {(e.table, e.index) for e in allowlist if e.kind == "derivation"}
    for row in rows:
        if (row.table, row.index) in skip:
            continue
        residual = postselect_pair(PSI, row.pair)
        eigenwords, _, extended = derive_constraints(residual)
        if row.basic is None:
            assert eigenwords == ()
        else:
            assert row.basic in eigenwords
            assert row.extended == extended


def test_unused_allowlist_entry_fails_the_diff():
    from davn.fixtures import AllowlistEntry

    rows, fixdir = fixture_rows()
    allowlist = parse_allowlist((fixdir / "allowlist.txt").read_text(encoding="utf-8"))
    allowlist.append(AllowlistEntry("I", 1, "derivation", "REF-NONE", "stale"))
    report = diff_fixture_rows(PSI, rows, allowlist)
    assert not report.ok
    assert len(report.unused_allowlist) == 1
