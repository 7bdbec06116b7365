"""Acceptance suite: one test per release criterion, all tolerances exact
unless a criterion states otherwise (sampling bounds, wall-clock budget).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations, product

from davn.checks import (
    check_global_stabilizer,
    commutation_phase_audit,
    nonstabilizer_test,
    reduced_density,
)
from davn.factory import (
    TABLE_LABELS,
    build_psi4_qubit,
    build_psi_1234,
    embed_qubit_state,
    joint_z_probability,
)
from davn.fixtures import diff_fixture_rows, parse_allowlist, parse_fixture_text
from davn.lhv import (
    Constraint,
    minimal_unsat_core,
    satisfiable,
    verify_davn,
    verify_paradox,
)
from davn.sampling import sample_outcomes
from reference import PauliWord, apply_to_state

PSI = build_psi_1234()


def _passed(number: int, name: str) -> None:
    print(f"\ncriterion {number:2d} [{name}]: PASS", end="")


def test_criterion_01_state_exactness():
    assert len(PSI.phases) == 56
    assert PSI.norm_sq == 56
    assert all(sum(ket) % 4 == 0 for ket in PSI.phases)
    _passed(1, "56 components, norm_sq 56, digit sums 0 mod 4")


def test_criterion_02_stabilizer_identity():
    zword = PauliWord.from_exponents(4, z_exps={j: 1 for j in range(4)})
    image = apply_to_state(zword, PSI)
    assert image == PSI
    assert check_global_stabilizer(PSI).stabilized
    _passed(2, "Z1*Z2*Z3*Z4 fixes the state amplitude-for-amplitude")


def test_criterion_03_nonstabilizer_diagnosis():
    rho1 = reduced_density(PSI, 0)
    assert tuple(Fraction(*entry) for entry in rho1.diagonal()) == (
        Fraction(2, 7), Fraction(3, 14), Fraction(2, 7), Fraction(3, 14),
    )
    others = []
    for site in (1, 2, 3):
        rho = reduced_density(PSI, site)
        assert rho.is_hermitian() and Fraction(*rho.trace()) == 1
        others.append(
            f"site {site + 1}: "
            + ", ".join(str(Fraction(*entry)) for entry in rho.diagonal())
        )
    assert nonstabilizer_test(PSI).is_nonstabilizer
    print("\n  " + "\n  ".join(others), end="")
    _passed(3, "site-1 density diag(2/7,3/14,2/7,3/14); sites 2-4 reported")


def test_criterion_04_distribution():
    support = PSI.support()
    assert len(support) == 56
    assert all(
        joint_z_probability(PSI, ket) == (1, 56) for ket in support
    )
    assert sum(
        (Fraction(*joint_z_probability(PSI, k)) for k in support), Fraction(0)
    ) == 1
    missing = [
        ket
        for ket in product(range(4), repeat=4)
        if sum(ket) % 4 == 0 and ket not in set(support)
    ]
    assert len(missing) == 8
    assert set(missing) == {
        (1, 1, 1, 1), (3, 3, 3, 3),
        (1, 1, 3, 3), (1, 3, 1, 3), (1, 3, 3, 1),
        (3, 3, 1, 1), (3, 1, 3, 1), (3, 1, 1, 3),
    }
    assert all(joint_z_probability(PSI, ket) == (0, 56) for ket in missing)
    _passed(4, "56 outcomes at exactly 1/56; the 8 product-1 leftovers at 0")


def test_criterion_05_table_reproduction():
    fixdir = resources.files("davn") / "fixtures"
    rows = []
    for label in TABLE_LABELS:
        rows += parse_fixture_text(
            (fixdir / f"table_{label}.txt").read_text(encoding="utf-8"), label
        )
    allow_text = (fixdir / "allowlist.txt").read_text(encoding="utf-8")
    allowlist = parse_allowlist(allow_text)
    report = diff_fixture_rows(PSI, rows, allowlist)
    assert report.ok, [v.reasons for v in report.failures]
    allowlisted_rows = {
        (verdict.row.table, verdict.row.index)
        for verdict, _ in report.allowlisted
    }
    # 100% of non-allowlisted rows match the derivation.
    assert report.matched_rows == report.total_rows - len(allowlisted_rows)
    # Every allowlist entry carries a tag documented in the file header.
    documented = set(re.findall(r"^# \[([A-Z0-9-]+)\]", allow_text, re.M))
    assert all(entry.tag in documented for entry in allowlist)
    print(
        f"\n  {report.total_rows} rows, {report.matched_rows} matched, "
        f"{len(allowlisted_rows)} known discrepancies", end="",
    )
    _passed(5, "all ten reference tables reproduced modulo the allowlist")


def test_criterion_06_all_56_paradoxes_within_a_second():
    start = time.perf_counter()
    report = verify_davn(PSI)
    elapsed = time.perf_counter() - start
    assert report.support_size == 56
    assert all(not r.satisfiable for r in report.reports)
    assert report.verdict == "DAVN"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\n  56/56 refuted in {elapsed * 1000:.0f} ms", end="")
    _passed(6, "every supported outcome is LHV-unsatisfiable")


def test_criterion_07_type_census():
    report = verify_davn(PSI)
    assert report.type_counts == {
        "I": 2, "II": 6, "III": 12, "IV": 12, "V": 12, "VI": 12,
    }
    _passed(7, "type census 2/6/12/12/12/12")


def test_criterion_08_hand_argument_reproduction():
    # (a) type I: the first three basic constraints alone are an unsat
    # core; even-power products take values in {+1,-1} while the targets
    # multiply to i.
    report = verify_paradox(PSI, (0, 0, 0, 0))
    first_three = list(report.constraints_basic[:3])
    assert first_three == [
        Constraint((0, 0, 1, 3), 3),
        Constraint((0, 1, 0, 3), 3),
        Constraint((0, 1, 3, 0), 3),
    ]
    assert satisfiable(first_three) is None
    for size in (1, 2):
        for subset in combinations(first_three, size):
            assert satisfiable(list(subset)) is not None
    assert list(report.minimal_core) == first_three

    # (b) type II outcome (0,0,2,2): squared first row plus two even
    # basics form a 3-core.
    report_b = verify_paradox(PSI, (0, 0, 2, 2))
    core_b = [
        Constraint((0, 0, 2, 2), 2),  # square of X3*X4^3 = -i
        Constraint((0, 2, 0, 2), 0),
        Constraint((0, 2, 2, 0), 0),
    ]
    assert core_b[0] in report_b.constraints_extended
    assert core_b[1] in report_b.constraints_basic
    assert core_b[2] in report_b.constraints_basic
    assert satisfiable(core_b) is None
    for size in (1, 2):
        for subset in combinations(core_b, size):
            assert satisfiable(list(subset)) is not None

    # (c) type III second family, outcome (3,0,2,3): its four derived
    # constraints are jointly unsatisfiable and minimally so.
    report_c = verify_paradox(PSI, (3, 0, 2, 3))
    four = list(report_c.constraints_basic)
    assert len(four) == 4
    assert satisfiable(four) is None
    for subset in combinations(four, 3):
        assert satisfiable(list(subset)) is not None
    assert list(minimal_unsat_core(four)) == four
    _passed(8, "three hand-worked contradiction arguments reproduced")


def test_criterion_09_qubit_seed_state():
    qubit = build_psi4_qubit()
    assert qubit.norm_sq == 7
    assert tuple(Fraction(*entry) for entry in reduced_density(qubit, 0).diagonal()) == (
        Fraction(4, 7), Fraction(3, 7),
    )
    assert nonstabilizer_test(qubit).is_nonstabilizer
    embedded = embed_qubit_state(qubit, 1)
    assert embedded.norm_sq == 7
    for ket, t in qubit.phases.items():
        image = tuple(1 if k else 0 for k in ket)
        assert embedded.phases[image] == t
    assert commutation_phase_audit(2) == -1
    assert commutation_phase_audit(6) == -1
    assert commutation_phase_audit(4) == 1
    _passed(9, "seed state norm 7, diag(4/7,3/7); embedding and audit")


def test_criterion_10_sampling_sanity():
    summary = sample_outcomes(PSI, 56000, 42)
    support = set(PSI.support())
    assert set(summary.counts) == support
    for ket, count in summary.counts.items():
        assert abs(count - 1000) <= 160, (ket, count)
    for ket in product(range(4), repeat=4):
        if ket not in support:
            assert summary.counts.get(ket, 0) == 0
    print(
        f"\n  max |count-1000| = "
        f"{max(abs(c - 1000) for c in summary.counts.values())}", end="",
    )
    _passed(10, "seed 42, 56000 runs: all counts within 1000 +- 160")


def test_criterion_11_byte_identical_reports():
    command = [sys.executable, "-m", "davn.cli", "davn", "--format", "json"]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(command, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    _passed(11, "two davn report invocations are byte-identical")
