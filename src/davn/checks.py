"""Verification suites for the built-in states.

Each suite is a list of named exact checks (no tolerances anywhere); the
CLI renders them and fails on the first false one.  The expected values
asserted here are the package's ground truths: norms, the reduced-density
diagonals, the digit-sum rule, and the support census.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .factory import (
    build_psi4_qubit,
    build_psi_1234,
    check_global_stabilizer,
    commutation_phase_audit,
    embed_qubit_state,
    joint_z_probability,
    nonstabilizer_test,
    z_support,
    z_word_fixes,
)
from .states import StateVector

STATE_NAMES = ("psi1234", "psi4-qubit", "psi4-embedded")


def build_state(name: str) -> StateVector:
    if name == "psi1234":
        return build_psi_1234()
    if name == "psi4-qubit":
        return build_psi4_qubit()
    if name == "psi4-embedded":
        return embed_qubit_state(build_psi4_qubit(), 1)
    raise ValueError(f"unknown state {name!r}; expected one of {STATE_NAMES}")


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.name = name
        self.passed = passed
        self.detail = detail


def _density_checks(state: StateVector, expected_site1: tuple[Fraction, ...]) -> list[Check]:
    verdict = nonstabilizer_test(state)
    checks = [
        Check(
            "reduced densities hermitian with trace 1",
            all(
                rho.is_hermitian() and rho.trace() == 1
                for rho in verdict.densities
            ),
            "exact partial traces over the integer amplitudes",
        ),
        Check(
            "site-1 reduced density diagonal",
            verdict.densities[0].diagonal() == expected_site1,
            "diag(" + ", ".join(str(f) for f in expected_site1) + ")",
        ),
        Check(
            "not a stabilizer state",
            verdict.is_nonstabilizer,
            "sites deviating from maximally mixed: "
            + (
                ", ".join(str(s + 1) for s in verdict.deviating_sites)
                or "none"
            ),
        ),
    ]
    return checks


def _support_checks(state: StateVector) -> list[Check]:
    support = z_support(state)
    total = sum(
        (joint_z_probability(state, ket) for ket in support), Fraction(0)
    )
    uniform = all(
        joint_z_probability(state, ket) == Fraction(1, len(support))
        for ket in support
    )
    return [
        Check(
            "support probabilities sum to 1",
            total == 1,
            f"{len(support)} outcomes, total probability {total}",
        ),
        Check(
            "uniform support",
            uniform,
            f"each supported outcome has probability 1/{len(support)}",
        ),
    ]


def checks_psi1234(state: StateVector) -> list[Check]:
    audit = check_global_stabilizer(state)
    checks = [
        Check(
            "56 components with norm_sq 56",
            len(state.amplitudes) == 56 and state.norm_sq == 56,
            f"{len(state.amplitudes)} components, norm_sq={state.norm_sq}",
        ),
        Check(
            "digit-sum rule on the support",
            audit.digit_rule_holds,
            "each support ket is fixed by Z1*Z2*Z3*Z4 iff its digit sum "
            "is 0 mod 4; holds in both directions",
        ),
        Check(
            "Z1*Z2*Z3*Z4 fixes the state",
            audit.stabilized,
            "exact amplitude-for-amplitude equality",
        ),
    ]
    checks += _density_checks(
        state,
        (Fraction(2, 7), Fraction(3, 14), Fraction(2, 7), Fraction(3, 14)),
    )
    checks += _support_checks(state)
    # Of the 64 outcome tuples whose eigenvalue product is 1 (digit sum
    # 0 mod 4), only 56 are supported; the other 8 must have exactly
    # zero probability.
    support = set(z_support(state))
    zero_tuples = [
        ket
        for ket in product(range(4), repeat=4)
        if sum(ket) % 4 == 0 and ket not in support
    ]
    checks.append(
        Check(
            "product-1 outcomes outside the support",
            len(zero_tuples) == 8
            and all(joint_z_probability(state, k) == 0 for k in zero_tuples),
            "8 tuples with eigenvalue product 1 carry probability exactly "
            "0: " + ", ".join("".join(map(str, k)) for k in sorted(zero_tuples)),
        )
    )
    return checks


def checks_psi4_qubit(state: StateVector) -> list[Check]:
    audit = check_global_stabilizer(state)
    checks = [
        Check(
            "7 components with norm_sq 7",
            len(state.amplitudes) == 7 and state.norm_sq == 7,
            f"{len(state.amplitudes)} components, norm_sq={state.norm_sq}",
        ),
        Check(
            "qubit Z-word fixes the state",
            audit.stabilized and audit.digit_rule_holds,
            "every component has an even number of down spins",
        ),
    ]
    checks += _density_checks(state, (Fraction(4, 7), Fraction(3, 7)))
    checks += _support_checks(state)
    return checks


def checks_psi4_embedded(state: StateVector) -> list[Check]:
    audits = {d: commutation_phase_audit(d) for d in (2, 4, 6)}
    checks = [
        Check(
            "embedding preserved the seed state",
            state.norm_sq == 7 and len(state.amplitudes) == 7,
            "digit map 0 -> 0, 1 -> 1 keeps all 7 amplitudes",
        ),
        Check(
            "squared Z word fixes the state",
            z_word_fixes(state, 2),
            "Z1^2*Z2^2*Z3^2*Z4^2 plays the role the plain Z word plays "
            "for the 56-component state",
        ),
        Check(
            "half-power commutation audit",
            audits == {2: -1, 4: 1, 6: -1},
            "X^(d/2) and Z^(d/2) anticommute only when d/2 is odd: "
            + ", ".join(f"d={d}: {v:+d}" for d, v in audits.items())
            + "; at d=4 they commute, so the qubit-style sign algebra "
            "does not carry over",
        ),
    ]
    checks += _density_checks(
        state,
        (
            Fraction(4, 7),
            Fraction(3, 7),
            Fraction(0, 1),
            Fraction(0, 1),
        ),
    )
    checks += _support_checks(state)
    return checks


def run_state_checks(name: str) -> tuple[StateVector, list[Check]]:
    state = build_state(name)
    if name == "psi1234":
        return state, checks_psi1234(state)
    if name == "psi4-qubit":
        return state, checks_psi4_qubit(state)
    return state, checks_psi4_embedded(state)
