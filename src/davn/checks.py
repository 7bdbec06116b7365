"""Verification suites for the built-in states, and the diagnostics
only they run.

Each suite is a list of named exact checks (no tolerances anywhere); the
CLI renders every check and exits 1 if any fails.  The expected values
asserted here are the package's ground truths: norms, the reduced-density
diagonals (whose deviation from I/d marks a nonstabilizer state), the
digit-sum rule, and the support census.  ``build_state`` is
`davn.factory`'s, imported here for `run_state_checks`.
"""

from __future__ import annotations

from itertools import product

from .factory import build_state, joint_z_probability
from .states import BasisKet, StateVector, outcome_digits, ratio_str


class DensityMatrix:
    """Exact single-site density matrix: numerators over a common denominator.

    Entry (r, c) is (re + im*i) / denominator for the int pair
    numerators[r][c] = (re, im), so Hermiticity and trace are checked by
    integer equality; the diagonal and the trace are (numerator,
    denominator) pairs.
    """

    __slots__ = ("dim", "denominator", "numerators")

    def __init__(
        self,
        dim: int,
        denominator: int,
        numerators: tuple[tuple[tuple[int, int], ...], ...],
    ) -> None:
        self.dim = dim
        self.denominator = denominator
        self.numerators = numerators

    def diagonal(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (self.numerators[k][k][0], self.denominator) for k in range(self.dim)
        )

    def trace(self) -> tuple[int, int]:
        return sum(num for num, _ in self.diagonal()), self.denominator

    def is_hermitian(self) -> bool:
        return all(
            self.numerators[c][r] == (re, -im)
            for r in range(self.dim)
            for c, (re, im) in enumerate(self.numerators[r])
        )

    def is_maximally_mixed(self) -> bool:
        """Exactly equal to identity / dim."""
        return all(
            (re * self.dim == self.denominator if r == c else re == 0) and im == 0
            for r in range(self.dim)
            for c, (re, im) in enumerate(self.numerators[r])
        )


def reduced_density(state: StateVector, site: int) -> DensityMatrix:
    """Exact partial trace onto one site (0-based index).

    Entry (r, c) sums i**(t_r - t_c) over the ket pairs that agree off
    the site and read r and c on it.  With n_e such pairs of exponent
    difference e mod 4, that is (n_0 - n_2) + (n_1 - n_3) i.
    """
    if not 0 <= site < state.n_sites:
        raise ValueError(f"site {site} out of range 0..{state.n_sites - 1}")
    d = state.level
    buckets: dict[BasisKet, dict[int, int]] = {}
    for ket, t in state.phases.items():
        rest = ket[:site] + ket[site + 1 :]
        buckets.setdefault(rest, {})[ket[site]] = t
    counts = [[[0] * 4 for _ in range(d)] for _ in range(d)]
    for row in buckets.values():
        for r, t_r in row.items():
            for c, t_c in row.items():
                counts[r][c][(t_r - t_c) % 4] += 1
    return DensityMatrix(
        d,
        state.norm_sq,
        tuple(tuple((n0 - n2, n1 - n3) for n0, n1, n2, n3 in r) for r in counts),
    )


class NonstabilizerVerdict:
    """Per-site deviation of the reduced density matrices from I/d.

    For a fully entangled state (assumed, not checked here) any deviation
    certifies that the state is not a stabilizer state.
    """

    __slots__ = ("densities", "deviating_sites")

    def __init__(
        self,
        densities: tuple[DensityMatrix, ...],
        deviating_sites: tuple[int, ...],
    ) -> None:
        self.densities = densities
        self.deviating_sites = deviating_sites

    @property
    def is_nonstabilizer(self) -> bool:
        return bool(self.deviating_sites)


def nonstabilizer_test(state: StateVector) -> NonstabilizerVerdict:
    densities = tuple(
        reduced_density(state, site) for site in range(state.n_sites)
    )
    deviating = tuple(
        site
        for site, rho in enumerate(densities)
        if not rho.is_maximally_mixed()
    )
    return NonstabilizerVerdict(densities, deviating)


class StabilizerAudit:
    """Result of applying the all-sites Z word.

    The word multiplies |k1..kn> by the phase of the digit sum, so it
    fixes the state exactly when every support ket has digit sum 0 mod d.
    `digit_rule_holds` records that each support ket is fixed exactly
    when its digit sum is 0 mod d, both ways.
    """

    __slots__ = ("stabilized", "digit_rule_holds")

    def __init__(self, stabilized: bool, digit_rule_holds: bool) -> None:
        self.stabilized = stabilized
        self.digit_rule_holds = digit_rule_holds


def z_word_fixes(state: StateVector, power: int) -> bool:
    """Does Z1**p Z2**p ... Zn**p fix the state exactly?

    Z**p sends |k> to i**(p*k) |k>, so the word multiplies each ket by the
    phase of p times its digit sum and fixes the state exactly when that
    is 0 mod 4 on every support ket.  Raises on a zero state, where the
    relation is vacuous.
    """
    if state.is_zero():
        raise ValueError("zero state has no eigenvalues")
    return all(power * sum(ket) % 4 == 0 for ket in state.phases)


def check_global_stabilizer(state: StateVector) -> StabilizerAudit:
    """Does Z1 Z2 ... Zn fix the state exactly?

    In fourth-root units Z is i**(p*k) with p = 4 // d: Z itself for
    d = 4 and the qubit diag(1, -1) for d = 2.  Raises on a zero state
    and on any other level.
    """
    d = state.level
    if d not in (2, 4):
        raise ValueError(f"Z words are defined for levels 2 and 4, not {d}")
    p = 4 // d
    digit_rule_holds = all(
        (p * sum(ket) % 4 == 0) == (sum(ket) % d == 0) for ket in state.phases
    )
    return StabilizerAudit(z_word_fixes(state, p), digit_rule_holds)


def commutation_phase_audit(d: int) -> int:
    """Sign relating X**(d/2) Z**(d/2) and Z**(d/2) X**(d/2) for even d.

    Swapping the halves multiplies by omega**((d/2)**2) with
    omega = exp(2*pi*i/d); (d/2)**2 mod d is 0 for even d/2 and d/2 for
    odd d/2, so the sign is -1 (anticommuting, qubit-like) exactly when
    d/2 is odd, and +1 otherwise.
    """
    if d % 2 or d < 2:
        raise ValueError("d must be a positive even integer")
    if d > 64:
        raise ValueError("audit supports d up to 64")
    return -1 if d // 2 % 2 else 1


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.name = name
        self.passed = passed
        self.detail = detail


def _density_checks(state: StateVector, expected_site1: tuple[int, ...]) -> list[Check]:
    """``expected_site1`` holds the site-1 diagonal's numerators over
    ``norm_sq``, the denominator of every reduced density."""
    verdict = nonstabilizer_test(state)
    n = state.norm_sq
    return [
        Check(
            "reduced densities hermitian with trace 1",
            all(r.is_hermitian() and r.trace() == (n, n) for r in verdict.densities),
            "exact partial traces over the integer amplitudes",
        ),
        Check(
            "site-1 reduced density diagonal",
            verdict.densities[0].diagonal() == tuple((k, n) for k in expected_site1),
            "diag(" + ", ".join(ratio_str(k, n) for k in expected_site1) + ")",
        ),
        Check(
            "not a stabilizer state",
            verdict.is_nonstabilizer,
            "sites deviating from maximally mixed: "
            + (", ".join(str(s + 1) for s in verdict.deviating_sites) or "none"),
        ),
    ]


def _support_checks(state: StateVector) -> list[Check]:
    support = state.support()
    n = state.norm_sq
    total = sum(joint_z_probability(state, ket)[0] for ket in support)
    uniform = all(joint_z_probability(state, k) == (1, len(support)) for k in support)
    return [
        Check(
            "support probabilities sum to 1",
            total == n,
            f"{len(support)} outcomes, total probability {ratio_str(total, n)}",
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
            len(state.phases) == 56 and state.norm_sq == 56,
            f"{len(state.phases)} components, norm_sq={state.norm_sq}",
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
    # diag(2/7, 3/14, 2/7, 3/14) over norm_sq = 56.
    checks += _density_checks(state, (16, 12, 16, 12))
    checks += _support_checks(state)
    # Of the 64 outcome tuples whose eigenvalue product is 1 (digit sum
    # 0 mod 4), only 56 are supported; the other 8 must have exactly
    # zero probability.
    zero_tuples = [ket for ket in product(range(4), repeat=4)
                   if sum(ket) % 4 == 0 and ket not in state.phases]
    checks.append(
        Check(
            "product-1 outcomes outside the support",
            len(zero_tuples) == 8
            and all(joint_z_probability(state, k)[0] == 0 for k in zero_tuples),
            "8 tuples with eigenvalue product 1 carry probability exactly "
            "0: " + ", ".join(map(outcome_digits, sorted(zero_tuples))),
        )
    )
    return checks


def checks_psi4_qubit(state: StateVector) -> list[Check]:
    audit = check_global_stabilizer(state)
    checks = [
        Check(
            "7 components with norm_sq 7",
            len(state.phases) == 7 and state.norm_sq == 7,
            f"{len(state.phases)} components, norm_sq={state.norm_sq}",
        ),
        Check(
            "qubit Z-word fixes the state",
            audit.stabilized and audit.digit_rule_holds,
            "every component has an even number of down spins",
        ),
    ]
    # diag(4/7, 3/7) over norm_sq = 7.
    checks += _density_checks(state, (4, 3))
    checks += _support_checks(state)
    return checks


def checks_psi4_embedded(state: StateVector) -> list[Check]:
    audits = {d: commutation_phase_audit(d) for d in (2, 4, 6)}
    checks = [
        Check(
            "embedding preserved the seed state",
            state.norm_sq == 7 and len(state.phases) == 7,
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
    # diag(4/7, 3/7, 0, 0) over norm_sq = 7.
    checks += _density_checks(state, (4, 3, 0, 0))
    checks += _support_checks(state)
    return checks


#: Each built-in state's check suite, by state name.
_SUITES = {"psi1234": checks_psi1234, "psi4-qubit": checks_psi4_qubit,
           "psi4-embedded": checks_psi4_embedded}


def run_state_checks(name: str) -> list[Check]:
    state = build_state(name)  # first: it rejects an unknown name
    return _SUITES[name](state)
