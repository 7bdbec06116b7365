"""``davn paradox``: refute the LHV model for one measurement outcome."""

from __future__ import annotations

from .. import cli

TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..states import BasisKet


def _parse_outcome(text: str, n_sites: int) -> BasisKet:
    parts = [p.strip() for p in text.split(",")]
    # isdigit alone admits non-ASCII digits (Arabic-Indic, superscripts).
    if len(parts) != n_sites or not all(
        p.isascii() and p.isdigit() for p in parts
    ):
        raise ValueError(
            f"outcome must be {n_sites} comma-separated digits, e.g. 0,2,3,3"
        )
    outcome = tuple(map(int, parts))
    if max(outcome) > 3:  # the digits are ASCII, so no exponent is negative
        raise ValueError("outcome exponents must be in 0..3 (i^k per site)")
    return outcome


def run(*, outcome: str, state: str, format: str) -> tuple[str, int]:
    vector = cli.build_state(state)
    ket = _parse_outcome(outcome, vector.n_sites)
    if ket not in vector.phases:
        raise ValueError(
            f"outcome {outcome} has probability 0; only the "
            f"{len(vector.phases)} supported outcomes admit a paradox"
        )
    report = cli.verify_paradox(vector, ket)
    if format == "json":
        payload = cli.reports.paradox_json(report, include_rows=True)
        payload = {"schema": "davn.paradox/1", "state": state, **payload}
        text = cli.reports.to_json(payload)
    else:
        from ..text import render_paradox_text

        text = render_paradox_text(report)
    return text, 0 if report.is_paradox else 1
