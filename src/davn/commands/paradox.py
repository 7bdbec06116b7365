"""``davn paradox``: refute the LHV model for one measurement outcome."""

from __future__ import annotations

from types import SimpleNamespace

from .. import cli

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

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


def run(args: argparse.Namespace | SimpleNamespace) -> int:
    state = cli.build_state(args.state)
    outcome = _parse_outcome(args.outcome, state.n_sites)
    if outcome not in state.phases:
        raise ValueError(
            f"outcome {args.outcome} has probability 0; only the "
            f"{len(state.phases)} supported outcomes admit a paradox"
        )
    report = cli.verify_paradox(state, outcome)
    if args.format == "json":
        payload = cli.reports.paradox_json(report, include_rows=True)
        payload = {"schema": "davn.paradox/1", "state": args.state, **payload}
        cli._emit(cli.reports.to_json(payload), args.output)
    else:
        from ..text import render_paradox_text

        cli._emit(render_paradox_text(report), args.output)
    return 0 if report.is_paradox else 1
