"""Command-line front end.

Commands:

* ``verify-state``  - run the exact check suite of a built-in state
* ``tables``        - regenerate a condition table from the state
* ``paradox``       - refute the LHV model for one measurement outcome
* ``davn``          - refute it for every supported outcome
* ``sample``        - seeded empirical draw from the joint-Z distribution
* ``fixtures-diff`` - diff the transcribed reference tables against the
  derivation, honouring the discrepancy allowlist

Exit codes are a stable contract: 0 all checks pass, 1 a verification
failed, 2 usage or input error.
"""

from __future__ import annotations

import sys
from importlib import import_module

from .factory import (
    STATE_NAMES, TABLE_ALIASES, TABLE_BLOCKS, TABLE_LABELS, build_state,
    canonical_table_label,
)
from .states import BasisKet

#: Home module of each name a command imports on first use, so that a
#: command loads only the modules it runs.  ``reports`` is the module.
_LAZY = {
    "reports": "reports",
    "run_state_checks": "checks",
    "verify_davn": "lhv",
    "verify_paradox": "lhv",
    "table_for_outcome": "postselect",
    "check_table_shape": "fixtures",
    "diff_fixture_rows": "fixtures",
    "parse_allowlist": "fixtures",
    "parse_fixture_text": "fixtures",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __package__)
    # ``_load`` calls this for bound names too: whatever is bound (a
    # wrapper installed by a tracer, say) stays.
    return globals().setdefault(
        name, module if name == home else getattr(module, name)
    )


def _load(*names: str) -> None:
    """Bind each name of ``_LAZY`` that is not yet a global of this
    module; the commands then call it through the global."""
    for name in names:
        __getattr__(name)


def _emit(text: str, output: str | None) -> None:
    if output:
        from pathlib import Path

        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_outcome(text: str, n_sites: int) -> BasisKet:
    parts = [p.strip() for p in text.split(",")]
    # isdigit alone admits non-ASCII digits (Arabic-Indic, superscripts).
    if len(parts) != n_sites or not all(
        p.isascii() and p.isdigit() for p in parts
    ):
        raise ValueError(
            f"outcome must be {n_sites} comma-separated digits, e.g. 0,2,3,3"
        )
    outcome = tuple(int(p) for p in parts)
    if any(not 0 <= k <= 3 for k in outcome):
        raise ValueError("outcome exponents must be in 0..3 (i^k per site)")
    return outcome


def cmd_verify_state(args: argparse.Namespace) -> int:
    name = args.state
    _load("run_state_checks", "reports")
    _, checks = run_state_checks(name)
    if args.format == "json":
        _emit(reports.checks_json(name, checks), args.output)
    else:
        _emit(reports.render_checks_text(name, checks), args.output)
    return 0 if all(c.passed for c in checks) else 1


def cmd_tables(args: argparse.Namespace) -> int:
    label = canonical_table_label(args.table)
    _load("table_for_outcome", "reports")
    state = build_state("psi1234")
    blocks = [
        (outcome, table_for_outcome(state, outcome))
        for outcome in TABLE_BLOCKS[label]
    ]
    if args.format == "json":
        text = reports.render_table_json(label, blocks)
    elif args.format in ("markdown", "md"):
        text = reports.render_table_markdown(label, blocks)
    else:
        text = reports.render_table_text(label, blocks)
    _emit(text, args.output)
    return 0


def cmd_paradox(args: argparse.Namespace) -> int:
    state = build_state(args.state)
    outcome = _parse_outcome(args.outcome, state.n_sites)
    if outcome not in state.phases:
        raise ValueError(
            f"outcome {args.outcome} has probability 0; only the "
            f"{len(state.phases)} supported outcomes admit a paradox"
        )
    _load("verify_paradox", "reports")
    report = verify_paradox(state, outcome)
    if args.format == "json":
        payload = reports.paradox_json(report, include_rows=True)
        payload = {"schema": "davn.paradox/1", "state": args.state, **payload}
        _emit(reports.to_json(payload), args.output)
    else:
        _emit(reports.render_paradox_text(report), args.output)
    return 0 if report.is_paradox else 1


def cmd_davn(args: argparse.Namespace) -> int:
    state = build_state(args.state)
    _load("verify_davn", "reports")
    report = verify_davn(state)
    if args.format == "json":
        _emit(reports.davn_json(report), args.output)
    else:
        _emit(reports.render_davn_text(report), args.output)
    return 0 if report.verdict == "DAVN" else 1


def cmd_sample(args: argparse.Namespace) -> int:
    from .sampling import sample_outcomes

    state = build_state(args.state)
    summary = sample_outcomes(state, args.runs, args.seed)
    _load("reports")
    if args.format == "json":
        _emit(reports.sample_json(args.state, summary), args.output)
    else:
        _emit(reports.render_sample_text(args.state, summary), args.output)
    return 0


def _fixture_dir(path: str | None):
    from importlib import resources
    from pathlib import Path

    if path is not None:
        return Path(path)
    return resources.files("davn") / "fixtures"


def cmd_fixtures_diff(args: argparse.Namespace) -> int:
    _load("parse_fixture_text", "check_table_shape", "parse_allowlist",
          "diff_fixture_rows", "reports")
    fixdir = _fixture_dir(args.dir)
    state = build_state("psi1234")
    rows = []
    for label in TABLE_LABELS:
        resource = fixdir / f"table_{label}.txt"
        try:
            table = parse_fixture_text(resource.read_text(encoding="utf-8"), label)
            check_table_shape(table, label)
        except FileNotFoundError as exc:
            raise ValueError(f"missing fixture table {label}: {exc}") from exc
        except (ValueError, OSError) as exc:
            raise ValueError(f"{resource.name}: {exc}") from exc
        rows += table
    resource = fixdir / "allowlist.txt"
    try:
        # A missing allowlist excuses nothing; an unreadable or
        # undecodable one is an input error that names the file.
        try:
            allowlist_text = resource.read_text(encoding="utf-8")
        except FileNotFoundError:
            allowlist_text = ""
        report = diff_fixture_rows(state, rows, parse_allowlist(allowlist_text))
    except (ValueError, OSError) as exc:
        raise ValueError(f"{resource.name}: {exc}") from exc
    if args.format == "json":
        _emit(reports.diff_json(report), args.output)
    else:
        _emit(reports.render_diff_text(report), args.output)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="davn",
        description=(
            "Exact verification of a four-ququart deterministic "
            "all-versus-nothing Bell-nonlocality argument."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "markdown", "md", "json"),
            default="text",
            help="output format (markdown falls back to text where a "
            "table layout does not apply)",
        )
        p.add_argument(
            "-o", "--output", metavar="PATH", help="write the report here"
        )

    p = sub.add_parser("verify-state", help="run a state's exact check suite")
    p.add_argument("--state", choices=STATE_NAMES, default="psi1234")
    add_common(p)
    p.set_defaults(func=cmd_verify_state)

    p = sub.add_parser("tables", help="regenerate a condition table")
    labels = ", ".join(list(TABLE_LABELS) + sorted(TABLE_ALIASES))
    p.add_argument(
        "--table", required=True, metavar="LABEL",
        help=f"one of: {labels}",
    )
    add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("paradox", help="refute the LHV model for one outcome")
    p.add_argument(
        "--outcome", required=True, metavar="K1,K2,K3,K4",
        help="Z outcomes as phase exponents, e.g. 0,2,3,3 for 1,-1,-i,-i",
    )
    p.add_argument(
        "--state", choices=("psi1234", "psi4-embedded"), default="psi1234"
    )
    add_common(p)
    p.set_defaults(func=cmd_paradox)

    p = sub.add_parser("davn", help="refute the LHV model on the whole support")
    p.add_argument(
        "--state", choices=("psi1234", "psi4-embedded"), default="psi1234"
    )
    add_common(p)
    p.set_defaults(func=cmd_davn)

    p = sub.add_parser("sample", help="seeded draw from the exact distribution")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--state", choices=STATE_NAMES, default="psi1234")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "fixtures-diff", help="diff reference tables against the derivation"
    )
    p.add_argument(
        "--dir", metavar="PATH", default=None,
        help="fixture directory (default: the packaged tables)",
    )
    add_common(p)
    p.set_defaults(func=cmd_fixtures_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
