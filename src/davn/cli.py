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
failed, 2 usage or input error.  ``COMMANDS`` declares every option; a
well-formed command line is parsed without argparse, which is imported
only for help, usage errors and unusual syntax.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import SimpleNamespace

from .factory import (
    STATE_NAMES, TABLE_ALIASES, TABLE_BLOCKS, TABLE_LABELS, build_state,
    canonical_table_label,
)
from .states import BasisKet

# Type checkers take any TYPE_CHECKING as true; run time skips the block.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

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


def cmd_verify_state(args: argparse.Namespace | SimpleNamespace) -> int:
    name = args.state
    _load("run_state_checks", "reports")
    _, checks = run_state_checks(name)
    if args.format == "json":
        _emit(reports.checks_json(name, checks), args.output)
    else:
        _emit(reports.render_checks_text(name, checks), args.output)
    return 0 if all(c.passed for c in checks) else 1


def cmd_tables(args: argparse.Namespace | SimpleNamespace) -> int:
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


def cmd_paradox(args: argparse.Namespace | SimpleNamespace) -> int:
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


def cmd_davn(args: argparse.Namespace | SimpleNamespace) -> int:
    state = build_state(args.state)
    _load("verify_davn", "reports")
    report = verify_davn(state)
    if args.format == "json":
        _emit(reports.davn_json(report), args.output)
    else:
        _emit(reports.render_davn_text(report), args.output)
    return 0 if report.verdict == "DAVN" else 1


def cmd_sample(args: argparse.Namespace | SimpleNamespace) -> int:
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


def cmd_fixtures_diff(args: argparse.Namespace | SimpleNamespace) -> int:
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


#: The options every command takes after its own.
_COMMON = (
    (("--format",), {
        "choices": ("text", "markdown", "md", "json"), "default": "text",
        "help": "output format (markdown falls back to text where a "
        "table layout does not apply)",
    }),
    (("-o", "--output"), {"metavar": "PATH", "help": "write the report here"}),
)
_ANY_STATE = (("--state",), {"choices": STATE_NAMES, "default": "psi1234"})
_DAVN_STATE = (("--state",), {"choices": ("psi1234", "psi4-embedded"),
                              "default": "psi1234"})

#: Each command's help line, handler and options, in ``--help`` order.
#: An option is the ``(flags, keywords)`` of its ``add_argument`` call,
#: long flag last; this is the only place an option is declared.
COMMANDS = {
    "verify-state": ("run a state's exact check suite", cmd_verify_state,
                     [_ANY_STATE]),
    "tables": ("regenerate a condition table", cmd_tables, [
        (("--table",), {"required": True, "metavar": "LABEL", "help":
         "one of: " + ", ".join([*TABLE_LABELS, *sorted(TABLE_ALIASES)])}),
    ]),
    "paradox": ("refute the LHV model for one outcome", cmd_paradox, [
        (("--outcome",), {"required": True, "metavar": "K1,K2,K3,K4", "help":
         "Z outcomes as phase exponents, e.g. 0,2,3,3 for 1,-1,-i,-i"}),
        _DAVN_STATE,
    ]),
    "davn": ("refute the LHV model on the whole support", cmd_davn,
             [_DAVN_STATE]),
    "sample": ("seeded draw from the exact distribution", cmd_sample, [
        (("--runs",), {"type": int, "required": True}),
        (("--seed",), {"type": int, "required": True}),
        _ANY_STATE,
    ]),
    "fixtures-diff": ("diff reference tables against the derivation",
                      cmd_fixtures_diff, [
        (("--dir",), {"metavar": "PATH", "default": None, "help":
         "fixture directory (default: the packaged tables)"}),
    ]),
}


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
    for name, (help_line, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flags, keywords in (*options, *_COMMON):
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """Parse ``COMMAND FLAG VALUE ...``, each flag declared exactly and no
    value starting with ``-``, as ``build_parser`` would; return None for
    anything else (help, ``--flag=value``, abbreviations, missing options,
    bad values), which argparse, the one formatter of errors, then parses.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, func, options = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    by_flag, required = {}, set()
    for flags, keywords in (*options, *_COMMON):
        dest = flags[-1][2:]
        values[dest] = keywords.get("default")
        by_flag.update(dict.fromkeys(flags, (dest, keywords)))
        if keywords.get("required"):
            required.add(dest)
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in by_flag or value.startswith("-"):
            return None
        dest, keywords = by_flag[flag]
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
        required.discard(dest)
    return None if required else SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
