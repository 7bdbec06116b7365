"""Command-line front end.

Commands, each a ``run`` of its module in ``davn.commands`` that takes
the command's options as keywords and returns its report and exit code:

* ``verify-state``  - run the exact check suite of a built-in state
* ``tables``        - regenerate a condition table from the state
* ``paradox``       - refute the LHV model for one measurement outcome
* ``davn``          - refute it for every supported outcome
* ``sample``        - seeded empirical draw from the joint-Z distribution
* ``fixtures-diff`` - diff the transcribed reference tables against the
  derivation, honouring the discrepancy allowlist

Exit codes are a stable contract: 0 all checks pass, 1 a verification
failed, 2 usage or input error.  ``COMMANDS`` declares every option; a
well-formed command line is parsed without argparse, which
``davn.usage`` imports only for help, usage errors and unusual syntax.
``main`` is the in-process API and the one writer of reports: it
parses, imports the module of the parsed command alone (so a command
compiles no other command's code), writes what its ``run`` returns to
stdout or a non-empty ``-o`` and returns the exit code, also for help
and usage errors.  A report or help text that stdout refuses at the
write or its flush (full or with no reader, or closed for a report)
exits 2.  A ``davn`` process enters through ``run``, which ends it by
``os._exit`` after the atexit handlers, so no module teardown runs.
"""

from __future__ import annotations

import sys
from importlib import import_module

from .factory import STATE_NAMES, TABLE_ALIASES, TABLE_LABELS, build_state

# Type checkers take any TYPE_CHECKING as true; run time skips the block.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

#: Home module of each name a command imports on first use, so that a
#: command loads only the modules it runs.  ``reports`` is the module;
#: each command imports its text renderer from ``text`` in its non-JSON
#: branch, so a JSON report compiles none of them.  The commands call
#: these names and ``build_state`` as attributes of this module, where a
#: tracer can replace them.
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
    return globals().setdefault(
        name, module if name == home else getattr(module, name)
    )


def _emit(text: str, output: str | None) -> None:
    if output is not None:
        from pathlib import Path

        Path(output).write_text(text, encoding="utf-8")
    elif sys.stdout is None:
        raise OSError("standard output is closed; name a file with -o")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


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

#: Each command's help line and options, in ``--help`` order; command
#: ``a-b`` runs in module ``davn.commands.a_b``.  An option is the
#: ``(flags, keywords)`` of its ``add_argument`` call, long flag last;
#: this is the only place an option is declared.
COMMANDS = {
    "verify-state": ("run a state's exact check suite", [_ANY_STATE]),
    "tables": ("regenerate a condition table", [
        (("--table",), {"required": True, "metavar": "LABEL", "help":
         "one of: " + ", ".join([*TABLE_LABELS, *sorted(TABLE_ALIASES)])}),
    ]),
    "paradox": ("refute the LHV model for one outcome", [
        (("--outcome",), {"required": True, "metavar": "K1,K2,K3,K4", "help":
         "Z outcomes as phase exponents, e.g. 0,2,3,3 for 1,-1,-i,-i"}),
        _DAVN_STATE,
    ]),
    "davn": ("refute the LHV model on the whole support", [_DAVN_STATE]),
    "sample": ("seeded draw from the exact distribution", [
        (("--runs",), {"type": int, "required": True}),
        (("--seed",), {"type": int, "required": True}),
        _ANY_STATE,
    ]),
    "fixtures-diff": ("diff reference tables against the derivation", [
        (("--dir",), {"metavar": "PATH", "default": None, "help":
         "fixture directory (default: the packaged tables)"}),
    ]),
}


def _parse_plain(argv: list[str]) -> dict[str, object] | None:
    """Parse ``COMMAND FLAG VALUE ...``, each flag declared exactly and no
    value starting with ``-``, to the dict that ``usage.build_parser``
    would give; return None for anything else (help, ``--flag=value``,
    abbreviations, missing options, bad values), which argparse, the one
    formatter of errors, then parses.
    """
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    _, options = COMMANDS[argv[0]]
    values = {"command": argv[0]}
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
    return None if required else values


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        options = _parse_plain(argv)
        if options is None:
            from .usage import build_parser

            try:
                options = vars(build_parser().parse_args(argv))
            except SystemExit as exc:  # help (0) or a usage error (2)
                return exc.code
        command = options.pop("command").replace("-", "_")
        output = options.pop("output")
        if output == "":
            raise ValueError("-o names no file")
        if options.get("dir") == "":
            raise ValueError("--dir names no directory")
        module = import_module(f".commands.{command}", __package__)
        text, code = module.run(**options)
        _emit(text, output)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """End the process with ``main()``'s code on ``sys.argv``, by
    ``os._exit`` after the atexit handlers: the one way out of
    ``python -m davn``, ``python -m davn.cli`` and the console script."""
    import atexit
    import os

    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass
    os._exit(code)


if __name__ == "__main__":
    # Also davn.cli, so the command modules do not compile this file again.
    sys.modules["davn"].cli = sys.modules["davn.cli"] = sys.modules[__name__]
    run()
