"""One module per ``davn`` command, each with ``run(args) -> int``.

``cli.main`` imports the module of the parsed command alone.  A command
calls ``build_state``, the engine and ``reports`` through ``davn.cli``'s
names (``cli.verify_davn``, ``cli.reports``), never by importing them:
``davn.cli`` imports each engine module on first use, and a tracer
replaces those names there; the factory's tables and labels it imports
directly.  ``argparse`` is imported for type checkers only, which take
``TYPE_CHECKING`` as true; run time skips the block.
"""
