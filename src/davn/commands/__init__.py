"""One module per ``davn`` command, each with a ``run`` that takes the
command's options as keywords and returns its report text and exit code,
which ``cli.main`` writes; ``main`` imports the parsed command's module
alone.  A command calls ``build_state``, the engine and ``reports``
through ``davn.cli``'s names (``cli.verify_davn``, ``cli.reports``),
never by importing them: ``davn.cli`` imports each engine module on
first use, and a tracer replaces those names there; the factory's tables
and labels it imports directly.
"""
