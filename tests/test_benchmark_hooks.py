"""The benchmark's traced mode still finds every name it wraps.

``perfbench/tracing.py`` times the engine by replacing module attributes
(``WRAPPED``, and the renderers of ``davn.cli.reports``) with wrappers,
and its set-up child runs ``from davn.checks import build_state``.  A
move of one of those names between modules would break only the
benchmark, which tier-1 does not run, so this loads the tracer by path
(it imports only the standard library) and checks its hooks here, and
the work counts the benchmark pins per command.
"""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import davn.checks
import davn.cli
import davn.factory

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it builds the classes.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_resolves(tracing):
    for module_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr))
    for attr in tracing.RENDERERS:
        assert callable(getattr(davn.cli.reports, attr))


def test_the_set_up_child_builds_through_the_factory():
    namespace = {}
    exec("from davn.checks import build_state", namespace)
    assert namespace["build_state"] is davn.factory.build_state


@pytest.mark.parametrize(
    ("argv", "spans"),
    [
        (["verify-state", "--format", "json"],
         ["checks.run_state_checks", "factory.build", "reports.render.checks"]),
        (["tables", "--table", "I", "--format", "json"],
         ["factory.build", "postselect.table_for_outcome",
          "reports.render.table"]),
    ],
)
def test_a_traced_command_calls_through_the_wrappers(tracing, argv, spans):
    # An installed wrapper is the thing called: the lazy loads of
    # davn.cli never rebind a name the tracer has replaced.
    tracer = tracing.Tracer()
    modules = {name: importlib.import_module(name)
               for name, _, _, _ in tracing.WRAPPED}
    with tracing.installed(tracer, modules), redirect_stdout(io.StringIO()):
        assert davn.cli.main(argv) == 0
    assert set(spans) <= {span.name for span in tracer.spans}
    # The tracer restores what it replaced.
    assert davn.cli.run_state_checks is davn.checks.run_state_checks


@pytest.mark.parametrize(
    ("argv", "counts"),
    [
        (["davn"], {}),
        (["fixtures-diff"],
         {"postselect.rows_diffed": 336, "postselect.rows_failed": 0}),
    ],
)
def test_a_traced_command_does_the_pinned_work(tracing, argv, counts):
    # The per-command counts that `pytest perfbench` pins: one selection
    # and one derivation per table row, 96 of the selections distinct.
    tracer = tracing.Tracer()
    modules = {name: importlib.import_module(name)
               for name, _, _, _ in tracing.WRAPPED}
    with tracing.installed(tracer, modules), redirect_stdout(io.StringIO()):
        assert davn.cli.main(argv) == 0
    expected = {
        "postselect.postselect_pair.calls": 336,
        "postselect.derive_constraints.calls": 336,
        "postselect.candidates_tested": 3024,
        "postselect.distinct_selections": 96,
        **counts,
    }
    assert {name: tracer.counts[name] for name in expected} == expected
