"""In-process traced run: spans and work counts per davn module.

The benchmark wraps the public functions of each module at the points
where another module calls them, by replacing the module attribute the
caller looks up, and restores the originals afterwards.  Nothing inside
the package changes.  Each wrapper records a span (name, start, end,
parent, op id) and derives its counts from the call's arguments and
return value only, so the counts repeat exactly on identical inputs.
"""

from __future__ import annotations

import functools
import io
import types
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb
from time import perf_counter
from typing import Any, Callable, Iterator

#: Eigenword candidates X_k**u X_l**v, (u, v) in {1,2,3}**2, per derivation.
CANDIDATES_PER_DERIVATION = 9
#: Hidden-variable assignments in the exhaustive scan, 4**4.
ASSIGNMENTS = 256


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Tracer:
    """Spans and counts of one pass, kept in memory until the run ends."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    op_counts: dict[str, Counter] = field(default_factory=dict)
    selections: set = field(default_factory=set)
    op: int = 0
    op_kind: str = ""
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n
        self.op_counts.setdefault(self.op_kind, Counter())[name] += n

    def totals(self) -> dict[str, float]:
        """Busy time per span name, and self time of composite calls."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: Counter = Counter()
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start
            totals[span.name + ".self"] += span.end - span.start - covered[index]
        return dict(totals)


# --- counts taken from arguments and return values -------------------------


def _count_selection(tracer: Tracer, args: tuple, result: Any) -> None:
    pair = args[1]
    tracer.count("postselect.postselect_pair.calls")
    key = (tracer.op, pair.site_i, pair.site_j, pair.m_i, pair.m_j)
    if key not in tracer.selections:
        tracer.selections.add(key)
        tracer.count("postselect.distinct_selections")


def _count_derivation(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("postselect.derive_constraints.calls")
    tracer.count("postselect.candidates_tested", CANDIDATES_PER_DERIVATION)


def assignments_scanned(witness: tuple[int, ...] | None) -> int:
    """Assignments a lexicographic scan visits before it returns."""
    if witness is None:
        return ASSIGNMENTS
    rank = 0
    for value in witness:
        rank = 4 * rank + value
    return rank + 1


def _count_satisfiable(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("lhv.satisfiable.calls")
    tracer.count("lhv.assignments_scanned", assignments_scanned(result))


def subsets_tried(n: int, combo: tuple[int, ...]) -> int:
    """1-based rank of ``combo`` among subsets of range(n), by size then
    lexicographically: the number of subsets a smallest-first search
    enumerates up to and including it."""
    k = len(combo)
    rank = sum(comb(n, size) for size in range(1, k))
    previous = -1
    for position, index in enumerate(combo):
        for skipped in range(previous + 1, index):
            rank += comb(n - skipped - 1, k - position - 1)
        previous = index
    return rank + 1


def _count_core(tracer: Tracer, args: tuple, result: Any) -> None:
    constraints = list(args[0])
    combo = tuple(sorted(constraints.index(c) for c in result))
    tracer.count("lhv.core_subsets_tried", subsets_tried(len(constraints), combo))


def _count_diff(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("postselect.rows_diffed", result.total_rows)
    tracer.count("postselect.rows_failed", len(result.failures))


def _count_draws(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("sampling.draws", result.total())


def _count_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    if isinstance(result, str):
        tracer.count("reports.bytes_out", len(result.encode()))


Counter_ = Callable[[Tracer, tuple, Any], None]

#: (module, attribute the caller looks up, span name, counter).  Each
#: entry sits at a module boundary: the caller is the module named.
WRAPPED: tuple[tuple[str, str, str, Counter_ | None], ...] = (
    ("davn.cli", "build_state", "factory.build", None),
    ("davn.checks", "build_state", "factory.build", None),
    ("davn.cli", "run_state_checks", "checks.run_state_checks", None),
    ("davn.cli", "verify_davn", "lhv.verify_davn", None),
    ("davn.cli", "verify_paradox", "lhv.verify_paradox", None),
    ("davn.lhv", "verify_paradox", "lhv.verify_paradox", None),
    ("davn.lhv", "satisfiable", "lhv.satisfiable", _count_satisfiable),
    ("davn.lhv", "minimal_unsat_core", "lhv.minimal_unsat_core", _count_core),
    ("davn.cli", "table_for_outcome", "postselect.table_for_outcome", None),
    ("davn.lhv", "table_for_outcome", "postselect.table_for_outcome", None),
    ("davn.postselect", "postselect_pair", "postselect.postselect_pair",
     _count_selection),
    ("davn.postselect", "derive_constraints", "postselect.derive_constraints",
     _count_derivation),
    ("davn.cli", "parse_fixture_text", "postselect.parse_fixtures", None),
    ("davn.cli", "parse_allowlist", "postselect.parse_fixtures", None),
    ("davn.cli", "diff_fixture_rows", "postselect.diff_fixture_rows", _count_diff),
    ("davn.sampling", "sample_outcomes", "sampling.sample_outcomes", _count_draws),
)

#: Renderers the CLI calls through ``cli.reports``, by report kind.  Only
#: the paradox command calls ``to_json`` there; the other reports call it
#: inside ``reports`` and are timed whole.
RENDERERS = {
    "davn_json": "davn",
    "paradox_json": "paradox",
    "to_json": "paradox",
    "render_table_json": "table",
    "diff_json": "diff",
    "sample_json": "sample",
    "checks_json": "checks",
}


def _wrap(tracer: Tracer, name: str, fn: Callable, counter: Counter_ | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, modules: dict[str, types.ModuleType]) -> Iterator[None]:
    """Route the wrapped calls through ``tracer`` until the block exits."""
    saved = []
    try:
        for module_name, attr, name, counter in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, counter))
        cli = modules["davn.cli"]
        reports = cli.reports
        proxy = types.SimpleNamespace(**vars(reports))
        for attr, kind in RENDERERS.items():
            setattr(
                proxy, attr,
                _wrap(tracer, f"reports.render.{kind}", getattr(reports, attr),
                      _count_bytes),
            )
        saved.append((cli, "reports", reports))
        cli.reports = proxy
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def call_main(main: Callable[[list[str]], int], argv: tuple[str, ...]):
    """Run ``main(argv)`` in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()
