"""Benchmark of the davn CLI: time to verdict of fresh processes.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the engine is imported from ``src`` and
nothing needs building.  With ``--trace 0`` a single client runs the
workload's ``python -m davn ...`` commands in a closed loop, one process
at a time, and reports end-to-end wall times scaled by those of a
reference child run between them (see ``REFERENCE_CODE``).  With
``--trace 1`` the same seeded inputs run in process through
``davn.cli.main``, alternating untraced and traced passes, and the spans
give the per-layer metrics.
Every output is checked.  The last line of stdout is the JSON result;
the lines before it are a readable report.  Raw samples, spans and the
run's environment are written to ``perfbench/out/``.

``--quick`` runs every workload in both modes with the fewest
iterations, as a self-test of the harness.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from itertools import count
from pathlib import Path
from time import perf_counter

from tracing import Tracer, call_main, installed
from workloads import ROOT, SAMPLE_RUNS, SRC, WORKLOADS, Inputs, check_setup

OUT = Path(__file__).resolve().parent / "out"
CHILD_TIMEOUT_S = 120
SETUP_CODE = (
    "import davn.cli\n"
    "from davn.checks import build_state\n"
    "build_state('psi1234')\n"
)
IMPORT_CODE = (
    "from time import perf_counter\n"
    "t = perf_counter()\n"
    "import davn.cli\n"
    "print(perf_counter() - t)\n"
)
REFERENCE_SAMPLES = 5
MIN_TRACED_PASSES = 2
#: A fresh process doing fixed work that involves no davn code: it imports
#: standard modules davn imports and does the kinds of work davn does
#: (tuples, dicts, random draws, fractions).  The host this benchmark runs
#: on shares its cores, and its speed drifts by 30% and more over tens of
#: seconds, which moves every wall time with it.  Each end-to-end sample
#: is divided by this child's wall time measured around it, so most of the
#: drift cancels while a change to davn still shows in full.
REFERENCE_CODE = (
    "import argparse, json, random, re\n"
    "from dataclasses import dataclass\n"
    "from fractions import Fraction\n"
    "from itertools import product\n"
    "rng = random.Random(0)\n"
    "seen = {}\n"
    "for word in product(range(4), repeat=7):\n"
    "    key = tuple(w ^ 1 for w in word)\n"
    "    seen[key] = seen.get(key, 0) + rng.randrange(56)\n"
    "total = sum(Fraction(v, 7) for v in seen.values())\n"
    "json.dumps([str(total), len(seen)])\n"
)
#: The reference child's wall time that every sample is scaled to: about
#: its median on the 2-core machine the benchmark was built on, so the
#: reported seconds read close to that machine's wall times.
REFERENCE_S = 0.15
#: A reference child runs whenever this long has passed since the last.
REFERENCE_EVERY_S = 0.5

#: What fills each end-to-end slot on each workload, for the readable report.
SLOT_NAMES = {
    "refute": {"suite": "davn_s", "item": "paradox_s", "reject": "not_davn_s"},
    "tables": {"suite": "fixtures_diff_s", "item": "tables_s",
               "reject": "fixtures_diff_tampered_s"},
    "sample": {"suite": "sample_s", "item": "verify_state_s",
               "reject": "sample_invalid_s"},
}
OP_KINDS = (
    "davn", "not_davn", "paradox", "fixtures_diff", "fixtures_diff_tampered",
    "tables", "verify_state", "sample", "sample_invalid",
)
#: Per-layer busy-time metrics: span name -> metric name.
LAYER_TIMES = {
    "factory.build": "factory.build_s",
    "checks.run_state_checks": "checks.run_state_checks_s",
    "postselect.postselect_pair": "postselect.postselect_pair_s",
    "postselect.derive_constraints": "postselect.derive_constraints_s",
    "postselect.table_for_outcome": "postselect.table_for_outcome_s",
    "postselect.parse_fixtures": "postselect.parse_fixtures_s",
    "postselect.diff_fixture_rows": "postselect.diff_fixture_rows_s",
    "postselect.diff_fixture_rows.self": "postselect.diff_fixture_rows.self_s",
    "lhv.verify_davn": "lhv.verify_davn_s",
    "lhv.verify_davn.self": "lhv.verify_davn.self_s",
    "lhv.verify_paradox": "lhv.verify_paradox_s",
    "lhv.satisfiable": "lhv.satisfiable_s",
    "lhv.minimal_unsat_core": "lhv.minimal_unsat_core_s",
    "sampling.sample_outcomes": "sampling.sample_outcomes_s",
    **{
        f"reports.render.{kind}": f"reports.render_s.{kind}"
        for kind in ("davn", "paradox", "table", "diff", "sample", "checks")
    },
}
COUNTS = (
    "postselect.postselect_pair.calls",
    "postselect.derive_constraints.calls",
    "postselect.candidates_tested",
    "postselect.rows_diffed",
    "postselect.rows_failed",
    "lhv.satisfiable.calls",
    "lhv.assignments_scanned",
    "lhv.core_subsets_tried",
    "sampling.draws",
    "reports.bytes_out",
)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv: list[str]) -> tuple[float, int, str, str]:
    """Wall time, exit code, stdout and stderr of one fresh process."""
    start = perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, -1, "", "timed out"
    return perf_counter() - start, done.returncode, done.stdout, done.stderr


def run_check(op_check, code: int, out: str, err: str) -> str | None:
    try:
        return op_check(code, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def p90_rank(n: int) -> int:
    """1-based nearest rank of the 90th percentile of n samples."""
    return -(-9 * n // 10)


def p90(values: list[float]) -> float:
    return sorted(values)[p90_rank(len(values)) - 1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "davn").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def interpreter_start() -> float:
    return statistics.median(
        run_child([sys.executable, "-c", "pass"])[0]
        for _ in range(REFERENCE_SAMPLES)
    )


def environment(workload: str, seed: int, trace: int, inherited: str | None) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "davn_parallel_inherited": inherited,
        "interpreter_start_s": interpreter_start(),
    }


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)


def end_to_end(workload: str, inputs: Inputs, seconds: float, tally: Tally):
    """Closed loop, one client: each command starts after the last exits.

    Rounds repeat until ``seconds`` have passed, checked before each
    command, so a run overshoots by one command at most; the first round
    always completes so that every slot has a sample.  A reference child
    runs at least every ``REFERENCE_EVERY_S`` and once more at the end, so
    every sample lies between two references.  A sample is reported as
    its wall time times ``REFERENCE_S`` over the mean of those two.
    """
    setup_argv = [sys.executable, "-c", SETUP_CODE]
    reference_argv = [sys.executable, "-c", REFERENCE_CODE]
    run_child(setup_argv)  # writes the bytecode cache before timing
    run_child(reference_argv)

    def schedule():
        for round_no in count():
            for op in inputs.round_ops(workload, round_no):
                if op.slot == "suite":
                    yield round_no, None  # None stands for the set-up child
                yield round_no, op

    def reference() -> None:
        elapsed, code, _, err = run_child(reference_argv)
        tally.record(
            None if code == 0 else f"reference exited {code}: {err[-200:]}"
        )
        references.append(elapsed)

    references: list[float] = []
    # slot -> (wall time, index of the reference before it)
    timed: dict[str, list[tuple[float, int]]] = defaultdict(list)
    start = perf_counter()
    reference()
    last_reference = perf_counter()
    for round_no, op in schedule():
        if round_no and perf_counter() - start >= seconds:
            break
        if perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference()
            last_reference = perf_counter()
        if op is None:
            elapsed, code, out, err = run_child(setup_argv)
            timed["setup"].append((elapsed, len(references) - 1))
            tally.record(check_setup(code, out, err))
        else:
            elapsed, code, out, err = run_child(
                [sys.executable, "-m", "davn", *op.argv]
            )
            timed[op.slot].append((elapsed, len(references) - 1))
            tally.record(run_check(op.check, code, out, err))
    reference()
    measured = perf_counter() - start

    samples = {
        slot: [
            elapsed * 2 * REFERENCE_S / (references[i] + references[i + 1])
            for elapsed, i in pairs
        ]
        for slot, pairs in timed.items()
    }
    metrics = {
        "setup_s": statistics.median(samples["setup"]),
        "suite_s": statistics.median(samples["suite"]),
        "item_s": statistics.median(samples["item"]),
        "item_s.p90": p90(samples["item"]),
        "reject_s": statistics.median(samples["reject"]),
    }
    report = [
        f"measured: {measured:.1f} s",
        f"reference child: median {statistics.median(references):.6f} s, "
        f"n={len(references)}; samples are scaled to {REFERENCE_S} s",
    ]
    for name, value in metrics.items():
        slot = name.partition("_")[0]
        n = len(samples[slot])
        alias = SLOT_NAMES[workload].get(slot, name)
        suffix = ".p90" if name.endswith(".p90") else ""
        note = ""
        if suffix and n - p90_rank(n) < 10:
            note = " (fewer than 10 samples beyond the p90)"
        raw = [elapsed for elapsed, _ in timed[slot]]
        raw_value = p90(raw) if suffix else statistics.median(raw)
        report.append(
            f"{name} = {alias}{suffix}: {value:.6f} s scaled, "
            f"{raw_value:.6f} s wall, n={n}{note}"
        )
    if workload == "sample":
        report.append(
            f"sample_draws_per_s: {SAMPLE_RUNS / metrics['suite_s']:.1f} 1/s scaled"
        )
    dump = {
        "references": references,
        "wall": {slot: [e for e, _ in pairs] for slot, pairs in timed.items()},
        "scaled": samples,
    }
    return {k: (v, "s") for k, v in metrics.items()}, report, dump


def traced(inputs: Inputs, seconds: float, tally: Tally, interpreter_s: float):
    """Untraced and traced in-process passes over every operation kind."""
    sys.path.insert(0, str(SRC))
    names = ("davn.cli", "davn.checks", "davn.lhv", "davn.postselect",
             "davn.sampling")
    modules = {name: importlib.import_module(name) for name in names}
    main = modules["davn.cli"].main
    ops = inputs.traced_pass_ops()
    import_times = [
        float(run_child([sys.executable, "-c", IMPORT_CODE])[2])
        for _ in range(REFERENCE_SAMPLES)
    ]

    def run_pass(tracer: Tracer | None) -> dict[str, float]:
        mains: dict[str, float] = defaultdict(float)
        for op_id, op in enumerate(ops):
            start = perf_counter()
            if tracer is None:
                code, out, err = call_main(main, op.argv)
            else:
                tracer.op, tracer.op_kind = op_id, op.kind
                with tracer.span(f"cli.main.{op.kind}"):
                    code, out, err = call_main(main, op.argv)
            mains[op.kind] += perf_counter() - start
            tally.record(run_check(op.check, code, out, err))
        return mains

    untraced_mains, traced_mains, layer_totals = [], [], []
    counts_seen, last = [], None
    start = perf_counter()
    while (
        len(traced_mains) < MIN_TRACED_PASSES
        or perf_counter() - start < seconds
    ):
        untraced_mains.append(run_pass(None))
        tracer = Tracer()
        with installed(tracer, modules):
            traced_mains.append(run_pass(tracer))
        layer_totals.append(tracer.totals())
        counts_seen.append(dict(tracer.counts))
        last = tracer

    def median_of(rows: list[dict[str, float]], key: str) -> float:
        return statistics.median(row.get(key, 0.0) for row in rows)

    tally.record(
        None if all(c == counts_seen[0] for c in counts_seen)
        else "counts differ between traced passes"
    )
    counts = counts_seen[0]
    untraced_total = [sum(m.values()) for m in untraced_mains]
    traced_total = [sum(m.values()) for m in traced_mains]
    metrics: dict[str, tuple[float, str]] = {
        "cli.interpreter_start_s": (interpreter_s, "s"),
        "cli.import_s": (statistics.median(import_times), "s"),
        **{
            f"cli.main_s.{kind}": (median_of(untraced_mains, kind), "s")
            for kind in OP_KINDS
        },
        "cli.trace_overhead_s": (
            statistics.median(traced_total) - statistics.median(untraced_total),
            "s",
        ),
        **{
            metric: (median_of(layer_totals, span), "s")
            for span, metric in LAYER_TIMES.items()
        },
        **{name: (counts.get(name, 0), "count") for name in COUNTS},
        "postselect.distinct_selection_ratio": (
            counts["postselect.distinct_selections"]
            / counts["postselect.derive_constraints.calls"],
            "ratio",
        ),
    }
    report = [
        f"passes: {len(traced_mains)} traced, {len(untraced_mains)} untraced",
        *(f"{name}: {value} {unit}" for name, (value, unit) in metrics.items()),
        "counts per op kind: " + json.dumps(
            {kind: dict(c) for kind, c in last.op_counts.items()},
            sort_keys=True,
        ),
    ]
    dump = {
        "counts": counts,
        "counts_per_op_kind": {k: dict(c) for k, c in last.op_counts.items()},
        "trace_overhead_per_op_kind_s": {
            kind: median_of(traced_mains, kind) - median_of(untraced_mains, kind)
            for kind in OP_KINDS
        },
        "ops": [[op.kind, *op.argv] for op in ops],
        "spans": [
            [s.name, s.start, s.end, s.parent, s.op] for s in last.spans
        ],
    }
    return metrics, report, dump


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # Removed for the whole run, so children and the in-process passes
    # both take the default serial path.
    inherited = os.environ.pop("DAVN_PARALLEL", None)
    meta = environment(workload, seed, trace, inherited)
    print("# environment " + json.dumps(meta, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = Inputs(seed, Path(workdir))
        if trace:
            metrics, report, dump = traced(
                inputs, seconds, tally, meta["interpreter_start_s"]
            )
        else:
            metrics, report, dump = end_to_end(workload, inputs, seconds, tally)
    failed = len(tally.errors)
    report.append(
        f"operations: {tally.attempted} attempted, {failed} failed, "
        f"fail_ratio {failed / tally.attempted}"
    )
    report += [f"failure: {e}" for e in tally.errors[:10]]
    for line in report:
        print("# " + line)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"environment": meta, "raw": dump}) + "\n"
    )
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="every workload, both modes, fewest iterations",
    )
    args = parser.parse_args(argv)
    if not (SRC / "davn" / "cli.py").is_file():
        print(f"error: no davn sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        results = [
            run(workload, args.seed, 0, trace)
            for workload in WORKLOADS for trace in (0, 1)
        ]
        for result in results:
            print(json.dumps(result))
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
