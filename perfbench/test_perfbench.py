"""Tests of the benchmark harness itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

from tracing import assignments_scanned, subsets_tried
from workloads import FIXTURES, Inputs, _tamper

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_subsets_tried_is_the_smallest_first_enumeration_rank():
    for n in range(1, 8):
        order = [
            combo for size in range(1, n + 1)
            for combo in combinations(range(n), size)
        ]
        for rank, combo in enumerate(order, start=1):
            assert subsets_tried(n, combo) == rank


def test_assignments_scanned_counts_up_to_the_witness():
    for rank, witness in enumerate(product(range(4), repeat=4), start=1):
        assert assignments_scanned(witness) == rank
    assert assignments_scanned(None) == 256


def test_tamper_changes_only_the_extended_constraint():
    line = "table=I | pair=Z1=1,Z2=1 | residual=00:0 | basic=1,3:-i | extended=2,2:-1"
    assert _tamper(line) == line.replace("extended=2,2:-1", "extended=2,2:-i")
    assert _tamper("table=I | basic=none | extended=none").endswith("extended=2,2:1")


def test_inputs_repeat_for_a_seed(tmp_path):
    a = Inputs(5, tmp_path / "a")
    b = Inputs(5, tmp_path / "b")
    assert a.outcomes == b.outcomes and len(set(a.outcomes)) == 56
    assert a.mutated == b.mutated and len(a.mutated) == 3
    assert a.sampler_seed == b.sampler_seed
    assert (a.tampered_dir / "allowlist.txt").read_text() == (
        FIXTURES / "allowlist.txt"
    ).read_text()


def test_quick_mode_runs_every_workload_with_checks_on():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith("{")
    ]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert len(results) == 2 * len(spec["workloads"])
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) in (end_to_end, per_layer)
    dump = json.loads((HERE / "out" / "refute-seed3-trace1.json").read_text())
    davn = dump["raw"]["counts_per_op_kind"]["davn"]
    assert davn["postselect.derive_constraints.calls"] == 336
    assert davn["postselect.candidates_tested"] == 3024
    assert davn["postselect.distinct_selections"] == 96
    assert dump["raw"]["counts"]["postselect.rows_failed"] == 3


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and not done.stdout
