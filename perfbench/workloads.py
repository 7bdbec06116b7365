"""Seeded inputs, operations and output checks of the davn benchmark.

An operation is one ``python -m davn ...`` command line plus the check its
output must pass.  Every operation belongs to one of three slots, which
name the end-to-end metrics shared by all workloads:

* ``suite``  - the command that covers the workload's whole input
  (``davn``, ``fixtures-diff``, ``sample --runs 1000000``);
* ``item``   - the per-item command, run over seeded items
  (``paradox``, ``tables``, ``verify-state``);
* ``reject`` - a command whose correct answer is a non-zero exit
  (``davn`` on the embedded qubit state, ``fixtures-diff`` on a tampered
  copy, ``sample --runs 0``).

Checks read the committed fixtures and ``expected.json`` but never import
davn, so a broken engine cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "davn" / "fixtures"

TABLE_LABELS = (
    "I", "II", "III-A", "III-B", "IV-A", "IV-B", "V-A", "V-B", "VI-A", "VI-B",
)
STATES = ("psi1234", "psi4-qubit", "psi4-embedded")
SAMPLE_RUNS = 1_000_000
SAMPLE_GENERATOR = "mt19937-randrange-cdf/1"
TAMPERED_ROWS = 3

#: Operations per end-to-end round as (suite, reject, item) counts.  One
#: process's wall time is bimodal on a shared machine, so every slot needs
#: tens of samples per run: a 40-second run collects about 15 suite and
#: reject samples and over 110 items, enough for a p90 with at least ten
#: samples beyond it.
ROUND_SHAPE = {"refute": (3, 3, 25), "tables": (3, 3, 25), "sample": (3, 3, 25)}
#: Seeded paradox outcomes per traced pass.
TRACED_OUTCOMES = 8

#: An output check: (exit code, stdout, stderr) -> error message or None.
Check = Callable[[int, str, str], "str | None"]


@dataclass(frozen=True)
class Op:
    kind: str
    slot: str
    argv: tuple[str, ...]
    check: Check


def _expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def _json(stdout: str) -> dict:
    return json.loads(stdout)


def _outcome_text(outcome: tuple[int, ...]) -> str:
    return ",".join(map(str, outcome))


# --- checks ----------------------------------------------------------------


def check_davn(code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"davn exited {code}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != _expected()["davn_json_sha256"]:
        return f"davn --format json digest {digest} differs from expected.json"
    return None


def check_not_davn(code: int, out: str, err: str) -> str | None:
    if code != 1:
        return f"davn on psi4-embedded exited {code}, expected 1"
    report = _json(out)
    if report["verdict"] != "NOT-DAVN" or report["support_size"] != 7:
        return f"unexpected verdict {report['verdict']!r}"
    if len(report["failing_outcomes"]) != 7:
        return "expected an LHV model for all 7 outcomes"
    return None


def paradox_check(outcome: tuple[int, ...]) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"paradox {_outcome_text(outcome)} exited {code}"
        report = _json(out)
        core = report["minimal_core"] or []
        if (
            report["schema"] != "davn.paradox/1"
            or tuple(report["outcome"]["exponents"]) != outcome
            or report["probability"] != "1/56"
            or report["lhv_satisfiable"] is not False
            or report["witness"] is not None
            or len(core) not in (3, 4)
        ):
            return f"paradox {_outcome_text(outcome)}: not refuted by a 3/4-core"
        return None

    return check


def check_fixtures_clean(code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"fixtures-diff exited {code}"
    report = _json(out)
    got = (
        report["ok"], report["total_rows"], report["matched_rows"],
        len(report["failures"]), len(report["unused_allowlist"]),
    )
    if got != (True, 336, 330, 0, 0):
        return f"fixtures-diff (ok, total, matched, failures, unused) = {got}"
    return None


def tampered_check(mutated: frozenset[tuple[str, int]]) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        if code != 1:
            return f"tampered fixtures-diff exited {code}, expected 1"
        report = _json(out)
        failed = {(f["table"], f["row"]) for f in report["failures"]}
        if report["ok"] or report["total_rows"] != 336 or failed != mutated:
            return f"tampered diff failed on {sorted(failed)}, mutated {sorted(mutated)}"
        if report["unused_allowlist"]:
            return "tampered diff reports unused allowlist entries"
        return None

    return check


def tables_check(label: str, outcomes: tuple[tuple[int, ...], ...]) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"tables {label} exited {code}"
        report = _json(out)
        blocks = report["blocks"]
        if (
            report["schema"] != "davn.tables/1"
            or report["table"] != label
            or tuple(tuple(b["outcome"]["exponents"]) for b in blocks) != outcomes
            or any(len(b["rows"]) != 6 for b in blocks)
        ):
            return f"tables {label}: blocks differ from the fixture headers"
        return None

    return check


def verify_state_check(name: str) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"verify-state {name} exited {code}"
        report = _json(out)
        if (
            report["schema"] != "davn.verify-state/1"
            or report["state"] != name
            or report["passed"] is not True
            or not all(c["passed"] for c in report["checks"])
        ):
            return f"verify-state {name}: a check failed"
        return None

    return check


def sample_check(seed: int, replay: Callable[[], list[int]]) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"sample exited {code}"
        report = _json(out)
        counts = [c["count"] for c in report["counts"]]
        if (
            report["schema"] != "davn.sample/1"
            or report["seed"] != seed
            or report["runs"] != SAMPLE_RUNS
            or report["generator"] != SAMPLE_GENERATOR
            or sum(counts) != SAMPLE_RUNS
        ):
            return "sample report header or count total is wrong"
        if counts != replay():
            return "sample counts differ from the generator replay"
        return None

    return check


def check_sample_invalid(code: int, out: str, err: str) -> str | None:
    if code != 2 or out or not err.startswith("error:"):
        return f"sample --runs 0 exited {code}, expected 2 with an error line"
    return None


def check_setup(code: int, out: str, err: str) -> str | None:
    return None if code == 0 else f"set-up child exited {code}: {err[-200:]}"


# --- inputs ----------------------------------------------------------------


def fixture_outcomes() -> dict[str, tuple[tuple[int, ...], ...]]:
    """Block outcomes per table, read from the fixture block headers."""
    blocks = {}
    for label in TABLE_LABELS:
        text = (FIXTURES / f"table_{label}.txt").read_text()
        blocks[label] = tuple(
            tuple(int(c) for c in digits)
            for digits in re.findall(r"outcome=(\d+)", text)
        )
    return blocks


def _allowlisted_rows() -> set[tuple[str, int]]:
    text = (FIXTURES / "allowlist.txt").read_text()
    return {
        (m.group(1), int(m.group(2)))
        for m in re.finditer(r"table=(\S+)\s*\|\s*row=(\d+)", text)
    }


_NEXT_PHASE = {"1": "i", "i": "-1", "-1": "-i", "-i": "1"}


def _tamper(line: str) -> str:
    """Change the extended constraint, a field the diff compares exactly."""
    head, _, value = line.rstrip().rpartition("extended=")
    if value == "none":
        return head + "extended=2,2:1"
    word, phase = value.split(":")
    return head + f"extended={word}:{_NEXT_PHASE[phase]}"


class Inputs:
    """Everything a run derives from its seed.

    The program only ever sees the generated command lines and the
    tampered fixture directory written under ``workdir``.
    """

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.blocks = fixture_outcomes()
        support = [o for label in TABLE_LABELS for o in self.blocks[label]]
        self.outcomes = self.rng.sample(support, len(support))
        self.table_order = self.rng.sample(TABLE_LABELS, len(TABLE_LABELS))
        self.sampler_seed = self.rng.randrange(2**31)
        self.tampered_dir = workdir / "tampered"
        self.mutated = self._write_tampered_copy()

    def _write_tampered_copy(self) -> frozenset[tuple[str, int]]:
        shutil.copytree(FIXTURES, self.tampered_dir)
        allowed = _allowlisted_rows()
        candidates = []
        for label in TABLE_LABELS:
            text = (FIXTURES / f"table_{label}.txt").read_text()
            data = [ln for ln in text.splitlines() if ln.startswith("table=")]
            candidates += [
                (label, index) for index in range(1, len(data) + 1)
                if (label, index) not in allowed
            ]
        mutated = frozenset(self.rng.sample(candidates, TAMPERED_ROWS))
        for label in TABLE_LABELS:
            path = self.tampered_dir / f"table_{label}.txt"
            lines = path.read_text().splitlines(keepends=False)
            index = 0
            for n, line in enumerate(lines):
                if line.startswith("table="):
                    index += 1
                    if (label, index) in mutated:
                        lines[n] = _tamper(line)
            path.write_text("\n".join(lines) + "\n")
        return mutated

    @cached_property
    def sample_replay(self) -> list[int]:
        """Counts of the pinned generator over the 56 equal-weight outcomes.

        psi1234 has 56 unit amplitudes, so the cumulative weights are
        1..56 and ``randrange(56)`` is the outcome's index in
        lexicographic order.
        """
        rng = random.Random(self.sampler_seed)
        counts = [0] * 56
        for _ in range(SAMPLE_RUNS):
            counts[rng.randrange(56)] += 1
        return counts

    # --- operations --------------------------------------------------------

    def davn(self) -> Op:
        return Op("davn", "suite", ("davn", "--format", "json"), check_davn)

    def not_davn(self) -> Op:
        return Op(
            "not_davn", "reject",
            ("davn", "--state", "psi4-embedded", "--format", "json"),
            check_not_davn,
        )

    def paradox(self, outcome: tuple[int, ...]) -> Op:
        return Op(
            "paradox", "item",
            ("paradox", "--outcome", _outcome_text(outcome), "--format", "json"),
            paradox_check(outcome),
        )

    def fixtures_diff(self) -> Op:
        return Op(
            "fixtures_diff", "suite", ("fixtures-diff", "--format", "json"),
            check_fixtures_clean,
        )

    def fixtures_diff_tampered(self) -> Op:
        return Op(
            "fixtures_diff_tampered", "reject",
            ("fixtures-diff", "--dir", str(self.tampered_dir), "--format", "json"),
            tampered_check(self.mutated),
        )

    def tables(self, label: str) -> Op:
        return Op(
            "tables", "item", ("tables", "--table", label, "--format", "json"),
            tables_check(label, self.blocks[label]),
        )

    def verify_state(self, name: str) -> Op:
        return Op(
            "verify_state", "item",
            ("verify-state", "--state", name, "--format", "json"),
            verify_state_check(name),
        )

    def sample(self) -> Op:
        return Op(
            "sample", "suite",
            (
                "sample", "--runs", str(SAMPLE_RUNS),
                "--seed", str(self.sampler_seed), "--format", "json",
            ),
            sample_check(self.sampler_seed, lambda: self.sample_replay),
        )

    def sample_invalid(self) -> Op:
        return Op(
            "sample_invalid", "reject",
            ("sample", "--runs", "0", "--seed", str(self.sampler_seed),
             "--format", "json"),
            check_sample_invalid,
        )

    def round_ops(self, workload: str, round_no: int) -> list[Op]:
        """One closed-loop round of a workload's end-to-end operations."""
        n_suite, n_reject, n_item = ROUND_SHAPE[workload]
        if workload == "refute":
            suite, reject = self.davn, self.not_davn
            items = [
                self.paradox(self.outcomes[(round_no * n_item + i) % len(self.outcomes)])
                for i in range(n_item)
            ]
        elif workload == "tables":
            suite, reject = self.fixtures_diff, self.fixtures_diff_tampered
            labels = [
                label for _ in range(-(-n_item // len(TABLE_LABELS)))
                for label in self.rng.sample(TABLE_LABELS, len(TABLE_LABELS))
            ]
            items = [self.tables(label) for label in labels[:n_item]]
        else:
            suite, reject = self.sample, self.sample_invalid
            states = [STATES[i % len(STATES)] for i in range(n_item)]
            items = [self.verify_state(s) for s in self.rng.sample(states, n_item)]
        ops = [suite() for _ in range(n_suite)]
        for r in range(n_reject):
            ops += items[r * n_item // n_reject:(r + 1) * n_item // n_reject]
            ops.append(reject())
        return ops

    def traced_pass_ops(self) -> list[Op]:
        """Every operation kind once per pass; identical on every pass."""
        return [
            self.davn(),
            self.not_davn(),
            *(self.paradox(o) for o in self.outcomes[:TRACED_OUTCOMES]),
            self.fixtures_diff(),
            self.fixtures_diff_tampered(),
            *(self.tables(label) for label in self.table_order),
            *(self.verify_state(s) for s in STATES),
            self.sample(),
            self.sample_invalid(),
        ]


WORKLOADS = tuple(ROUND_SHAPE)
