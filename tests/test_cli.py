"""CLI behaviour: exit codes, formats, determinism, file output."""

import argparse
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import types
import typing
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import davn
from davn import cli
from davn.cli import main
from reference import reference_parser
from test_goldens import GOLDENS

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_state_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-state", "--state", "psi1234")
    assert code == 0
    assert "result: PASS" in out
    assert "2/7, 3/14, 2/7, 3/14" in out


def test_verify_state_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify-state", "--state", "psi4-qubit", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "davn.verify-state/1"
    assert payload["passed"] is True


def test_verify_state_embedded_mentions_commutation(capsys):
    code, out, _ = run_cli(capsys, "verify-state", "--state", "psi4-embedded")
    assert code == 0
    assert "d=4: +1" in out


def test_tables_text_and_markdown_agree_with_json(capsys):
    code, text, _ = run_cli(capsys, "tables", "--table", "I")
    assert code == 0
    code, md, _ = run_cli(capsys, "tables", "--table", "I", "--format", "markdown")
    assert code == 0
    code, js, _ = run_cli(capsys, "tables", "--table", "I", "--format", "json")
    assert code == 0
    payload = json.loads(js)
    assert payload["table"] == "I"
    assert len(payload["blocks"]) == 2
    for block in payload["blocks"]:
        assert len(block["rows"]) == 6
        for row in block["rows"]:
            # Lossless across renderings: md/text contain the same cells.
            assert row["pair"] in text
            assert row["pair"] in md
            if row["basic"]:
                rendered = f"{row['basic']['word']} = {row['basic']['value']}"
                assert rendered in text
                assert rendered.replace("|", "\\|") in md or rendered in md


def test_tables_alias_and_gaps(capsys):
    code, js, _ = run_cli(capsys, "tables", "--table", "IX", "--format", "json")
    assert code == 0
    payload = json.loads(js)
    assert payload["table"] == "VI-A"
    code, out, _ = run_cli(capsys, "tables", "--table", "III-A")
    assert code == 0
    assert "---" in out  # rows without any eigenword
    code, js, _ = run_cli(
        capsys, "tables", "--table", "III-A", "--format", "json"
    )
    payload = json.loads(js)
    assert len(payload["blocks"]) == 6
    assert sum(len(b["rows"]) for b in payload["blocks"]) == 36


def test_tables_md_alias(capsys):
    code, md1, _ = run_cli(capsys, "tables", "--table", "I", "--format", "md")
    assert code == 0
    code, md2, _ = run_cli(
        capsys, "tables", "--table", "I", "--format", "markdown"
    )
    assert md1 == md2
    assert md1.startswith("## Condition table I")


def test_tables_unknown_label(capsys):
    code, _, err = run_cli(capsys, "tables", "--table", "XI")
    assert code == 2
    assert "unknown table" in err


def test_paradox_command(capsys):
    code, out, _ = run_cli(capsys, "paradox", "--outcome", "0,0,0,0")
    assert code == 0
    assert "minimal unsatisfiable core" in out
    assert "X3*X4^3 = -i" in out


def test_paradox_json_includes_rows(capsys):
    code, out, _ = run_cli(
        capsys, "paradox", "--outcome", "0,2,3,3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "davn.paradox/1"
    assert payload["type"] == "III-A"
    assert payload["lhv_satisfiable"] is False
    assert len(payload["rows"]) == 6
    assert len(payload["minimal_core"]) == 3


def test_paradox_outside_support(capsys):
    code, _, err = run_cli(capsys, "paradox", "--outcome", "1,1,1,1")
    assert code == 2
    assert "probability 0" in err


def test_paradox_malformed_outcome(capsys):
    # Arabic-Indic digits and a superscript two pass str.isdigit.
    for outcome in ("0,0,0", "\u0660,\u0662,\u0663,\u0663", "\u00b2,0,0,0"):
        code, _, err = run_cli(capsys, "paradox", "--outcome", outcome)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and "comma-separated digits" in lines[0]


def test_paradox_outcome_exponent_out_of_range(capsys):
    code, out, err = run_cli(capsys, "paradox", "--outcome", "0,4,0,0")
    assert code == 2
    assert out == ""
    assert err == "error: outcome exponents must be in 0..3 (i^k per site)\n"


def test_paradox_reports_an_lhv_model(capsys):
    code, out, _ = run_cli(
        capsys, "paradox", "--state", "psi4-embedded", "--outcome", "0,0,1,1"
    )
    assert code == 1
    assert out.endswith(
        "LHV model EXISTS: X values i^(0,0,0,0)\nno paradox for this outcome\n"
    )


def test_paradox_outcome_allows_spaces_around_digits(capsys):
    code, out, _ = run_cli(capsys, "paradox", "--outcome", " 0, 2 ,3,3 ")
    assert code == 0
    assert out.startswith("outcome 0233 ")


def test_davn_command(capsys):
    code, out, _ = run_cli(capsys, "davn")
    assert code == 0
    assert "verdict: DAVN" in out
    assert "56/56" in out


def test_davn_json_schema(capsys):
    code, out, _ = run_cli(capsys, "davn", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "davn.report/1"
    assert payload["verdict"] == "DAVN"
    assert payload["support_size"] == 56
    assert payload["probability_sum"] == "1"
    assert payload["type_counts"] == {
        "I": 2, "II": 6, "III": 12, "IV": 12, "V": 12, "VI": 12,
    }
    assert len(payload["outcomes"]) == 56
    assert all(o["probability"] == "1/56" for o in payload["outcomes"])


def test_davn_fails_on_embedded_state(capsys):
    code, out, _ = run_cli(capsys, "davn", "--state", "psi4-embedded")
    assert code == 1
    assert "NOT-DAVN" in out


def test_sample_deterministic(capsys):
    code, out1, _ = run_cli(
        capsys, "sample", "--runs", "100", "--seed", "7", "--format", "json"
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "sample", "--runs", "100", "--seed", "7", "--format", "json"
    )
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["generator"] == "mt19937-randrange-cdf/1"
    assert sum(c["count"] for c in payload["counts"]) == 100


def test_sample_rejects_zero_runs(capsys):
    code, _, err = run_cli(capsys, "sample", "--runs", "0", "--seed", "1")
    assert code == 2
    assert "positive" in err


def test_sample_rejects_a_negative_seed(capsys):
    # random.Random(-7) draws as random.Random(7), yet the report would
    # record -7.
    code, out, err = run_cli(capsys, "sample", "--runs", "1000", "--seed", "-7")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: seed must be a non-negative integer"]


def test_fixtures_diff_passes_on_packaged_tables(capsys):
    code, out, _ = run_cli(capsys, "fixtures-diff")
    assert code == 0
    assert "result: PASS" in out
    assert "allowlisted" in out


def copy_fixtures(tmp_path):
    src = resources.files("davn") / "fixtures"
    for name in [p.name for p in src.iterdir() if p.name.endswith(".txt")]:
        (tmp_path / name).write_bytes((src / name).read_bytes())
    return tmp_path


def test_fixtures_diff_flags_tampered_fixture(tmp_path, capsys):
    table = copy_fixtures(tmp_path) / "table_I.txt"
    text = table.read_text(encoding="utf-8").replace("basic=1,3:-i", "basic=1,3:i", 1)
    table.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 1
    assert "FAILURES" in out
    assert "table I row 1" in out


@pytest.mark.parametrize(
    "old,new,line",
    [
        ("outcome=0000", "outcome=000", 2),
        ("outcome=0000", "outcome=00000", 2),
        ("outcome=0000", "outcome=0004", 2),
        ("outcome=0000", "outcome=00a0", 2),
        ("outcome=0000", "outcome=", 2),
        ("pair=Z1=1,Z2=1", "pair=Z9=1,Z2=1", 3),
        ("pair=Z1=1,Z2=1", "pair=Z1=1,Z0=1", 3),
        ("pair=Z1=1,Z2=1", "pair=Z12=1,Z2=1", 3),
        ("pair=Z1=1,Z2=1", "pair=Q1=1,Z2=1", 3),
        ("residual=00:0;", "residual=000:0;", 3),
        ("residual=00:0;", "residual=40:0;", 3),
        ("residual=00:0;", "residual=0:0;", 3),
        ("residual=00:0;", "residual=00:4;", 3),
        ("residual=00:0;", "residual=00:-1;", 3),
        ("residual=00:0;", "residual=00:0;00:2;", 3),
        ("basic=1,3:-i", "basic=7,9:-i", 3),
        ("basic=1,3:-i", "basic=4,3:-i", 3),
        ("extended=2,2:-1", "extended=2,4:-1", 3),
        ("pair=Z1=1,Z2=1", "pairs=Z1=1,Z2=1", 3),
    ],
)
def test_fixtures_diff_malformed_table_is_an_input_error(
    tmp_path, capsys, old, new, line
):
    table = copy_fixtures(tmp_path) / "table_I.txt"
    text = table.read_text(encoding="utf-8")
    assert old in text
    table.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: table_I.txt: bad fixture line")
    assert f"line {line} (" in lines[0]


def test_fixtures_diff_rejects_a_row_of_another_table(tmp_path, capsys):
    # Row 1 of table I reads the same as row 1 of table II, so the row
    # would otherwise pass as II/1, an allowlist key of the real table II.
    table = copy_fixtures(tmp_path) / "table_I.txt"
    text = table.read_text(encoding="utf-8")
    table.write_text(text.replace("table=I |", "table=II |", 1), encoding="utf-8")
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: table_I.txt: bad fixture line 3 (row of table II in a table I"
        " file): 'table=II | pair=Z1=1,Z2=1 | residual=00:0;13:1;22:2;31:3"
        " | basic=1,3:-i | extended=2,2:-1'\n"
    )


def test_fixtures_diff_rejects_a_row_before_any_block_header(tmp_path, capsys):
    table = copy_fixtures(tmp_path) / "table_I.txt"
    text = table.read_text(encoding="utf-8").replace("# block 1 outcome=0000\n", "", 1)
    table.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(
        "error: table_I.txt: bad fixture line 2 (row precedes a block header): "
    )


def test_fixtures_diff_flags_unused_allowlist_entry(tmp_path, capsys):
    allowlist = copy_fixtures(tmp_path) / "allowlist.txt"
    allowlist.write_text(
        allowlist.read_text(encoding="utf-8")
        + "table=I | row=1 | kind=derivation | tag=UNUSED | note=matches\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 1
    assert "no longer fire:\n  table I row 1 kind derivation" in out


def test_fixtures_diff_json_lists_an_unused_allowlist_entry(tmp_path, capsys):
    allowlist = copy_fixtures(tmp_path) / "allowlist.txt"
    allowlist.write_text(
        allowlist.read_text(encoding="utf-8")
        + "table=I | row=1 | kind=derivation | tag=UNUSED | note=matches\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "fixtures-diff", "--dir", str(tmp_path), "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["failures"] == []
    assert payload["unused_allowlist"] == [
        {"table": "I", "row": 1, "kind": "derivation"}
    ]


def test_fixtures_diff_names_a_missing_field(tmp_path, capsys):
    table = copy_fixtures(tmp_path) / "table_I.txt"
    text = table.read_text(encoding="utf-8")
    table.write_text(text.replace("pair=", "pairs=", 1), encoding="utf-8")
    code, _, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert "bad fixture line 3 (missing field 'pair')" in err


@pytest.mark.parametrize(
    "entry,message",
    [
        ("table=I | row=2 | kind=derivaton | tag=T | note=typo", "unknown kind"),
        ("table=I | row=0 | kind=derivation | tag=T | note=zero", "below 1"),
        ("table=I | row=-3 | kind=block-pair | tag=T | note=neg", "below 1"),
        ("table=I | row=2_8 | kind=derivation | tag=T | note=underscore",
         "'2_8' is not a row number"),
        ("table=I | row=+28 | kind=derivation | tag=T | note=sign",
         "'+28' is not a row number"),
        ("table=I | row=\u0662\u0668 | kind=derivation | tag=T | note=arabic",
         "is not a row number"),
        ("table=I | row=999 | kind=derivation | tag=T | note=past end",
         "names no fixture row"),
        ("table=II | row=28 | kind=derivation | tag=T | note=repeat",
         "table II row 28 kind derivation is repeated"),
    ],
)
def test_fixtures_diff_malformed_allowlist_is_an_input_error(
    tmp_path, capsys, entry, message
):
    allowlist = copy_fixtures(tmp_path) / "allowlist.txt"
    text = allowlist.read_text(encoding="utf-8")
    allowlist.write_text(text + entry + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: allowlist.txt: ")
    assert message in lines[0]


@pytest.mark.parametrize("name", ["allowlist.txt", "table_I.txt"])
def test_fixtures_diff_undecodable_file_is_named(tmp_path, capsys, name):
    with open(copy_fixtures(tmp_path) / name, "ab") as handle:
        handle.write(b"\xff\n")
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}: ")
    assert "can't decode" in lines[0]


def test_fixtures_diff_without_allowlist_excuses_nothing(tmp_path, capsys):
    (copy_fixtures(tmp_path) / "allowlist.txt").unlink()
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 1
    assert err == ""
    assert "FAILURES: 6" in out


def drop_lines(start, stop):
    def edit(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[:start] + lines[stop:])

    return edit


def swap_first_block_headers(text):
    first, second = re.findall(r"# block \d+ outcome=\d+", text)[:2]
    return text.replace(first, "@").replace(second, first).replace("@", second)


@pytest.mark.parametrize(
    "name,edit,message",
    [
        ("table_I.txt", lambda text: "", "blocks none, expected 0000 2222"),
        ("table_VI-B.txt", drop_lines(3, 4),
         "block 3122 does not hold one row per site pair"),
        ("table_VI-B.txt", drop_lines(1, 8),
         "blocks 2312 2231 1223 3212 2321, expected 3122 2312"),
        ("table_II.txt", swap_first_block_headers,
         "blocks 2002 0022 2200 0220 0202 2020, expected 0022 2002 2200"),
        ("table_I.txt", lambda text: text.replace("Z3=1,Z4=1", "Z2=1,Z4=1", 1),
         "block 0000 does not hold one row per site pair"),
    ],
    ids=["emptied", "dropped row", "dropped block", "swapped headers",
         "repeated pair"],
)
def test_fixtures_diff_rejects_a_table_missing_rows_or_blocks(
    tmp_path, capsys, name, edit, message
):
    table = copy_fixtures(tmp_path) / name
    table.write_text(edit(table.read_text(encoding="utf-8")), encoding="utf-8")
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}: ")
    assert message in lines[0]


@pytest.mark.parametrize("name", ["allowlist.txt", "table_I.txt"])
def test_fixtures_diff_unreadable_file_is_named(tmp_path, capsys, name):
    # A directory in a file's place is unreadable, not missing.
    path = copy_fixtures(tmp_path) / name
    path.unlink()
    path.mkdir()
    code, out, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}: ")
    assert "missing" not in lines[0]


def test_fixtures_diff_missing_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fixtures-diff", "--dir", str(tmp_path / "nope"))
    assert code == 2
    assert "missing fixture table" in err


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "davn", "--format", "json", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["verdict"] == "DAVN"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["tables"])  # missing required --table
    assert exc.value.code == 2


def test_json_reports_are_byte_identical_across_processes():
    command = [sys.executable, "-m", "davn.cli", "davn", "--format", "json"]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(command, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_files_are_read_and_written_as_utf8(tmp_path):
    # -X warn_default_encoding warns on every text file opened in the
    # locale's encoding, and -W makes the warning an error: the fixture
    # tables, the allowlist and the -o file must name their encoding.
    davn = [
        sys.executable, "-X", "warn_default_encoding",
        "-W", "error::EncodingWarning", "-m", "davn",
    ]
    diff = subprocess.run([*davn, "fixtures-diff"], capture_output=True)
    assert (diff.returncode, diff.stderr) == (0, b"")
    target = tmp_path / "davn.json"
    command = [*davn, "davn", "--format", "json", "-o", str(target)]
    report = subprocess.run(command, capture_output=True)
    assert (report.returncode, report.stdout, report.stderr) == (0, b"", b"")
    assert json.loads(target.read_bytes())["verdict"] == "DAVN"


#: The packaged fixture files by name, read once for the mutation fuzz.
PACKAGED = {
    p.name: p.read_text(encoding="utf-8")
    for p in (resources.files("davn") / "fixtures").iterdir()
    if p.name.endswith(".txt")
}

MUTATIONS = (
    "drop line", "duplicate line", "drop field", "duplicate field",
    "alter field", "alter character",
)


@st.composite
def mutated_fixtures(draw):
    """The packaged files with one line of one file mutated once."""
    name = draw(st.sampled_from(sorted(PACKAGED)))
    lines = PACKAGED[name].splitlines()
    index = draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
    line = lines[index]
    kind = draw(st.sampled_from(MUTATIONS))
    fields = line.split(" | ")
    field = draw(st.integers(0, len(fields) - 1))
    text = st.text(st.sampled_from("0123479-=|:;,# iXZIV\n"), max_size=6)
    if kind == "drop line":
        new = []
    elif kind == "duplicate line":
        new = [line, line]
    elif kind == "drop field":
        new = [" | ".join(fields[:field] + fields[field + 1 :])]
    elif kind == "duplicate field":
        new = [" | ".join(fields[: field + 1] + fields[field:])]
    elif kind == "alter field":
        key, _, _ = fields[field].partition("=")
        fields[field] = f"{key}={draw(text)}"
        new = [" | ".join(fields)]
    else:
        at = draw(st.integers(0, len(line) - 1))
        new = [line[:at] + draw(text) + line[at + 1 :]]
    files = dict(PACKAGED)
    files[name] = "\n".join(lines[:index] + new + lines[index + 1 :]) + "\n"
    return name, files


@settings(max_examples=60, deadline=None)
@given(mutated_fixtures())
def test_fixtures_diff_exit_code_contract_under_mutation(case):
    # Exit 0, 1 or 2 and no traceback whatever one edit does to one file;
    # an input error is one stderr line naming the edited file or table.
    # A second run on the same files, with the parse and derivation memos
    # warm, must give the same verdict or error.
    name, files = case
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, text in files.items():
            (Path(tmp) / file_name).write_text(text, encoding="utf-8")
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["fixtures-diff", "--dir", tmp, "--format", "json"])
            runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[1] == runs[0]
    code, out, err = runs[0]
    if code != 2:
        assert code in (0, 1)
        assert err == ""
        json.loads(out)
        return
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    table = name.removeprefix("table_").removesuffix(".txt")
    assert name in lines[0] or f"table {table} " in lines[0]


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    # Every command pays for what `import davn.cli` imports; dataclasses
    # (with inspect, ast, dis and tokenize) cost more than a refutation.
    # The engine modules load in the commands that run them (see
    # test_each_command_loads_only_the_modules_it_runs).
    code = (
        "import sys, davn.cli; print(sorted("
        "{'dataclasses', 'inspect', 'davn.sampling'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True
    )
    assert result.stdout == b"[]\n"


def loaded_modules(code: str, *argv: str) -> set[str]:
    """The modules a fresh process has loaded after running ``code``.

    ``-S`` keeps out the modules that start-up hooks in site-packages
    may import, so the set is the same on every host; PYTHONPATH names
    the davn under test instead.
    """
    probe = f"{code}\nimport sys\nprint(*sys.modules)"
    path = [str(Path(davn.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        capture_output=True, check=True, text=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    return set(result.stdout.split())


#: Runs ``main`` on the process's arguments with its stdout discarded.
RUN_MAIN = """\
import io, sys
from contextlib import redirect_stdout
from davn.cli import main
with redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass"""

#: What ``import davn.cli`` loads: the modules every command needs.
CLI_MODULES = {"davn", "davn.cli", "davn.factory", "davn.states"}

#: What no command loads: probabilities are int pairs, and reports
#: writes its own JSON scalars.
NO_COMMAND_LOADS = {"decimal", "fractions", "json", "numbers"}


@pytest.mark.parametrize(
    ("code", "expected"),
    [
        ("import davn", {"davn"}),
        ("import davn.cli", CLI_MODULES),
    ],
)
def test_import_loads_only_what_every_command_needs(code, expected):
    loaded = loaded_modules(code)
    assert {m for m in loaded if m.split(".")[0] == "davn"} == expected
    # importlib.resources (with zipfile and tempfile) and pathlib serve
    # fixtures-diff and -o only.
    assert not {"importlib.resources", "pathlib"} & loaded


@pytest.mark.parametrize(
    ("argv", "added"),
    [
        (["--help"], set()),
        (["verify-state"], {"checks", "reports"}),
        (["sample", "--runs", "10", "--seed", "1"], {"reports", "sampling"}),
        (["sample", "--runs", "0", "--seed", "1"], {"sampling"}),
        (["davn"], {"lhv", "postselect", "reports"}),
        (["paradox", "--outcome", "0,2,3,3"], {"lhv", "postselect", "reports"}),
        (["tables", "--table", "I"], {"postselect", "reports"}),
        (["fixtures-diff"], {"fixtures", "postselect", "reports"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, added):
    # Compiling a module is a large share of a short command when no
    # bytecode cache is written, so each command imports the engine
    # modules it calls, and no others.
    loaded = loaded_modules(RUN_MAIN, *argv)
    expected = CLI_MODULES | {f"davn.{name}" for name in added}
    assert {m for m in loaded if m.split(".")[0] == "davn"} == expected
    assert not NO_COMMAND_LOADS & loaded
    if argv[:3] == ["sample", "--runs", "0"]:
        # A rejected run stops before any report is rendered.
        assert "json" not in loaded


NO_ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    ("code", "argv", "absent"),
    [
        # The parser is built in main, and no probability needs
        # fractions (with decimal and numbers).
        ("import davn.cli", [], {"argparse", "fractions"}),
        # reports imports typing only for type checkers; fixtures-diff
        # loads it anyway, through importlib.resources.
        (RUN_MAIN, ["verify-state"], {"typing"}),
        (RUN_MAIN, ["davn"], {"typing"}),
        # A table renders its constraints through postselect: no lhv.
        (RUN_MAIN, ["tables", "--table", "I"], {"davn.lhv", "fractions", "typing"}),
        (RUN_MAIN, ["fixtures-diff"], {"fractions"}),
        # A well-formed command line is parsed without argparse, whose
        # first message lookup imports gettext and locale.
        (RUN_MAIN, ["paradox", "--outcome", "0,2,3,3"], NO_ARGPARSE),
        (RUN_MAIN, ["tables", "--table", "I"], NO_ARGPARSE),
        (RUN_MAIN, ["sample", "--runs", "0", "--seed", "1"], NO_ARGPARSE),
        (RUN_MAIN, ["fixtures-diff"], NO_ARGPARSE),
    ],
    ids=["import-cli", "verify-state", "davn", "tables", "fixtures-diff",
         "paradox-parse", "tables-parse", "sample-invalid-parse",
         "fixtures-diff-parse"],
)
def test_each_command_skips_the_modules_it_never_calls(code, argv, absent):
    assert not absent & loaded_modules(code, *argv)


#: Runs ``main()``, which reads ``sys.argv`` as the console script does,
#: and prints, as JSON, its exit code, stdout and stderr and the modules
#: the process then holds.
RUN_MAIN_REPORT = """\
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from davn.cli import main
out, err = io.StringIO(), io.StringIO()
try:
    with redirect_stdout(out), redirect_stderr(err):
        code = main()
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue(), sorted(sys.modules)]))"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["tables"],
        ["tables", "--help"],
        ["sample", "--runs", "x", "--seed", "1"],
        ["davn", "--state", "psi4-qubit"],
    ],
    ids=["help", "missing-option", "command-help", "bad-int", "bad-choice"],
)
def test_help_and_usage_errors_still_go_through_argparse(monkeypatch, argv):
    # In a fresh process, help and usage errors build the argparse parser
    # and read byte for byte as the literal add_argument form prints them
    # under the same argparse.
    env = {
        **os.environ, "COLUMNS": "80",
        "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(davn.__file__).parent.parent), os.environ.get("PYTHONPATH"),
        ])),
    }
    result = subprocess.run(
        [sys.executable, "-S", "-c", RUN_MAIN_REPORT, *argv],
        capture_output=True, check=True, text=True, encoding="utf-8", env=env,
    )
    code, out, err, modules = json.loads(result.stdout)
    assert "argparse" in modules
    monkeypatch.setenv("COLUMNS", "80")
    expected_out, expected_err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc:
        with redirect_stdout(expected_out), redirect_stderr(expected_err):
            reference_parser().parse_args(argv)
    assert exc.value.code == (0 if "--help" in argv else 2)
    assert (code, out, err) == (
        exc.value.code, expected_out.getvalue(), expected_err.getvalue()
    )


#: Values a generated command line gives an option, by the option's kind:
#: declared choices are extended with bad ones, and every list holds values
#: argparse reads differently from a plain parser if either is careless
#: (empty, signed, non-ASCII digits, leading dash, embedded ``=``).
INT_VALUES = ("1000", "0", "7", "-5", "+7", " 7", "7_0", "1e3", "x", "",
              "٣", "-")
TEXT_VALUES = ("I", "VI-B", "IX", "0,2,3,3", "٠,٢,٣,٣",
               "out.txt", "a=b", "a b", "", "-x", "-1,0,0,0", "--")
BAD_CHOICES = ("psi0", "JSON", "", "-")
#: Tokens inserted anywhere: every flag, help, ``--`` and strays.
STRAY_TOKENS = ("-h", "--help", "--", "-", "--state", "--format", "-o",
                "--output", "--runs", "--table", "--dir", "--outcome",
                "json", "psi1234", "tables", "davn", "7", "")


def option_values(keywords):
    if "choices" in keywords:
        return (*keywords["choices"], *BAD_CHOICES)
    return INT_VALUES if keywords.get("type") is int else TEXT_VALUES


def generated_command_line(rng):
    """A command line from the option table, then up to three mutations."""
    name = rng.choice(list(cli.COMMANDS))
    _, _, options = cli.COMMANDS[name]
    options = [*options, *cli._COMMON]
    pairs = []
    for flags, keywords in options:
        if keywords.get("required") or rng.random() < 0.5:
            pairs.append([rng.choice(flags), rng.choice(option_values(keywords))])
    rng.shuffle(pairs)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        kind = rng.choice((
            "drop", "repeat", "join", "abbreviate", "glue", "negative",
            "insert", "command",
        ))
        at = rng.randrange(len(pairs)) if pairs else None
        if kind == "drop" and pairs:
            del pairs[at]
        elif kind == "repeat":
            flags, keywords = rng.choice(options)
            pairs.insert(rng.randrange(len(pairs) + 1),
                         [rng.choice(flags), rng.choice(option_values(keywords))])
        elif kind == "join" and pairs:
            pairs[at] = ["=".join(pairs[at])]
        elif kind == "abbreviate" and pairs and pairs[at][0][:2] == "--":
            flag = pairs[at][0]
            pairs[at][0] = flag[: rng.randrange(3, max(4, len(flag)))]
        elif kind == "glue":
            pairs.append(["-o" + rng.choice(("json", "out.txt", "", "-x"))])
        elif kind == "negative":
            pairs.append([rng.choice(("--runs", "--seed")), str(-rng.randrange(9))])
        elif kind == "insert":
            pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(STRAY_TOKENS)])
        elif kind == "command":
            name = rng.choice(("", "fix", "table", "--help", "-h", name[:3]))
    argv = [token for pair in pairs for token in pair]
    return [name, *argv] if name else argv


def test_plain_parser_accepts_a_strict_subset_of_argparse():
    # Whatever the plain parser accepts, argparse parses to the same
    # namespace; whatever argparse rejects or answers with help, the
    # plain parser declines, so argparse alone prints help and errors.
    rng = random.Random(20)
    corpus = [generated_command_line(rng) for _ in range(6000)]
    parser = cli.build_parser()
    plain_count = 0
    for argv in corpus:
        plain = cli._parse_plain(argv)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                expected = vars(parser.parse_args(argv))
        except SystemExit:
            assert plain is None, argv
            continue
        if plain is not None:
            assert vars(plain) == expected, argv
            plain_count += 1
    # At least a tenth of the corpus takes each path.
    assert len(corpus) // 10 < plain_count < len(corpus) * 9 // 10


def test_goldens_and_benchmark_command_lines_take_the_plain_path(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it builds the classes.
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        inputs = workloads.Inputs(20, tmp_path)
        ops = inputs.traced_pass_ops() + [
            op for name in workloads.WORKLOADS for op in inputs.round_ops(name, 0)
        ]
    finally:
        del sys.modules[spec.name]
    argvs = [list(op.argv) for op in ops] + [list(g[0]) for g in GOLDENS]
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    for argv in argvs:
        assert cli._parse_plain(argv) is not None, argv


def test_command_annotations_admit_both_namespaces():
    # argparse is bound only for type checkers, so it is supplied here.
    for _, func, _ in cli.COMMANDS.values():
        hints = typing.get_type_hints(func, localns={"argparse": argparse})
        assert hints == {
            "args": argparse.Namespace | types.SimpleNamespace, "return": int,
        }
