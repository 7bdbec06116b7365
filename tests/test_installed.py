"""The package as a build lays it out, run from outside the checkout.

Each command imports its engine modules on first use, so a module left
out of a build fails only the commands that import it.  This builds the
package with setuptools' ``build_py`` from a copy of the project, checks
that every module and fixture file is in the build, and runs each of the
six commands once with only the build importable, and the console
script's entry function on a passing and a failing verdict.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_goldens import GOLDENS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "davn"

COMMANDS = (
    ("verify-state",),
    ("tables", "--table", "I"),
    ("paradox", "--outcome", "0,0,1,3"),
    ("davn", "--format", "json"),
    ("sample", "--runs", "1000", "--seed", "1"),
    ("fixtures-diff",),
)


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    pytest.importorskip("setuptools")
    # A copy, so the egg-info that setuptools writes stays out of src/.
    project = tmp_path_factory.mktemp("project")
    shutil.copy(ROOT / "pyproject.toml", project)
    shutil.copytree(
        ROOT / "src", project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    target = tmp_path_factory.mktemp("build")
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "-d", str(target)],
        cwd=project, capture_output=True, check=True,
    )
    return target


def test_build_holds_every_module_and_fixture_file(build):
    # rglob, so a subpackage left out of the build fails here too; no
    # *.py file sits in a __pycache__ directory.
    for pattern in ("*.py", "fixtures/*.txt"):
        source = {p.relative_to(PACKAGE) for p in PACKAGE.rglob(pattern)}
        built = {p.relative_to(build / "davn") for p in (build / "davn").rglob(pattern)}
        assert source and built == source


def run_from_build(build, cwd, *argv):
    """``python *argv`` in ``cwd`` with only the build on PYTHONPATH."""
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(build)},
    )


def test_the_package_is_imported_from_the_build(build, tmp_path):
    where = run_from_build(build, tmp_path, "-c", "import davn; print(davn.__file__)")
    assert Path(where.stdout.decode().strip()).parent == build / "davn"


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_each_command_runs_from_the_build_alone(build, tmp_path, argv):
    result = run_from_build(build, tmp_path, "-m", "davn", *argv)
    assert (result.returncode, result.stderr) == (0, b"")
    digests = {golden: digest for golden, _, digest in GOLDENS}
    if argv in digests:
        assert hashlib.sha256(result.stdout).hexdigest() == digests[argv]


def console_script():
    """The body of the ``davn`` script an installer writes from
    ``[project.scripts]``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^davn = "(.+):(.+)"$', text, re.M).groups()
    return f"import sys\nfrom {module} import {function}\nsys.exit({function}())"


@pytest.mark.parametrize(
    ("argv", "code"),
    [(("davn", "--format", "json"), 0),
     (("davn", "--state", "psi4-embedded", "--format", "json"), 1)],
    ids=["exit-0", "exit-1"],
)
def test_the_console_script_runs_from_the_build(build, tmp_path, argv, code):
    assert "from davn.cli import run\n" in console_script()
    result = run_from_build(build, tmp_path, "-c", console_script(), *argv)
    assert (result.returncode, result.stderr) == (code, b"")
    digests = {golden: digest for golden, _, digest in GOLDENS}
    assert hashlib.sha256(result.stdout).hexdigest() == digests[argv]
