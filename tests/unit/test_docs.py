"""Documentation is executable — and must stay that way.

The CI docs job runs the same three surfaces this module covers in
tier-1, so documentation rot fails fast everywhere:

* the README quickstart (a text-file doctest);
* the doctests embedded in the public-API module docstrings
  (``repro.api``, ``repro.matching.runtime``, ``repro.xml.xsd``,
  ``repro.xml.parser``, ``repro.service.core``);
* every script in ``examples/`` (executed as a subprocess, the way a
  reader would run it).
"""

from __future__ import annotations

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api
import repro.matching.runtime
import repro.service.core
import repro.xml.parser
import repro.xml.xsd

ROOT = Path(__file__).resolve().parents[2]

EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_readme_doctests_pass():
    results = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert results.attempted > 0, "README lost its doctest examples"
    assert results.failed == 0


@pytest.mark.parametrize(
    "module",
    [repro.api, repro.matching.runtime, repro.xml.xsd, repro.xml.parser, repro.service.core],
    ids=lambda module: module.__name__,
)
def test_module_docstring_examples_pass(module):
    results = doctest.testmod(module)
    assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert results.failed == 0


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_scripts_run(script: Path):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=environment,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"{script.name} produced no output"


def test_examples_directory_is_covered():
    assert len(EXAMPLES) >= 5  # quickstart, dtd, xsd, linting, streaming
