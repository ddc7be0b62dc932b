"""Every ``examples/*.py`` script runs to completion as ``__main__``.

The examples drive the library only through its public package
boundary, take no arguments and write no files, so each one runs
in-process here; a script that raises (a stale keyword, a renamed
import) fails its own case.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip(), f"{script.name} printed nothing"
