"""Every demo runs to its end in-process and prints its report.

tests/test_api_surface.py counts the demos as callers that keep public names
alive, so a demo that no longer runs must fail here.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
