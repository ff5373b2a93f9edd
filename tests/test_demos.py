"""Every demo runs to completion through the package namespace, with frozen stdout."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the fixture holds the stdout of `python demos/<stem>.py`
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue() == (FIXTURES / f"demo_{demo.stem}.txt").read_bytes().decode("utf-8")
