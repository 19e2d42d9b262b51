"""Every demo script runs to completion."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_as_main(name, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT))
    runpy.run_module(f"demos.{name}", run_name="__main__")
    assert capsys.readouterr().out
