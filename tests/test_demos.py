"""The quick demos run end to end, so an API change that breaks one fails
the fast suite. Demos 03-05 train models and are left out."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_autodiff_and_partial_stopgrad.py",
                                  "02_analytic_flows_and_residuals.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
