"""The example notebooks that drive the solver API run clean, start to end."""
import runpy
from pathlib import Path

import pytest

NOTEBOOKS = Path(__file__).resolve().parent.parent / "notebooks"


# 03 and 04 use only the Monte Carlo API and take 20-30 s each; they are left out
@pytest.mark.parametrize("name", ["01_survival_and_policy", "02_three_parameter_regimes",
                                  "05_general_claim_laws"])
def test_notebook_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a notebook may save its figure in the working directory
    runpy.run_path(str(NOTEBOOKS / f"{name}.py"), run_name="__main__")
