"""Importing qmarkov before numpy pins BLAS to one thread, and only then.

Each case runs in a fresh interpreter, since BLAS reads the variables once,
when numpy loads.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmarkov

VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(qmarkov.__file__).resolve().parents[1])


def _variables_after(imports: str, **preset: str) -> list:
    """The three variables as a fresh interpreter sees them after the imports."""
    env = {k: v for k, v in os.environ.items() if k not in VARS}
    env.update(preset, PYTHONPATH=SRC)
    code = f"{imports}; import json, os; print(json.dumps([os.environ.get(v) for v in {VARS!r}]))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("imports", ["import qmarkov", "import qmarkov.cli"])
def test_unset_variables_are_pinned_to_one_thread(imports):
    assert _variables_after(imports) == ["1", "1", "1"]


def test_a_preset_variable_is_kept():
    assert _variables_after("import qmarkov", OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


def test_importing_numpy_first_leaves_the_variables_alone():
    assert _variables_after("import numpy; import qmarkov") == [None, None, None]
