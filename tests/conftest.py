from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def cli_env():
    """Environment for subprocess CLI runs with the package importable."""
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else str(SRC) + os.pathsep + existing
    return env


@pytest.fixture
def op_calls(monkeypatch):
    """Record the calls of binom and determinant_bareiss at every module
    binding: the arguments of each binom call and the order of each
    determinant."""
    from grassmult import arith, difference, matrices, multiplicity

    calls = {"binom": [], "determinant_bareiss": []}
    real_binom, real_det = arith.binom, matrices.determinant_bareiss

    def binom(a, b):
        calls["binom"].append((a, b))
        return real_binom(a, b)

    def determinant_bareiss(rows):
        calls["determinant_bareiss"].append(len(rows))
        return real_det(rows)

    for module in (arith, matrices, difference, multiplicity):
        for counted in (binom, determinant_bareiss):
            if hasattr(module, counted.__name__):
                monkeypatch.setattr(module, counted.__name__, counted)
    return calls
