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
    """Record the calls of binom, determinant_bareiss, leq and _up_set at
    every module binding: the order of each determinant, and the arguments
    of every other call."""
    from grassmult import arith, cli, difference, indices, matrices, multiplicity

    homes = {
        "binom": arith,
        "determinant_bareiss": matrices,
        "leq": indices,
        "_up_set": multiplicity,
    }
    calls = {name: [] for name in homes}

    def counted(name, real):
        def wrapper(*args):
            calls[name].append(len(args[0]) if name == "determinant_bareiss" else args)
            return real(*args)

        return wrapper

    for name, home in homes.items():
        real = getattr(home, name)
        wrapper = counted(name, real)
        for module in (arith, matrices, difference, indices, multiplicity, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    return calls
