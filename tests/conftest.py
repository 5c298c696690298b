from __future__ import annotations

import inspect
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
def spy(monkeypatch):
    """spy(name, *owners) replaces the attribute name on each owner, a
    module or a class, with one wrapper that calls the real function and
    appends (its arguments by parameter name, its result) to the list it
    returns. With no owners, every package module binding of name is
    wrapped."""
    from grassmult import arith, cli, difference, indices, matrices, multiplicity

    modules = (arith, matrices, difference, indices, multiplicity, cli)

    def spy(name, *owners):
        owners = owners or [module for module in modules if hasattr(module, name)]
        real, calls = getattr(owners[0], name), []
        signature = inspect.signature(real)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((signature.bind(*args, **kwargs).arguments, result))
            return result

        for owner in owners:
            assert getattr(owner, name) is real, (owner, name)
            monkeypatch.setattr(owner, name, wrapper)
        return calls

    return spy


@pytest.fixture
def op_calls(spy):
    """The calls of binom, _bareiss, leq and _walk at every module
    binding. _bareiss is the elimination of every Bareiss determinant,
    checked or not, so it counts each one."""
    return {name: spy(name) for name in ("binom", "_bareiss", "leq", "_walk")}
