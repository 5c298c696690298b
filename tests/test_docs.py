from __future__ import annotations

import ast
import re
from pathlib import Path

from grassmult import arith, cli, difference, indices, matrices, multiplicity

ROOT = Path(__file__).resolve().parents[1]
MODULES = {module.__name__.rpartition(".")[2]: module
           for module in (arith, cli, difference, indices, matrices, multiplicity)}

# A cited name: module.name for a package module, or a bare _name. A file
# name (difference.py) and a prefix pattern (_require_*) name no object.
CITE = re.compile(
    r"(?<![\w.])(?:(" + "|".join(MODULES) + r")\.(?!py\b)(\w+)|(_[A-Za-z]\w*)(?![\w*]))"
)


def texts():
    """(where, text) for README.md and each docstring under src/."""
    yield "README.md", (ROOT / "README.md").read_text(encoding="utf-8")
    for path in sorted((ROOT / "src" / "grassmult").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', 'module')}", doc


def test_cited_names_exist():
    # A doc that names a deleted helper describes code that is gone.
    cited, missing = 0, []
    for where, text in texts():
        for match in CITE.finditer(text):
            module, name, private = match.groups()
            owners = [MODULES[module]] if module else MODULES.values()
            cited += 1
            if not any(hasattr(owner, name or private) for owner in owners):
                missing.append(f"{where}: {match.group(0)}")
    assert cited > 50
    assert missing == []
