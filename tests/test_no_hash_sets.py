"""No hash sets in ``src/repro``.

NumPy's ``unique``, ``union1d``, ``isin`` and ``in1d`` take a hash or table
path that is 10-30x slower than sorting on the installed NumPy.  Selections
are merged by sorting (``repro.query.selection.sorted_unique``), few
distinct small ids are counted (``np.bincount``), and region-id membership
is a boolean lookup table.  This walks every module's syntax tree and
names each call that brings a hash set back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BANNED = {"unique", "union1d", "isin", "in1d"}


def banned_calls(source: str, filename: str):
    """``file:line: np.name`` of every call to a banned NumPy function,
    through any alias NumPy is imported under."""
    tree = ast.parse(source, filename)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in BANNED:
                    yield f"{filename}:{node.lineno}: from numpy import {alias.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in BANNED
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                yield f"{filename}:{node.lineno}: {func.value.id}.{func.attr}"


def test_guard_sees_every_form():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy import isin\n"
        "np.unique(a)\nnumpy.union1d(a, b)\nnp.in1d(a, b)\nnp.sort(a)\n"
    )
    assert [hit.split(": ")[1] for hit in banned_calls(source, "m.py")] == [
        "from numpy import isin", "np.unique", "numpy.union1d", "np.in1d",
    ]


def test_no_hash_set_calls_in_src():
    hits = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        for hit in banned_calls(path.read_text(), str(path.relative_to(SRC.parent)))
    ]
    assert not hits, (
        "hash-set calls in src/repro; use repro.query.selection.sorted_unique, "
        "np.bincount or a boolean lookup table instead:\n" + "\n".join(hits)
    )
