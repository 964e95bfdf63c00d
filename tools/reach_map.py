"""Reach map: which ``src/repro`` functions does no non-test driver enter?

    python tools/reach_map.py record-all DIR     # every line of tools/reach_drivers.txt
    python tools/reach_map.py record DIR -- python -m repro selftest
    python tools/reach_map.py report DIR

``record`` runs one driver with a generated ``sitecustomize`` first on
``PYTHONPATH``: it installs a ``sys.setprofile``/``threading.setprofile`` hook
in the driver and every Python child it starts and, at exit, dumps the ``(file,
function, first line)`` of each frame entered under ``src/repro``, one file per
process.  ``record-all`` does that for each shell line of
``tools/reach_drivers.txt`` with DIR as the working directory and ``$REPO`` set.
``report`` is the ledger: a function (AST, decorator-aware first line) is
entered, or named with a reason in ``tools/reach_keep.txt``
(``path::Qualified.name  # reason``), or *unexplained*.  It prints the
unexplained ones and the keep entries gone stale (no such function, or entered
by now) and exits 1 if there are any.  Two traps: pytest-benchmark's
``pedantic`` calls ``sys.setprofile(None)``, so a cleared profiler is
re-installed; ``benchmarks/e2e`` ``--trace 1`` installs its own profiler, so
record it with ``--trace 0``.  Not a CI gate (≈ 5 min).
"""

import ast
import os
import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"

SITECUSTOMIZE = '''
import atexit, os, sys, threading
_root, _out, _seen = os.environ["REACH_SRC"], os.environ["REACH_OUT"], set()
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(_root):
        _seen.add((code.co_filename, code.co_name, code.co_firstlineno))
def _dump():
    with open(os.path.join(_out, "reach-%d.tsv" % os.getpid()), "a") as f:  # pids recur
        f.writelines("%s\\t%s\\t%d\\n" % row for row in sorted(_seen))
_set = sys.setprofile
sys.setprofile = lambda fn: _set(fn or _hook)  # a cleared profiler is re-installed
_set(_hook)
threading.setprofile(_hook)
atexit.register(_dump)
'''


def record(out: pathlib.Path, command, **popen_kwargs) -> int:
    out.mkdir(parents=True, exist_ok=True)
    (out / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = os.pathsep.join(filter(None, [str(out), str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, REACH_SRC=str(SRC / "repro"), REACH_OUT=str(out), PYTHONPATH=path,
               REPO=str(SRC.parent))
    return subprocess.call(command, env=env, **popen_kwargs)


def record_all(out: pathlib.Path) -> int:
    failed = 0
    for line in (TOOLS / "reach_drivers.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code = record(out, line, shell=True, cwd=out)
            print(f"[exit {code}] {line}", flush=True)
            failed += code != 0
    return 1 if failed else 0


def functions(tree: ast.AST, prefix: str = ""):
    """``(qualified name, first line, node)`` of every function, outermost first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, first, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from functions(node, f"{prefix}{node.name}.")
        else:
            yield from functions(node, prefix)


def report(out: pathlib.Path) -> int:
    entered = set()
    for dump in out.glob("reach-*.tsv"):
        for line in dump.read_text().splitlines():
            filename, name, lineno = line.split("\t")
            entered.add((filename, name, int(lineno)))
    keep = set()
    for line in (TOOLS / "reach_keep.txt").read_text().splitlines():
        entry = line.split("#")[0].strip()
        if entry:
            keep.add(entry)
    total = kept = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(SRC.parent))
        missed, lines, kept_lines = [], set(), set()  # sets: a nested function's lines count once
        for qualname, first, node in functions(ast.parse(path.read_text())):
            if (str(path), node.name, first) in entered:
                continue
            span = range(first, node.end_lineno + 1)
            lines.update(span)
            if f"{rel}::{qualname}" in keep:
                keep.discard(f"{rel}::{qualname}")
                kept_lines.update(span)
            elif first not in kept_lines:  # a kept function's closures are kept with it
                missed.append((first, qualname))
        total += len(lines)
        kept += len(kept_lines)
        if missed:
            print(f"{rel}: {len(missed)} functions")
            print("".join(f"    {first:>5}  {name}\n" for first, name in sorted(missed)), end="")
    for entry in sorted(keep):
        print(f"stale keep entry (entered by now, or no such function): {entry}")
    print(f"never entered: {total} lines ({kept} kept, {total - kept} unexplained)")
    print(f"stale: {len(keep)}, unexplained: {total - kept}")
    return 1 if keep or total > kept else 0


if __name__ == "__main__":
    if len(sys.argv) >= 5 and sys.argv[1] == "record" and sys.argv[3] == "--":
        sys.exit(record(pathlib.Path(sys.argv[2]).resolve(), sys.argv[4:]))
    if len(sys.argv) == 3 and sys.argv[1] in ("record-all", "report"):
        run = record_all if sys.argv[1] == "record-all" else report
        sys.exit(run(pathlib.Path(sys.argv[2]).resolve()))
    sys.exit(__doc__)
