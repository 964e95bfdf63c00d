"""Reach map: which ``src/repro`` functions does no non-test driver enter?

    python tools/reach_map.py record DIR -- python -m repro selftest
    python tools/reach_map.py record DIR -- python3 benchmarks/e2e/run.py --workload W --trace 0
    python tools/reach_map.py report DIR

``record`` runs one driver with a generated ``sitecustomize`` first on
``PYTHONPATH``: it installs a ``sys.setprofile``/``threading.setprofile`` hook
in the driver and every Python child it starts and, at exit, dumps the ``(file,
function, first line)`` of each frame entered under ``src/repro``, one file per
process.  ``report`` prints, per module, the functions (AST, decorator-aware
first line) no recorded driver entered.  Two traps: pytest-benchmark's
``pedantic`` calls ``sys.setprofile(None)``, so a cleared profiler is
re-installed; ``benchmarks/e2e`` ``--trace 1`` installs its own profiler, so
record it with ``--trace 0``.  Informational, not a CI gate.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

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


def record(out: pathlib.Path, command: list) -> int:
    out.mkdir(parents=True, exist_ok=True)
    (out / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = os.pathsep.join(filter(None, [str(out), str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, REACH_SRC=str(SRC / "repro"), REACH_OUT=str(out), PYTHONPATH=path)
    return subprocess.call(command, env=env)


def report(out: pathlib.Path) -> int:
    entered = set()
    for dump in out.glob("reach-*.tsv"):
        for line in dump.read_text().splitlines():
            filename, name, lineno = line.split("\t")
            entered.add((filename, name, int(lineno)))
    total = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        missed, lines = [], set()  # a set: a nested function's lines count once
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path), node.name, first) not in entered:
                    missed.append((first, node.name))
                    lines.update(range(first, node.end_lineno + 1))
        if missed:
            total += len(lines)
            print(f"{path.relative_to(SRC.parent)}: {len(missed)} functions, {len(lines)} lines")
            print("".join(f"    {first:>5}  {name}\n" for first, name in sorted(missed)), end="")
    print(f"never entered: {total} lines")
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 5 and sys.argv[1] == "record" and sys.argv[3] == "--":
        sys.exit(record(pathlib.Path(sys.argv[2]).resolve(), sys.argv[4:]))
    if len(sys.argv) == 3 and sys.argv[1] == "report":
        sys.exit(report(pathlib.Path(sys.argv[2]).resolve()))
    sys.exit(__doc__)
