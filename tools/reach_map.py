"""Reach map: which ``src/repro`` functions and settings does no driver use?

    python tools/reach_map.py record-all DIR     # every line of tools/reach_drivers.txt
    python tools/reach_map.py record DIR -- python -m repro selftest
    python tools/reach_map.py report DIR

``record`` runs one driver with a generated ``sitecustomize`` first on
``PYTHONPATH``: it installs a ``sys.setprofile``/``threading.setprofile`` hook
in the driver and every Python child it starts and, at exit, dumps the ``(file,
function, first line)`` of each frame entered under ``src/repro``, one file per
process.  The same hook records *values*: the init fields of the dataclass
behind each ``__post_init__`` entered, and the arguments bound to each
``__init__`` and to the write doors ``PDCSystem.update_object_region`` /
``append_to_object`` (a value is its ``repr`` for scalars, strings and enums,
spelled out for short tuples, lists, dicts and dataclasses of them, else
``<type name>``).  ``record-all`` does that for each shell line of
``tools/reach_drivers.txt`` with DIR as the working directory and ``$REPO``
set.

``report`` keeps two ledgers against ``tools/reach_keep.txt``.  A function
(AST, decorator-aware first line) is entered, or kept (``path::Qualified.name
# reason``), or *unexplained*.  A settable value — a defaulted init field of a
dataclass with a ``__post_init__``, or a defaulted parameter of an
``__init__`` or of a write door — is given two values or more by the drivers,
or kept (``path::Class.field`` / ``path::Qualified.function(param)``), or, if
every driver leaves it at one value, *unexplained*: make it a constant.  A
setting whose function no driver enters is the function ledger's.  It prints
the unexplained ones and the keep entries gone stale (no such function or
setting, entered by now, or given a second value by now) and exits 1 if there
are any.  Two traps: pytest-benchmark's ``pedantic`` calls
``sys.setprofile(None)``, so a cleared profiler is re-installed;
``benchmarks/e2e`` ``--trace 1`` installs its own profiler, so record it with
``--trace 0``.  CI's ``reach`` job runs both steps (≈ 5 min).
"""

import ast
import os
import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent
ROOT = TOOLS.parent
SRC = ROOT / "src"
#: Functions other than ``__init__`` whose defaulted parameters are settings.
WRITE_DOORS = {"PDCSystem.update_object_region", "PDCSystem.append_to_object"}

SITECUSTOMIZE = '''
import atexit, dataclasses, enum, os, sys, threading
_root, _out, _seen, _values = os.environ["REACH_SRC"], os.environ["REACH_OUT"], set(), set()
_valued = {"__init__", "__post_init__", "update_object_region", "append_to_object"}
def _canon(v, depth=0):
    if v is None or isinstance(v, (bool, int, float, str)):
        return repr(v)
    if isinstance(v, enum.Enum):
        return "%s.%s" % (type(v).__name__, v.name)
    if type(v).__module__ == "numpy" and getattr(v, "ndim", None) == 0:
        return repr(v.item())
    if depth < 3 and isinstance(v, (tuple, list)) and len(v) <= 16:
        return "%s(%s)" % (type(v).__name__, ", ".join(_canon(x, depth + 1) for x in v))
    if depth < 3 and isinstance(v, dict) and len(v) <= 16:
        return "{%s}" % ", ".join(sorted(
            "%s: %s" % (_canon(k, depth + 1), _canon(x, depth + 1)) for k, x in v.items()))
    if depth < 3 and dataclasses.is_dataclass(v) and not isinstance(v, type):
        return "%s(%s)" % (type(v).__name__, ", ".join(
            "%s=%s" % (f.name, _canon(getattr(v, f.name, None), depth + 1))
            for f in dataclasses.fields(v)))
    return "<%s>" % type(v).__name__
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(_root):
        site = (code.co_filename, code.co_name, code.co_firstlineno)
        _seen.add(site)
        if code.co_name in _valued:
            local = frame.f_locals
            if code.co_name == "__post_init__":
                obj = local["self"]
                pairs = [(f.name, getattr(obj, f.name, None))
                         for f in dataclasses.fields(obj) if f.init]
            else:
                names = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
                pairs = [(n, local[n]) for n in names if n in local]
            _values.update(site + (n, _canon(v)) for n, v in pairs)
def _dump():
    pid = os.getpid()  # pids recur: append
    with open(os.path.join(_out, "reach-%d.tsv" % pid), "a") as f:
        f.writelines("%s\\t%s\\t%d\\n" % row for row in sorted(_seen))
    with open(os.path.join(_out, "values-%d.tsv" % pid), "a") as f:
        f.writelines("%s\\t%s\\t%d\\t%s\\t%s\\n" % row for row in sorted(_values))
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
               REPO=str(ROOT))
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


def classes(tree: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of every class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield prefix + node.name, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from classes(node, f"{prefix}{node.name}.")


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def settings(tree: ast.AST):
    """``(settable key, owner function's qualified name, field or parameter)``:
    defaulted init fields of dataclasses with a ``__post_init__`` (owner: the
    ``__post_init__``), defaulted parameters of ``__init__`` and the write doors."""
    for cls, node in classes(tree):
        body = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
        if "__post_init__" not in body:
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None and not _init_false(stmt.value)
                    and "ClassVar" not in ast.unparse(stmt.annotation)):
                yield f"{cls}.{stmt.target.id}", f"{cls}.__post_init__", stmt.target.id
    for qualname, _, node in functions(tree):
        if node.name == "__init__" or qualname in WRITE_DOORS:
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in defaulted:
                yield f"{qualname}({arg.arg})", qualname, arg.arg


def _rows(out: pathlib.Path, pattern: str):
    for dump in out.glob(pattern):
        for line in dump.read_text().splitlines():
            yield line.split("\t")


def report(out: pathlib.Path, root: pathlib.Path = ROOT, keep_file: pathlib.Path = None) -> int:
    entered = {(f, name, int(first)) for f, name, first in _rows(out, "reach-*.tsv")}
    values = {}  # (file, function, first line, name) -> {value}
    for f, name, first, param, value in _rows(out, "values-*.tsv"):
        values.setdefault((f, name, int(first), param), set()).add(value)
    keep = set()
    for line in (keep_file or TOOLS / "reach_keep.txt").read_text().splitlines():
        entry = line.split("#")[0].strip()
        if entry:
            keep.add(entry)
    total = kept = 0
    single = []  # (key, value, kept)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text())
        missed, lines, kept_lines = [], set(), set()  # sets: a nested function's lines count once
        sites = {}
        for qualname, first, node in functions(tree):
            sites[qualname] = (str(path), node.name, first)
            if sites[qualname] in entered:
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
        for key, owner, name in settings(tree):
            seen = values.get(sites.get(owner, ()) + (name,), set())
            if len(seen) == 1:
                single.append((f"{rel}::{key}", seen.pop(), f"{rel}::{key}" in keep))
                keep.discard(f"{rel}::{key}")
    unexplained = [(key, value) for key, value, is_kept in single if not is_kept]
    if unexplained:
        print(f"single-valued settings: {len(unexplained)} (every driver leaves one value)")
        print("".join(f"    {key} = {value}\n" for key, value in unexplained), end="")
    for entry in sorted(keep):
        print(f"stale keep entry (no such function or setting, entered by now, "
              f"or given a second value by now): {entry}")
    print(f"never entered: {total} lines ({kept} kept, {total - kept} unexplained)")
    print(f"single-valued: {len(single)} settings "
          f"({len(single) - len(unexplained)} kept, {len(unexplained)} unexplained)")
    print(f"stale: {len(keep)}, unexplained: {total - kept + len(unexplained)}")
    return 1 if keep or total > kept or unexplained else 0


if __name__ == "__main__":
    if len(sys.argv) >= 5 and sys.argv[1] == "record" and sys.argv[3] == "--":
        sys.exit(record(pathlib.Path(sys.argv[2]).resolve(), sys.argv[4:]))
    if len(sys.argv) == 3 and sys.argv[1] in ("record-all", "report"):
        run = record_all if sys.argv[1] == "record-all" else report
        sys.exit(run(pathlib.Path(sys.argv[2]).resolve()))
    sys.exit(__doc__)
