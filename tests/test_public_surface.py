"""The names other code reaches for exist: every ``__all__`` entry resolves,
and every callable the repo benchmark wraps from outside is still where its
instrument (``benchmarks/e2e/trace.py``, read-only here) looks for it.  A
rename that breaks either breaks a caller tier-1 otherwise never runs."""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import repro

TRACE_PY = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "trace.py"


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name != "repro.__main__"
    ]
    missing = []
    for module_name in names:
        module = importlib.import_module(module_name)
        missing += [
            f"{module_name}.{n}" for n in getattr(module, "__all__", ())
            if not hasattr(module, n)
        ]
    assert not missing, f"__all__ entries that name nothing: {missing}"


def test_benchmark_trace_targets_exist():
    if not TRACE_PY.exists():
        pytest.skip("benchmarks/e2e/trace.py not in this checkout")
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in trace.targets()
        if attr not in vars(owner)  # what ``traced`` itself looks up
    ]
    assert not missing, f"benchmark wraps callables that are gone: {missing}"
