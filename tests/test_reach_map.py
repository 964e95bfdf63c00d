"""The value ledger of ``tools/reach_map.py report``, on fabricated dumps.

A tiny ``src/repro`` tree holds one dataclass with a ``__post_init__`` and
one defaulted ``__init__`` parameter; the dumps say every function was
entered and which values the drivers gave.  No driver is run.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach_map.py"
spec = importlib.util.spec_from_file_location("reach_map", TOOL)
reach_map = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach_map)

SOURCE = '''\
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    name: str
    {field}

    def __post_init__(self) -> None:
        pass


class Engine:
    def __init__(self, config, width=8):
        self.width = width
'''
POST_INIT_LINE, INIT_LINE = 9, 14
KEEP_REASON = "src/repro/mod.py::Config.knob  # (5) the pinned digest sets 3\n"


def run(tmp_path, capsys, knob_values, keep="", field="knob: int = 1"):
    """Report on a tree whose ``Config`` declares ``field`` and whose dumps
    give ``Config.knob`` the ``knob_values`` (``Engine.__init__(width)``
    always gets two); returns the exit code and the printed report."""
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text(SOURCE.format(field=field))
    path = str(module)
    out = tmp_path / "dump"
    out.mkdir(exist_ok=True)
    (out / "reach-1.tsv").write_text(
        f"{path}\t__post_init__\t{POST_INIT_LINE}\n{path}\t__init__\t{INIT_LINE}\n"
    )
    rows = [f"{path}\t__post_init__\t{POST_INIT_LINE}\tknob\t{v}\n" for v in knob_values]
    rows += [f"{path}\t__post_init__\t{POST_INIT_LINE}\tname\t'a'\n"]
    rows += [f"{path}\t__init__\t{INIT_LINE}\twidth\t{w}\n" for w in (4, 8)]
    (out / "values-1.tsv").write_text("".join(rows))
    keep_file = tmp_path / "keep.txt"
    keep_file.write_text("# keep list\n" + keep)
    code = reach_map.report(out, root=tmp_path, keep_file=keep_file)
    return code, capsys.readouterr().out


def test_a_single_valued_field_is_unexplained(tmp_path, capsys):
    code, text = run(tmp_path, capsys, ["1"])
    assert code == 1
    assert "src/repro/mod.py::Config.knob = 1" in text
    assert "single-valued: 1 settings (0 kept, 1 unexplained)" in text
    assert text.rstrip().endswith("stale: 0, unexplained: 1")


def test_a_kept_single_valued_field_passes(tmp_path, capsys):
    code, text = run(tmp_path, capsys, ["1"], keep=KEEP_REASON)
    assert code == 0
    assert "single-valued: 1 settings (1 kept, 0 unexplained)" in text
    assert text.rstrip().endswith("stale: 0, unexplained: 0")


@pytest.mark.parametrize("case", ["field gone", "second value"])
def test_a_keep_entry_goes_stale(tmp_path, capsys, case):
    if case == "field gone":  # the knob became a constant
        code, text = run(tmp_path, capsys, [], keep=KEEP_REASON, field="")
    else:
        code, text = run(tmp_path, capsys, ["1", "3"], keep=KEEP_REASON)
    assert code == 1
    assert "stale keep entry" in text and "src/repro/mod.py::Config.knob" in text
    assert text.rstrip().endswith("stale: 1, unexplained: 0")


def test_a_field_given_two_values_passes(tmp_path, capsys):
    code, text = run(tmp_path, capsys, ["1", "3"])
    assert code == 0
    assert "single-valued: 0 settings" in text
    assert text.rstrip().endswith("stale: 0, unexplained: 0")
