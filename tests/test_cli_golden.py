"""The demo commands print and write exactly what they did when recorded.

Each case runs ``repro.__main__.main`` in-process from a temporary
directory and compares the sha256 of its stdout (the temporary directory
replaced by ``<tmp>``) and of every file it writes against a recorded
value.  A refactor of the service, monitor, tracer or engine that moves
any answer, clock, sample or rendered line moves one of these digests.
"""

import hashlib

import pytest

from repro.__main__ import main

#: name -> (argv, files the command writes into the temporary directory)
CASES = {
    "serve": (["serve"], ()),
    "monitor": (
        ["monitor", "--watch", "--step", "0.02", "--openmetrics", "{tmp}/om.txt",
         "--series", "{tmp}/series.jsonl", "--alerts", "{tmp}/alerts.jsonl"],
        ("om.txt", "series.jsonl", "alerts.jsonl"),
    ),
    "metrics": (["metrics"], ()),
    "explain_multi": (["explain", "multi", "--analyze"], ()),
    "explain_or": (["explain", "or", "--analyze", "--strategy", "sort_hist"], ()),
    "profile": (
        ["profile", "multi", "--strategy", "sort_hist", "--flamegraph",
         "{tmp}/flame.collapsed", "--speedscope", "{tmp}/speedscope.json"],
        ("flame.collapsed", "speedscope.json"),
    ),
    "trace": (
        ["trace", "multi", "--strategy", "hist_index", "--out", "{tmp}/t.json",
         "--jsonl", "{tmp}/t.jsonl"],
        ("t.json", "t.jsonl"),
    ),
    "faults": (["faults", "--seed", "7", "--timeout", "0.02"], ()),
    "batch": (["batch"], ()),
    "selftest": (["selftest", "--report"], ()),
}

#: name -> {"stdout" or a file name: sha256}
GOLDEN = {
    "batch": {
        "stdout": "19ebc046d386b704eb4f3b023b49cd03371884fa6cb3f61f32f3bf077d1f51f5",
    },
    "explain_multi": {
        "stdout": "fc0dde0a3ddb1b91965b20e69dd95a086ca842461018b2fb2a0d9af59527d768",
    },
    "explain_or": {
        "stdout": "dd44ed9defdce08054cdfcca9c78848bc8cc5d9257656969c3957aeebaeeb07c",
    },
    "faults": {
        "stdout": "47d0648f5340c7d6c430989dc3db659daa7b64926eacd150250295545b4bf84c",
    },
    "metrics": {
        "stdout": "40d18fd1202e6562fb78a036a77eef910531b03c581ad55029cbbfd6ee856104",
    },
    "monitor": {
        "stdout": "d0ac8e09e135144f4bf682b060c2b7db8e76d8cd7c2a4146b840a3a7ab4dfdff",
        "alerts.jsonl": "bb58655e4994532c827d8edd9d7b4f5ae177d15c2d66f7cbd560411e87c65036",
        "om.txt": "30e41b63e6782c42bd8d2b9be390facbe468cf9195a304d484789318cf9e3e39",
        "series.jsonl": "51da4751203fac4d1dd084d8c4dbf8277b024f88e19371f6a52b6f947bd5fdc7",
    },
    "profile": {
        "stdout": "10b487599f51bfe81b01a51f7eee0496145c91cd1bf47b64d9e9140be8587541",
        "flame.collapsed": "562c90e6049325d68bcf7186d4f06bbe5bec049bac0e3c3ea4e24aaa898d92fb",
        "speedscope.json": "fe41272a8d98bc86908ef5b203e192965e99ab520c852acf3a2a28682de3117f",
    },
    "selftest": {
        "stdout": "1372c0b28411056d6b2c59a2acedd4f89fd1f3932c2c76a7c612700f0fda6a0a",
    },
    "serve": {
        "stdout": "e5e2a66700a2827c58f2a0c9b46d90f9c1587d5ce0bfa80ee5367932296f626a",
    },
    "trace": {
        "stdout": "65433396851316d0c5b0267ba2e30ea3c4a0fd0c9db62f65a5b5bc598b319eba",
        "t.json": "ec616a53c635bdf84e8cc291e64a0b76c66f3b0ede01df1f99830c039b0b2c74",
        "t.jsonl": "05e7824db655330466d36a1c1caf1f4abe0f76017c2b645640a09a3ad46dc862",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, tmp_path, capsys):
    argv, files = CASES[name]
    capsys.readouterr()
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    digests = {"stdout": _sha(out.encode())}
    for f in files:
        digests[f] = _sha((tmp_path / f).read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, tmp_path, capsys) == GOLDEN[name]
