"""Byte-for-byte golden test of the command line.

Every verb runs in both modes under every --formula, plus the error paths
and one `verify`, in process through `cli.main`.  Each case's stdout and
exit code must equal the record in `cli_golden.json`.  After a deliberate
change of output, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints, for each entry that changed, the largest relative change
among its numbers and whether it is an exact-mode entry, and review its diff.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from permderiv import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"

A3 = [[1, [2, 1], 0], [0, 1, [2, -1]], [1, 0, [1, 1]]]
X3 = [[1, 0, [0, 1]], [0, 1, 0], [2, 0, 1]]
Y3 = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
A4 = [[0.5, -1.25, 2.0, 0.1], [1.5, 0.25, -0.3, 0.7], [-2.0, 0.9, 1.1, 0.4], [0.6, 0.05, -0.8, 1.3]]
X4 = [[0.2, 0.0, -1.0, 0.5], [1.0, 0.3, 0.0, -0.4], [0.0, 0.7, 0.1, 0.2], [-0.6, 0.0, 0.9, 1.0]]
Y4 = [[1.0, 0.5, 0.0, 0.0], [0.0, -1.0, 0.25, 0.0], [0.3, 0.0, 1.0, -0.2], [0.0, 0.8, 0.0, 0.5]]
Z4 = [[0.0, 0.1, 0.2, 0.3], [0.4, 0.0, 0.6, 0.7], [0.8, -0.9, 0.0, 1.1], [1.2, 1.3, -1.4, 0.0]]
A2 = [[1, 2], [3, 4]]
X2 = [[1, 0], [0, 1]]

JOB_VERBS = [v for v in cli.VERBS if v != "verify"]
FORMULAS = ("columns", "minors", "tensor", "all")


def _cases():
    cases = {}
    gaussian = json.dumps({"A": A3, "X": X3, "directions": [X3, Y3]})
    real = json.dumps({"A": A4, "X": X4, "directions": [X4, Y4, Z4]})
    for verb in JOB_VERBS:
        for formula in FORMULAS:
            for mode in ("floating", "exact"):
                argv = [verb, "--mode", mode, "--formula", formula, "--k", "2", "--r", "2"]
                cases[f"{verb}-{mode}-{formula}"] = (argv, gaussian)
            argv = [verb, "--formula", formula, "--k", "3", "--r", "3"]
            cases[f"{verb}-real-{formula}"] = (argv, real)
    only_x = json.dumps({"A": A3, "X": X3})
    for verb in ("dkper", "dkgr"):
        cases[f"{verb}-x-default-k"] = ([verb, "--r", "2"], only_x)
        cases[f"{verb}-x-k3-exact"] = ([verb, "--k", "3", "--r", "3", "--mode", "exact"], only_x)
    a2 = json.dumps({"A": A2})
    # the error paths, an exact result beyond the float range, and verify
    cases.update({
        "missing-x-dper": (["dper"], a2),
        "missing-x-bound-per": (["bound-per"], a2),
        "missing-x-before-r-bound-gr": (["bound-gr"], a2),
        "missing-r-bound-gr-weak": (["bound-gr-weak"], json.dumps({"A": A2, "X": X2})),
        "missing-r-gr": (["gr"], a2),
        "missing-r-dkgr": (["dkgr", "--k", "1"], json.dumps({"A": A2, "X": X2})),
        "missing-k-norm-dkper-bound": (["norm-dkper-bound"], a2),
        "missing-k-norm-dkgr": (["norm-dkgr", "--r", "1"], a2),
        "missing-r-norm-dkgr": (["norm-dkgr", "--k", "1"], a2),
        "missing-directions": (["dkper"], a2),
        "directions-not-a-list": (["dkper", "--k", "1"], json.dumps({"A": A2, "directions": 5})),
        "k-mismatch": (["dkper", "--k", "3"], json.dumps({"A": A2, "directions": [X2, X2]})),
        "direction-wrong-order": (["dkper"], json.dumps({"A": A2, "directions": [[[1]]]})),
        "r-out-of-range": (["gr", "--r", "5"], a2),
        "non-square": (["per"], "[[1,2,3],[4,5,6]]"),
        "ragged": (["per"], "[[1,2],[3]]"),
        "empty-matrix": (["per"], "[]"),
        "bad-json": (["per"], "not json"),
        "empty-input": (["per"], "  \n"),
        "no-a-key": (["per"], '{"B": [[1]]}'),
        "bad-entry": (["per"], '[["a",1],[1,2]]'),
        "bad-pair": (["per"], "[[[1,2,3],1],[1,2]]"),
        "nan-entry": (["per"], "[[NaN,2],[3,4]]"),
        "non-integer-exact": (["per", "--mode", "exact"], "[[1.5,0],[0,1]]"),
        "overflowing-result": (["per"], "[[1e308,1e308],[1e308,1e308]]"),
        "exact-beyond-float": (["per", "--mode", "exact"], "[[1e200,1e200],[1e200,1e200]]"),
        "missing-input-file": (["per", "--input", "no-such-job.json"], ""),
        "verify": (["verify", "--n", "3", "--kmax", "2", "--seed", "7"], ""),
    })
    return cases


CASES = _cases()


def _run(argv, stdin):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_bytes(name, golden):
    assert _run(*CASES[name]) == golden[name]


def test_verbs_match_readme():
    text = (HERE.parent / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listing = section.split("Verbs:", 1)[1].split(".", 1)[0]
    assert tuple(re.findall(r"`([a-z-]+)`", listing)) == tuple(cli.VERBS)


def _numbers(value) -> list:
    """The numbers of a parsed JSON value, in document order (keys sorted)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [value]
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _numbers(value[key])]
    return [x for item in value for x in _numbers(item)]


def _change(old: dict, new: dict) -> str:
    """The largest |new - old| / |old| over the numbers of two records' stdout, as text.

    inf when a zero moved; no number when the stdouts do not pair up number for number.
    """
    try:
        a, b = (_numbers(json.loads(record["stdout"])) for record in (old, new))
    except json.JSONDecodeError:
        return "its stdout is not JSON"
    if len(a) != len(b):
        return "its numbers do not pair up"
    changes = [abs(y - x) / abs(x) if x else (0.0 if y == x else math.inf) for x, y in zip(a, b)]
    return f"largest relative change {max(changes, default=0.0):.3g}"


def _is_exact(argv) -> bool:
    return "--mode" in argv and argv[argv.index("--mode") + 1] == "exact"


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    records = {name: _run(*case) for name, case in CASES.items()}
    for name, record in records.items():
        if name not in previous:
            print(f"{name}: new entry")
        elif record != previous[name]:
            exact = "  (exact-mode entry)" if _is_exact(CASES[name][0]) else ""
            print(f"{name}: {_change(previous[name], record)}{exact}")
    for name in sorted(set(previous) - set(records)):
        print(f"{name}: removed")
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
