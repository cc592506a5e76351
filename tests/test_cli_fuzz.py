"""A generative fuzz of the CLI contract, run in process through `cli.main`.

Random jobs of every job verb, on matrices of order 0..4 whose entries mix
small ints, [re, im] pairs, floats, 1e200, 2^70, booleans, strings, nulls
and ragged rows, with random --k, --r, --formula and --mode.  Whatever the
job, the exit code is 0, 1 or 2, stdout is one line of strict JSON, exit 1
reports {"error": ...}, and an exact result has int or "p/q" parts.  On
small Gaussian-integer input, both modes compute every result verb and
agree to rounding.
"""

import contextlib
import io
import json
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from permderiv import cli
from permderiv.derivatives import FORMULAS

JOB_VERBS = tuple(cli.HANDLERS)
# the fields that hold exact results; norms and bounds stay reals in both modes
EXACT_FIELDS = ("value", "values", "matrix", "g")
EXACT_VERBS = ("per", "padj", "dper", "dkper", "gr", "charpoly", "dkgr")

small = st.integers(-4, 4)
integral = st.one_of(
    small, small, st.lists(small, min_size=2, max_size=2), st.sampled_from([1e200, -1e200, 2**70, -(2**70)])
)
real = st.one_of(integral, st.floats(-8, 8), st.lists(st.floats(-8, 8), min_size=2, max_size=2))
junk = st.one_of(real, real, st.sampled_from([1e308, True, False, "1", None, [1], [1, 2, 3], [[1, 2]]]))
# a job draws all its entries from one of these palettes
palettes = st.sampled_from([integral, integral, real, junk])


@st.composite
def matrices(draw, n, entries):
    """An n x n array of rows of entries; a row of a junk job may be short."""
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n and entries is junk and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))].pop()
    return rows


@st.composite
def jobs(draw):
    """(argv, stdin text) of one random job."""
    n, entries = draw(st.integers(0, 4)), draw(palettes)
    job = {"A": draw(matrices(n, entries))}
    if draw(st.integers(0, 3)):
        job["X"] = draw(matrices(n, entries))
    if not draw(st.integers(0, 3)):
        job["directions"] = [draw(matrices(n, entries)) for _ in range(draw(st.integers(0, 3)))]
    argv = [draw(st.sampled_from(JOB_VERBS))]
    for flag, values in (("--k", st.integers(0, 4)), ("--r", st.integers(0, 5))):
        if draw(st.integers(0, 3)):
            argv += [flag, str(draw(values))]
    argv += ["--formula", draw(st.sampled_from((*FORMULAS, "all")))]
    argv += ["--mode", draw(st.sampled_from(("exact", "floating")))]
    return argv, json.dumps(job)


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def _exact_parts(value):
    """Every part of the [re, im] pairs in a report field."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _exact_parts(v)]
    if isinstance(value, list) and len(value) == 2 and not any(isinstance(x, list) for x in value):
        return value
    return [x for v in value for x in _exact_parts(v)]


def _is_exact_part(x) -> bool:
    if isinstance(x, str) and re.fullmatch(r"-?\d+/\d+", x):
        return Fraction(x).denominator > 1
    return type(x) is int


@st.composite
def agreeing_jobs(draw, verb):
    """(argv without --mode, stdin text) of a verb job on Gaussian integers with
    parts in [-4, 4], n = 1..6; k <= min(3, n, r)."""
    argv, n = [verb], draw(st.integers(1, 6))

    def matrix():
        return draw(st.lists(st.lists(st.lists(small, min_size=2, max_size=2), min_size=n, max_size=n),
                             min_size=n, max_size=n))

    job = {"A": matrix()}
    r = n
    if verb in ("gr", "dkgr"):
        r = draw(st.integers(1, n))
        argv += ["--r", str(r)]
    if verb in ("dkper", "dkgr"):
        k = draw(st.integers(1, min(3, r)))
        job["directions"] = [matrix() for _ in range(k)]
        argv += ["--k", str(k), "--formula", "all"]
    if verb == "dper":
        job["X"] = matrix()
    return argv, json.dumps(job)


def _run(argv, text):
    """cli.main on argv with text as stdin: (exit code, the one JSON line it printed)."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().split("\n")
    assert len(lines) == 2 and lines[1] == ""
    return code, json.loads(lines[0], parse_constant=_strict)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(jobs())
def test_every_job_keeps_the_cli_contract(job):
    argv, text = job
    code, report = _run(argv, text)
    assert code in (0, 1, 2)
    assert isinstance(report, dict)
    if code == 1:
        assert "error" in report
    elif argv[argv.index("--mode") + 1] == "exact" and argv[0] in EXACT_VERBS:
        fields = [report[name] for name in EXACT_FIELDS if name in report]
        assert fields and all(map(_is_exact_part, _exact_parts(fields)))


@pytest.mark.parametrize("verb", EXACT_VERBS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exact_and_floating_results_agree(verb, data):
    argv, text = data.draw(agreeing_jobs(verb))
    (exact_code, exact), (floating_code, floating) = (
        _run(argv + ["--mode", mode], text) for mode in ("exact", "floating")
    )
    assert exact_code == floating_code == 0 and exact.keys() == floating.keys()
    fields = [name for name in EXACT_FIELDS if name in exact]
    assert fields
    for name in fields:
        exact_parts = [Fraction(x) for x in _exact_parts(exact[name])]
        floating_parts = _exact_parts(floating[name])
        assert len(exact_parts) == len(floating_parts)
        scale = max(1, *map(abs, exact_parts))
        for x, y in zip(exact_parts, floating_parts):
            assert abs(float(x) - y) <= 1e-9 * scale
