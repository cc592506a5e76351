import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from test_derivatives import _dominant_a


def run_cli(args, payload=None):
    cmd = [sys.executable, "-m", "permderiv.cli", *args]
    proc = subprocess.run(
        cmd,
        input=payload or "",
        capture_output=True,
        text=True,
    )
    return proc


def test_per_verb():
    proc = run_cli(["per"], "[[1,2],[3,4]]")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == [10.0, 0.0]


def test_per_complex_entries():
    proc = run_cli(["per"], '[[[0,1],[1,0]],[[1,0],[0,1]]]')
    report = json.loads(proc.stdout)
    # [[i, 1], [1, i]] has permanent i*i + 1 = 0
    assert report["value"] == [0.0, 0.0]


def test_padj_verb():
    proc = run_cli(["padj"], "[[1,2],[3,4]]")
    assert json.loads(proc.stdout)["matrix"] == [
        [[4.0, 0.0], [3.0, 0.0]],
        [[2.0, 0.0], [1.0, 0.0]],
    ]


def test_dper_verb():
    payload = json.dumps({"A": [[1, 2], [3, 4]], "X": [[1, 0], [0, 1]]})
    proc = run_cli(["dper"], payload)
    assert json.loads(proc.stdout)["value"] == [5.0, 0.0]


def test_dkper_all_integer_instance():
    payload = json.dumps(
        {
            "A": [[1, 2, 0], [0, 1, 2], [1, 0, 1]],
            "directions": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [1, 0, 0], [0, 0, 2]],
            ],
        }
    )
    proc = run_cli(["dkper", "--k", "2", "--formula", "all", "--mode", "exact"], payload)
    report = json.loads(proc.stdout)
    assert report["max_deviation"] == 0.0
    assert (
        report["values"]["columns"]
        == report["values"]["minors"]
        == report["values"]["tensor"]
    )


def test_dkper_single_formula():
    payload = json.dumps({"A": [[1, 0], [0, 1]], "X": [[1, 0], [0, 1]]})
    proc = run_cli(["dkper", "--k", "2", "--formula", "columns"], payload)
    report = json.loads(proc.stdout)
    assert report["value"] == [2.0, 0.0]  # D^2 per(I)(I, I) = 2! per(I) = 2


def test_gr_and_charpoly():
    payload = json.dumps({"A": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    proc = run_cli(["gr", "--r", "2"], payload)
    assert json.loads(proc.stdout)["value"] == [11.0, 0.0]
    proc = run_cli(["charpoly"], payload)
    assert json.loads(proc.stdout)["g"] == [[6.0, 0.0], [11.0, 0.0], [6.0, 0.0]]


def test_charpoly_of_huge_entries_is_finite():
    # the 2 x 2 minor 1e200 * 1e200 - 1e200 * 1e200 overflows to inf - inf by
    # Leibniz; det_batch takes such minors by LU instead
    A = [[1e200, 1e200, 0], [1e200, 1e200, 0], [0, 0, 1]]
    proc = run_cli(["charpoly"], json.dumps({"A": A}))
    assert proc.returncode == 0, proc.stdout
    g = [complex(*z) for z in json.loads(proc.stdout)["g"]]
    M = np.array(A)
    for r, value in enumerate(g, 1):
        minors = sum(np.linalg.det(M[np.ix_(I, I)]) for I in itertools.combinations(range(3), r))
        assert abs(value - minors) <= 1e-12 * abs(minors)


def test_dkgr_verb():
    payload = json.dumps(
        {"A": [[1, 0], [0, 1]], "directions": [[[1, 0], [0, 1]]]}
    )
    proc = run_cli(["dkgr", "--k", "1", "--r", "1", "--formula", "all"], payload)
    report = json.loads(proc.stdout)
    assert report["values"]["columns"] == [2.0, 0.0]
    assert report["max_deviation"] < 1e-12


def test_norm_verbs():
    payload = json.dumps({"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    proc = run_cli(["norm-dkper-bound", "--k", "1"], payload)
    assert json.loads(proc.stdout)["bound"] == 3.0
    proc = run_cli(["norm-dkgr", "--k", "1", "--r", "2"], payload)
    assert json.loads(proc.stdout)["value"] == 6.0


def test_bound_verbs():
    payload = json.dumps({"A": [[1, 0], [0, 1]], "X": [[0.5, 0], [0, 0.5]]})
    proc = run_cli(["bound-per"], payload)
    assert abs(json.loads(proc.stdout)["bound"] - (2 * 0.5 + 0.25)) < 1e-12
    proc = run_cli(["bound-gr", "--r", "2"], payload)
    assert abs(json.loads(proc.stdout)["bound"] - 1.25) < 1e-12
    proc = run_cli(["bound-gr-weak", "--r", "2"], payload)
    assert json.loads(proc.stdout)["bound"] >= 1.25


def test_input_error_exit_code():
    proc = run_cli(["per"], "not json")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["error"] == "input"
    assert "detail" in report


def test_non_square_rejected():
    proc = run_cli(["per"], "[[1,2,3],[4,5,6]]")
    assert proc.returncode == 1


def test_missing_required_flag():
    proc = run_cli(["gr"], "[[1,0],[0,1]]")
    assert proc.returncode == 1


def test_verify_passes():
    proc = run_cli(["verify", "--n", "3", "--kmax", "2", "--seed", "7"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_deterministic():
    a = run_cli(["verify", "--n", "3", "--kmax", "2", "--seed", "7"])
    b = run_cli(["verify", "--n", "3", "--kmax", "2", "--seed", "7"])
    assert a.stdout == b.stdout


def test_exact_mode_rejects_non_integer():
    proc = run_cli(["per", "--mode", "exact"], "[[1.5,0],[0,1]]")
    assert proc.returncode == 1


def _input_error(proc):
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["error"] == "input"
    return report


def test_non_finite_entry_rejected():
    _input_error(run_cli(["per"], "[[NaN,2],[3,4]]"))
    _input_error(run_cli(["norm-dkgr", "--k", "1", "--r", "2"], '{"A": [[NaN,2],[3,4]]}'))


def test_non_finite_result_rejected():
    # finite entries whose permanent overflows to infinity
    _input_error(run_cli(["per"], "[[1e308,1e308],[1e308,1e308]]"))


def test_dper_whose_value_overflows_is_an_input_error():
    # finite entries whose first derivative overflows: the same JSON error,
    # and no AssertionError from dper's cross-check, with and without -O
    payload = '{"A": [[-0.83, 1.21], [-1, 1e308]], "X": [[-18446744073709551616, -2], [1e200, -3]]}'
    expected = {"error": "input", "detail": "Out of range float values are not JSON compliant"}
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "permderiv.cli", "dper"],
            input=payload, capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout) == expected


def test_dper_of_an_a_that_dwarfs_x():
    # dper's cross-check allows the rounding of Ryser's formula and ends in JSON
    pairs = ([[[z.real, z.imag] for z in row] for row in M] for M in _dominant_a(3))
    proc = run_cli(["dper"], json.dumps(dict(zip("AX", pairs))))
    assert proc.returncode == 0 and proc.stderr == ""
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["command"] == "dper"


def test_directions_must_be_a_list():
    payload = json.dumps({"A": [[1, 0], [0, 1]], "directions": 5})
    _input_error(run_cli(["dkper", "--k", "1"], payload))


def test_exact_per_beyond_float_range():
    proc = run_cli(["per", "--mode", "exact"], "[[1e200,1e200],[1e200,1e200]]")
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["value"] == [2 * int(1e200) ** 2, 0]


def test_exact_per_is_exact_in_json():
    from permderiv.permanent import per
    from permderiv.scalars import exact_matrix

    rng = np.random.default_rng(12)
    rows = rng.integers(-99, 100, (12, 12, 2)).tolist()
    value = per(exact_matrix(rows))
    proc = run_cli(["per", "--mode", "exact"], json.dumps(rows))
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)["value"]
    assert out == [value.re, value.im]
    assert all(type(part) is int for part in out)


def test_boolean_entries_rejected():
    for payload, mode in [
        ("[[true,false],[1,2]]", "floating"),
        ("[[[true,1]]]", "floating"),
        ("[[1,0],[false,1]]", "exact"),
    ]:
        report = _input_error(run_cli(["per", "--mode", mode], payload))
        assert report["detail"].startswith("matrix entry must be a number or [re, im] pair")


def test_exact_non_integral_part_is_a_fraction_string():
    from fractions import Fraction

    from permderiv.cli import _out
    from permderiv.scalars import ExactComplex

    assert _out({"value": ExactComplex(Fraction(-3, 2), 4)}) == {"value": ["-3/2", 4]}


def test_overflowing_result_writes_nothing_to_stderr():
    proc = run_cli(["per"], '{"A": [[1e308,1e308],[1e308,1e308]]}')
    _input_error(proc)
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "args, detail",
    [
        (["--n", "0"], "--n must be >= 1"),
        (["--n", "-3"], "--n must be >= 1"),
        (["--kmax", "-1"], "--kmax must be >= 0"),
        (["--tolerance", "nan"], "--tolerance must be finite and >= 0"),
        (["--tolerance", "inf"], "--tolerance must be finite and >= 0"),
        (["--tolerance", "-1"], "--tolerance must be finite and >= 0"),
        (["--seed", "-1"], "--seed must be >= 0"),
    ],
    ids=["n-0", "n-negative", "kmax-negative", "tolerance-nan", "tolerance-inf",
         "tolerance-negative", "seed-negative"],
)
def test_verify_rejects_bad_arguments_before_any_work(args, detail, capsys, monkeypatch):
    from permderiv import cli

    def no_work(**kwargs):
        raise AssertionError("verify started work on invalid arguments")

    monkeypatch.setattr(cli, "run_verify", no_work)
    assert cli.main(["verify", *args]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "input", "detail": detail}


def test_exact_output_beyond_the_int_digit_limit(tmp_path, capsys):
    # per [[a, a], [a, a]] = 2 a^2 has 4401 digits, beyond Python's default
    # 4300-digit int/str limit, which main lifts for the job and restores
    from permderiv import cli

    a = 10**2200
    path = tmp_path / "job.json"
    path.write_text('{"A": [[%d, %d], [%d, %d]]}' % (a, a, a, a))
    limit = sys.get_int_max_str_digits()
    assert cli.main(["per", "--mode", "exact", "--input", str(path)]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        value = json.loads(out)["value"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert value == [2 * 10**4400, 0]
