import json
import subprocess
import sys

import numpy as np


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
