"""The deviations of the `verify` suite: NaN fails a check, finite ones keep their values."""

import json
import math

import pytest

from permderiv import cli, verification
from permderiv.verification import rel_dev


@pytest.mark.parametrize("values", [[math.nan, 1], [1, math.nan], [2, 1, math.nan], [math.inf, 1]])
def test_a_nan_deviation_is_nan(values):
    dev = rel_dev(values)
    assert math.isnan(dev) and not dev <= 1e-10


def test_finite_deviations_are_unchanged():
    assert rel_dev([1.0]) == 0.0
    assert rel_dev([2.0, 2.0 + 1e-12]) == abs(2.0 - (2.0 + 1e-12)) / (2.0 + 1e-12)
    assert rel_dev([0.5, -0.25, 0.0]) == 0.75
    assert rel_dev([3j, -1.0]) == abs(3j + 1.0) / 3.0


def test_a_form_that_returns_nan_fails_verify_with_a_json_report(monkeypatch, capsys):
    monkeypatch.setattr(verification, "dkper_tensor", lambda A, dirs: complex(math.nan, 0.0))
    report = verification.run_verify(n=2, kmax=1)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["dkper_three_formulas"] == {
        "name": "dkper_three_formulas", "passed": False, "max_deviation": None, "tolerance": 1e-10,
    }
    assert all(c["passed"] for name, c in checks.items() if name != "dkper_three_formulas")
    assert report["passed"] is False and report["max_deviation"] is None
    assert cli.main(["verify", "--n", "2", "--kmax", "1"]) == 2  # failed, not an input error
    assert json.loads(capsys.readouterr().out)["checks"] == report["checks"]
