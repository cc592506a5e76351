"""Self-tests of the benchmark.

    python3 -m pytest bench -q

The checkers must fail a request whose result is slightly wrong, the tracer
must separate the layers as the workloads intend, and a tiny run must emit
exactly the metric names listed in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import permderiv as pd  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SEED = 5


def _one(name):
    wl = workloads.build(name, str(ROOT))
    inp = wl.make_input(np.random.default_rng(SEED))
    return wl, inp, wl.request(inp)


def _failed(wl, inp, out, err=None):
    return run.count_failed(wl, [inp], [(0, 0.0, out, err)])


@pytest.mark.parametrize("name", ["perm-float", "gr-float"])
@pytest.mark.parametrize("form", ["columns", "minors", "tensor"])
def test_float_form_off_by_1e6_relative_fails(name, form):
    wl, inp, out = _one(name)
    assert _failed(wl, inp, out) == 0
    out[form] *= 1 + 1e-6
    assert _failed(wl, inp, out) == 1


@pytest.mark.parametrize("key", ["dper", "per_B"])
def test_perm_float_identities_catch_errors(key):
    wl, inp, out = _one("perm-float")
    out[key] *= 1 + 1e-6
    assert _failed(wl, inp, out) == 1


@pytest.mark.parametrize("key", ["charpoly", "norm", "gr_bound", "gr_bound_weak", "per_bound"])
def test_gr_float_references_catch_errors(key):
    wl, inp, out = _one("gr-float")
    value = out[key]
    out[key] = tuple(v * (1 + 1e-6) for v in value) if key == "charpoly" else value * (1 + 1e-6)
    assert _failed(wl, inp, out) == 1


@pytest.mark.parametrize("side", ["per", "gr"])
@pytest.mark.parametrize("form", ["columns", "minors", "tensor", "oracle"])
def test_exact_value_off_by_one_fails(side, form):
    wl, inp, out = _one("exact-oracle")
    assert _failed(wl, inp, out) == 0
    out[side][form] = out[side][form] + 1
    assert _failed(wl, inp, out) == 1


def test_exception_counts_as_failed():
    wl, inp, out = _one("exact-oracle")
    assert _failed(wl, inp, None, err="Traceback ...") == 1


def test_cli_checker():
    wl, seed, out = _one("cli-verify")
    assert _failed(wl, seed, out) == 0
    report = json.loads(out.stdout)
    bad = [
        workloads.CliResult(2, out.stdout, out.wall_s, out.maxrss_kb),
        workloads.CliResult(0, out.stdout[:-5], out.wall_s, out.maxrss_kb),
        workloads.CliResult(0, json.dumps({**report, "passed": False}), out.wall_s, out.maxrss_kb),
    ]
    for result in bad:
        assert _failed(wl, seed, result) == 1


def test_rescaling_cancels_a_slower_host():
    # The host slows to half speed after request 20: latency and yardstick
    # double, and the requests whose nearest yardstick times are all from
    # one side of the change are rescaled exactly.
    latencies = [0.1] * 20 + [0.2] * 20
    yard = [0.007] * 20 + [0.014] * 20
    scaled = yardstick.rescale_all(latencies, list(range(40)), yard, 0.007)
    assert scaled[:17] + scaled[23:] == pytest.approx([0.1] * 34)
    assert all(0.05 < s < 0.2 for s in scaled)
    # A slower program on a steady host shows in full.
    scaled = yardstick.rescale_all(latencies, list(range(40)), [0.014] * 40, 0.007)
    assert scaled == pytest.approx([0.05] * 20 + [0.1] * 20)
    # One yardstick time per second request, and a single one for a tiny run.
    assert yardstick.rescale_all([0.3] * 6, [1, 3, 5], [0.25] * 3, 0.125) == pytest.approx([0.15] * 6)
    assert yardstick.rescale_all([0.3], [0], [0.25], 0.125) == pytest.approx([0.15])


def _traced(name):
    wl = workloads.build(name, str(ROOT))
    inp = wl.make_input(np.random.default_rng(SEED))
    tracer = tracing.Tracer()
    original = pd.per
    tracer.install()
    tracer.active = True
    tracer.request = 0
    try:
        wl.request(inp)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert pd.per is original and pd.permanent.per is original and pd.tensor.per is original
    return {k: v["value"] for k, v in tracing.layer_metrics(tracer, 1).items()}


def test_tracer_separates_the_layers():
    perm, gr, exact = _traced("perm-float"), _traced("gr-float"), _traced("exact-oracle")
    assert perm["derivatives.dper.per_calls_per_call"] == 105  # n=7: 49 + 7 + 49
    assert perm["permanent.per_batch.calls"] == 6
    assert gr["permanent.per.calls"] == 0
    assert perm["norms.svd.calls"] == 0 and exact["norms.svd.calls"] == 0
    assert gr["norms.svd.calls"] > 0
    assert perm["scalars.exact_ops"] == 0 and gr["scalars.exact_ops"] == 0
    assert exact["scalars.exact_ops"] > 0 and exact["tensor.det_bareiss.self_s"] > 0
    assert exact["oracle.mixed_partial_interp.evals"] > 0


def _bench(args, cwd=ROOT, flags=()):
    return subprocess.run(
        [sys.executable, *flags, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_the_benchmark_metric_names(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(["--workload", "perm-float", "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert all(m["unit"] == units[name] for name, m in result["metrics"].items())


def test_refuses_to_run_under_optimize():
    proc = _bench(["--workload", "perm-float", "--seconds", "1"], flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "perm-float", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
