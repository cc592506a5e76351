"""The permderiv benchmark: seeded closed-loop workloads, checked results.

One workload (the last stdout line is the result JSON; the exit code is 0
only when every request was correct):

    python3 bench/run.py --workload perm-float --seed 1 --seconds 25 --trace 0

Every workload untraced (end-to-end metrics) or traced (per-layer metrics),
each in its own process, with a table on stdout and the results and machine
metadata written to bench/out/BENCH_untraced.json or BENCH_traced.json:

    python3 bench/run.py --workload all
    python3 bench/run.py --workload all --trace 1

Load comes from one process and one client in a closed loop: the next
request starts when the previous one returns.  End-to-end metrics come only
from untraced runs, and every time among them is rescaled to one host speed
by a yardstick timed beside it (see yardstick.py).  A traced run sends each input twice, untraced and then
with the tracer installed, for --seconds in all; it reports the per-layer
metrics of the traced requests and the difference in wall time.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("perm-float", "gr-float", "exact-oracle", "cli-verify")
SETUP_REPEATS = 5
perf = time.perf_counter


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# -- set-up -----------------------------------------------------------------


def yardstick_for(name: str):
    """(yardstick, its nominal seconds, requests per yardstick time) of a workload."""
    import yardstick

    if name == "cli-verify":
        return yardstick.child_process, yardstick.CHILD_NOMINAL_S, 2
    return yardstick.in_process, yardstick.IN_PROCESS_NOMINAL_S, 1


def prepare(name: str, seed: int):
    """Import, seeded input pool and one untimed warm-up request.

    Returns (workload, pool, setup_s), the time rescaled by the median of
    three yardstick times taken right after.  For the library workloads the
    time includes the first import of numpy and permderiv, so it is only a
    true set-up time in a fresh process; for cli-verify it covers job
    generation and one warm-up invocation.
    """
    start = perf()
    import numpy as np

    import workloads

    if name == "cli-verify":
        start = perf()
    wl = workloads.build(name, str(ROOT))
    rng = np.random.default_rng(seed)
    pool = [wl.make_input(rng) for _ in range(workloads.POOL)]
    wl.request(pool[0])
    setup = perf() - start
    import yardstick

    probe, nominal, _ = yardstick_for(name)
    yard = statistics.median(probe() for _ in range(3))
    return wl, pool, yardstick.rescale(setup, yard, nominal)


def setup_samples(name: str, seed: int):
    """SETUP_REPEATS set-up times: in fresh processes for library workloads."""
    wl, pool, first = prepare(name, seed)
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        if name == "cli-verify":
            samples.append(prepare(name, seed)[2])
            continue
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            check=True,
        )
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return wl, pool, samples


# -- the closed loop ----------------------------------------------------------


def one_request(request, inp, i: int):
    """One timed request: (index, latency_s, result, error traceback)."""
    t0 = perf()
    try:
        out, err = request(inp), None
    except Exception:  # a failed request is counted, and the run goes on
        out, err = None, traceback.format_exc()
    return (i, perf() - t0, out, err)


def closed_loop(wl, pool, seconds: float, probe, every: int):
    """Requests back to back, the last one starting before `seconds` is up,
    and the yardstick `probe` timed after every `every`-th request.

    Returns the records, the index of the request before each yardstick time,
    and the yardstick times.
    """
    records, marks, yard = [], [], []
    start = perf()
    while perf() - start < seconds or not records:
        records.append(one_request(wl.request, pool[len(records) % len(pool)], len(records)))
        if len(records) % every == 0:
            marks.append(len(records) - 1)
            yard.append(probe())
    if not yard:
        marks.append(len(records) - 1)
        yard.append(probe())
    return records, marks, yard


def traced_pairs(wl, pool, seconds: float, tracer, traced_request=None):
    """Each input twice for `seconds`: untraced, then with the tracer installed.

    Pairing the two runs of one input keeps drift of a noisy machine out of
    the tracing overhead.  `traced_request` replaces the installed tracer
    (cli-verify traces inside its child process).
    """
    untraced, traced = [], []
    start = perf()
    for i in itertools.count():
        if perf() - start >= seconds:
            break
        inp = pool[i % len(pool)]
        untraced.append(one_request(wl.request, inp, i))
        if traced_request is not None:
            traced.append(one_request(traced_request, inp, i))
            continue
        tracer.install()
        tracer.request = i
        tracer.active = True
        traced.append(one_request(wl.request, inp, i))
        tracer.active = False
        tracer.uninstall()
    return untraced, traced


def count_failed(wl, pool, records) -> int:
    """Check every record; print the first few failures to stderr."""
    failed = 0
    for i, _, out, err in records:
        problems = [err] if err is not None else wl.check(pool[i % len(pool)], out)
        if problems:
            failed += 1
            if failed <= 3:
                print(f"bench: {wl.name} request {i} failed: {problems}", file=sys.stderr)
    return failed


# -- metrics ----------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(latencies, setup, peak_rss_kb, failed):
    """The end-to-end metrics from rescaled latencies and set-up times."""
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "throughput_rps": metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": metric(p90(latencies) * 1e3, "ms"),
        "success_rate": metric(1.0 - failed / len(latencies), "ratio"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        import yardstick

        wl, pool, setup = setup_samples(name, seed)
        probe, nominal, every = yardstick_for(name)
        records, marks, yard = closed_loop(wl, pool, seconds, probe, every)
        latencies = yardstick.rescale_all([r[1] for r in records], marks, yard, nominal)
        if name == "cli-verify":
            peak_kb = max(out.maxrss_kb for _, _, out, _ in records if out is not None)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = count_failed(wl, pool, records)
        return {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": end_to_end(latencies, setup, peak_kb, failed),
        }

    import tracing
    import workloads

    wl, pool, _ = prepare(name, seed)
    tracer = tracing.Tracer()
    cli_times = None
    OUT.mkdir(exist_ok=True)
    if name == "cli-verify":
        tmp = Path(tempfile.mkdtemp(dir=OUT))
        paths = (str(tmp / f"request-{i}.json") for i in itertools.count())
        untraced, traced = traced_pairs(
            wl, pool, seconds, tracer,
            traced_request=lambda s: workloads.cli_request(str(ROOT), s, next(paths)),
        )
        cli_times = {"import_s": 0.0, "main_s": 0.0, "process_s": 0.0}
        for i, _, out, _ in traced:
            try:
                with open(out.trace_path) as fh:
                    child = json.load(fh)
            except (OSError, ValueError, AttributeError):
                continue  # the request failed; its check counts it
            tracer.merge(child, request=i)
            cli_times["import_s"] += child["import_s"]
            cli_times["main_s"] += child["main_s"]
            cli_times["process_s"] += out.wall_s - child["main_s"]
        shutil.rmtree(tmp)
    else:
        untraced, traced = traced_pairs(wl, pool, seconds, tracer)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    failed = count_failed(wl, pool, untraced) + count_failed(wl, pool, traced)
    n = len(traced)
    overhead_s = sum(r[1] for r in traced) - sum(r[1] for r in untraced)
    metrics = tracing.layer_metrics(tracer, n, cli_times)
    metrics["trace.overhead_s"] = metric(overhead_s, "s")
    metrics["trace.overhead_pct"] = metric(
        100.0 * overhead_s / sum(r[1] for r in untraced), "%"
    )
    return {
        "correct": failed == 0,
        "attempted": len(untraced) + n,
        "failed": failed,
        "metrics": metrics,
    }


# -- metadata ---------------------------------------------------------------


def metadata() -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = git.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "permderiv").glob("*.py"))
    )
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "src_permderiv_lines": src_lines,
    }


# -- every workload -----------------------------------------------------------


def run_all(seed: int, seconds: float, trace: int) -> int:
    results = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        results[name] = json.loads(lines[-1])
        res = results[name]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    label = "traced" if trace else "untraced"
    report = {"meta": metadata(), "seed": seed, "seconds": seconds, "trace": trace,
              "workloads": results}
    path = OUT / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"written": str(path.relative_to(ROOT)), "all_correct": code == 0}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        return fail("refusing to run under -O: dper's in-library check would be skipped")
    if not (SRC / "permderiv" / "__init__.py").is_file():
        return fail(f"no permderiv package under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": prepare(args.workload, args.seed)[2]}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": metadata()}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
