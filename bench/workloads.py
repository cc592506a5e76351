"""The benchmark's workloads: seeded inputs, one request, and its output check.

A request is a fixed bundle of public library calls (or one CLI process),
so every request of a workload costs about the same.  Each check recomputes
the result by a different code path and returns the list of mismatches; an
empty list means the request is correct.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Callable

import numpy as np

import permderiv as pd

POOL = 16  # distinct seeded inputs per run, cycled in order
FORM_TOL = 1e-10  # cross-form agreement, as in acceptance criterion 01
CHARPOLY_TOL = 1e-9  # principal minors vs Faddeev-LeVerrier, as in `verify`

PERM_N, PERM_K, PERM_B_N = 7, 2, 12
GR_N, GR_K, GR_R = 7, 2, 4
EXACT_N, EXACT_PER_K, EXACT_GR_K, EXACT_GR_R = 5, 1, 2, 3
EXACT_RANGE = 4  # Gaussian-integer parts in [-4, 4]
CLI_ARGS = ("verify", "--n", "3", "--kmax", "2")


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[np.random.Generator], object]
    request: Callable[[object], object]
    check: Callable[[object, object], list]


def rel_dev(values) -> float:
    """Largest pairwise difference over max(largest magnitude, 1)."""
    values = list(values)
    scale = max(max(abs(v) for v in values), 1.0)
    return max(
        (abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]), default=0.0
    ) / scale


def _complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _gaussian_integer(rng, n):
    re = rng.integers(-EXACT_RANGE, EXACT_RANGE + 1, (n, n))
    im = rng.integers(-EXACT_RANGE, EXACT_RANGE + 1, (n, n))
    return pd.exact_matrix([[(int(re[i, j]), int(im[i, j])) for j in range(n)] for i in range(n)])


def _forms_agree(label, values, bad):
    dev = rel_dev(values)
    if not dev <= FORM_TOL:
        bad.append(f"{label}: relative deviation {dev:.3e} > {FORM_TOL:g}")


# -- perm-float ---------------------------------------------------------------


def _perm_input(rng):
    return {
        "A": _complex(rng, PERM_N),
        "X": tuple(_complex(rng, PERM_N) for _ in range(PERM_K)),
        "B": _complex(rng, PERM_B_N),
    }


def _perm_request(inp):
    A, X = inp["A"], inp["X"]
    return {
        "columns": pd.dkper(A, X, formula="columns"),
        "minors": pd.dkper(A, X, formula="minors"),
        "tensor": pd.dkper(A, X, formula="tensor"),
        "dper": pd.dper(A, X[0]),
        "padj": pd.padj(A),
        "per_B": pd.per(inp["B"]),
    }


@lru_cache(maxsize=None)
def _glynn_signs(k: int) -> np.ndarray:
    return np.array([(1,) + d for d in product((1, -1), repeat=k - 1)], dtype=float)


def glynn_stack(M: np.ndarray) -> np.ndarray:
    """Permanents of a stack of k x k matrices by Glynn's formula."""
    k = M.shape[-1]
    signs = _glynn_signs(k)
    sums = np.matmul(signs, M)  # (m, D, k): signed row sums per column
    prods = sums[..., 0]
    for j in range(1, k):  # much faster than a complex prod() reduction
        prods = prods * sums[..., j]
    return (prods @ signs.prod(axis=1)) / 2 ** (k - 1)


@lru_cache(maxsize=None)
def _halves(n: int):
    cols = list(combinations(range(n), n // 2))
    comp = [tuple(j for j in range(n) if j not in J) for J in cols]
    return np.array(cols), np.array(comp)


def laplace_per(B: np.ndarray) -> complex:
    """per B by Laplace expansion along its first half of rows."""
    h = B.shape[0] // 2
    cols, comp = _halves(B.shape[0])
    top = B[:h][:, cols].transpose(1, 0, 2)
    bottom = B[h:][:, comp].transpose(1, 0, 2)
    return complex((glynn_stack(top) * glynn_stack(bottom)).sum())


def _perm_check(inp, out):
    bad = []
    _forms_agree("dkper columns/minors/tensor", [out["columns"], out["minors"], out["tensor"]], bad)
    _forms_agree("dper vs sum padj*X", [out["dper"], complex((out["padj"] * inp["X"][0]).sum())], bad)
    _forms_agree("per(B) vs Laplace", [out["per_B"], laplace_per(inp["B"])], bad)
    return bad


# -- gr-float -----------------------------------------------------------------


def _gr_input(rng):
    return {"A": _complex(rng, GR_N), "X": tuple(_complex(rng, GR_N) for _ in range(GR_K))}


def _gr_request(inp):
    A, X = inp["A"], inp["X"]
    return {
        "columns": pd.dk_gr(A, X, GR_K, GR_R, formula="columns"),
        "minors": pd.dk_gr(A, X, GR_K, GR_R, formula="minors"),
        "tensor": pd.dk_gr(A, X, GR_K, GR_R, formula="tensor"),
        "charpoly": pd.charpoly_all(A).g,
        "norm": pd.dk_gr_norm_exact(A, 1, GR_R).value,
        "gr_bound": pd.gr_perturb_bound(A, X[0], GR_R).value,
        "gr_bound_weak": pd.gr_perturb_bound_weak(A, X[0], GR_R).value,
        "per_bound": pd.per_perturb_bound(A, X[0]).value,
    }


def _esym(values, j):
    """j-th elementary symmetric polynomial of real values."""
    return float(np.real(np.poly(-np.asarray(values))[j]))


def _gr_check(inp, out):
    bad = []
    A, X = inp["A"], inp["X"][0]
    n, r = GR_N, GR_R
    _forms_agree("dk_gr columns/minors/tensor", [out["columns"], out["minors"], out["tensor"]], bad)
    fl = pd.faddeev_leverrier(A)
    dev = max(abs(a - b) for a, b in zip(out["charpoly"], fl)) / max(
        max(abs(v) for v in list(out["charpoly"]) + list(fl)), 1.0
    )
    if not dev <= CHARPOLY_TOL:
        bad.append(f"charpoly_all vs Faddeev-LeVerrier: {dev:.3e}")
    restr = [np.linalg.svd(A[np.ix_(I, I)], compute_uv=False) for I in combinations(range(n), r)]
    na, nx = np.linalg.norm(A, 2), np.linalg.norm(X, 2)
    norm = sum(_esym(s, r - 1) for s in restr)
    sharp = sum(_esym(s, r - k) * nx**k for s in restr for k in range(1, r + 1))
    weak = sum(math.comb(n, r) * math.comb(r, k) * na ** (r - k) * nx**k for k in range(1, r + 1))
    per_b = sum(math.comb(n, k) * na ** (n - k) * nx**k for k in range(1, n + 1))
    _forms_agree("dk_gr_norm_exact vs numpy SVD", [out["norm"], norm], bad)
    _forms_agree("gr_perturb_bound vs numpy SVD", [out["gr_bound"], sharp], bad)
    _forms_agree("gr_perturb_bound_weak vs numpy norms", [out["gr_bound_weak"], weak], bad)
    _forms_agree("per_perturb_bound vs numpy norms", [out["per_bound"], per_b], bad)
    return bad


# -- exact-oracle -------------------------------------------------------------


def _exact_input(rng):
    k = max(EXACT_PER_K, EXACT_GR_K)
    return {"A": _gaussian_integer(rng, EXACT_N), "X": tuple(_gaussian_integer(rng, EXACT_N) for _ in range(k))}


def _exact_request(inp):
    A = inp["A"]
    Xp, Xg = inp["X"][:EXACT_PER_K], inp["X"][:EXACT_GR_K]
    k, r = EXACT_GR_K, EXACT_GR_R
    return {
        "per": {
            "columns": pd.dkper(A, Xp, formula="columns"),
            "minors": pd.dkper(A, Xp, formula="minors"),
            "tensor": pd.dkper(A, Xp, formula="tensor"),
            "oracle": pd.mixed_partial_interp("per", A, Xp),
        },
        "gr": {
            "columns": pd.dk_gr(A, Xg, k, r, formula="columns"),
            "minors": pd.dk_gr(A, Xg, k, r, formula="minors"),
            "tensor": pd.dk_gr(A, Xg, k, r, formula="tensor"),
            "oracle": pd.mixed_partial_interp("gr", A, Xg, r=r),
        },
    }


def _exact_check(inp, out):
    bad = []
    for side, values in out.items():
        oracle = values["oracle"]
        if not isinstance(oracle, pd.ExactComplex):
            bad.append(f"{side} oracle is not exact: {oracle!r}")
        for form in ("columns", "minors", "tensor"):
            if not values[form] == oracle:
                bad.append(f"{side} {form} {values[form]!r} != oracle {oracle!r}")
    return bad


# -- cli-verify ---------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    wall_s: float
    maxrss_kb: int
    trace_path: str | None = None


def cli_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_request(root, seed: int, trace_path: str | None = None) -> CliResult:
    """One `verify` process, run to completion; with `trace_path`, through the
    traced launcher.  Records wall time and the child's own peak RSS."""
    args = [*CLI_ARGS, "--seed", str(seed)]
    if trace_path is None:
        argv = [sys.executable, "-m", "permderiv.cli", *args]
    else:
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")
        argv = [sys.executable, launcher, trace_path, *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=cli_env(root), text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)  # reaps the child and returns its rusage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, wall, usage.ru_maxrss, trace_path)


def _cli_check(seed, result):
    bad = []
    if result.returncode != 0:
        bad.append(f"exit code {result.returncode}")
    try:
        report = json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        return bad + [f"invalid JSON: {exc}"]
    if not isinstance(report, dict) or report.get("passed") is not True:
        bad.append("verify report does not say passed: true")
    elif report.get("seed") != seed:
        bad.append(f"report seed {report.get('seed')} != {seed}")
    return bad


def _cli_input(rng):
    return int(rng.integers(0, 2**31 - 1))


# -- registry -----------------------------------------------------------------


def build(name: str, root: str) -> Workload:
    if name == "perm-float":
        return Workload(
            name,
            _perm_input,
            _perm_request,
            _perm_check,
        )
    if name == "gr-float":
        return Workload(
            name,
            _gr_input,
            _gr_request,
            _gr_check,
        )
    if name == "exact-oracle":
        return Workload(
            name,
            _exact_input,
            _exact_request,
            _exact_check,
        )
    if name == "cli-verify":
        return Workload(
            name,
            _cli_input,
            lambda seed: cli_request(root, seed),
            _cli_check,
        )
    raise KeyError(name)

