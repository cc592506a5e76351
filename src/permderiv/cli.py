"""Batch command-line front end.

Reads a JSON job from --input (file path) or stdin, runs one computation,
and prints a JSON report to stdout.  Complex scalars are emitted as
[re, im] pairs, norms as plain reals; in exact mode each part is a JSON
integer, or a "p/q" string when it is not integral.  Exit codes: 0 success,
1 input error, 2 verification failure.  Output is strict JSON: non-finite
input entries and non-finite results are input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .charpoly import charpoly_all, dk_gr, g_r
from .derivatives import dkper, dper
from .norms import (
    dk_gr_norm_exact,
    dkper_norm_bound,
    gr_perturb_bound,
    gr_perturb_bound_weak,
    per_perturb_bound,
)
from .permanent import padj, per
from .scalars import ExactComplex, exact_matrix
from .verification import run_verify

VERBS = (
    "per",
    "padj",
    "dper",
    "dkper",
    "gr",
    "charpoly",
    "dkgr",
    "norm-dkper-bound",
    "norm-dkgr",
    "bound-per",
    "bound-gr",
    "bound-gr-weak",
    "verify",
)


class InputError(ValueError):
    pass


def parse_matrix(obj, mode: str):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError("matrix must be a non-empty array of rows")
    widths = {len(r) for r in obj}
    if len(widths) != 1:
        raise InputError("matrix rows must all have the same length")
    pairs = [[_pair(e) for e in row] for row in obj]
    try:
        if mode == "exact":
            return exact_matrix(pairs)
        return np.array([[complex(*p) for p in row] for row in pairs], dtype=complex)
    except (ValueError, OverflowError) as exc:
        raise InputError(str(exc)) from exc


def _pair(entry):
    pair = (entry, 0) if isinstance(entry, (int, float)) else entry
    if not (
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and all(isinstance(x, (int, float)) for x in pair)
    ):
        raise InputError(f"matrix entry must be a number or [re, im] pair, got {entry!r}")
    if not all(isinstance(x, int) or math.isfinite(x) for x in pair):
        raise InputError(f"matrix entries must be finite, got {entry!r}")
    return tuple(pair)


def _scalar_out(value):
    if isinstance(value, ExactComplex):
        return [_exact_part(value.re), _exact_part(value.im)]
    value = complex(value)
    return [value.real, value.imag]


def _exact_part(q):
    """An exact rational as a JSON int when integral, else as a "p/q" string."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _matrix_out(M):
    return [[_scalar_out(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def _load_job(args):
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if not text.strip():
        raise InputError("empty input; expected a JSON object or matrix")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if isinstance(data, list):
        data = {"A": data}
    if not isinstance(data, dict) or "A" not in data:
        raise InputError('input must be a matrix or an object with key "A"')
    return data


def _directions(data, args, n, mode):
    if "directions" in data:
        if not isinstance(data["directions"], list):
            raise InputError('"directions" must be a list of matrices')
        dirs = [parse_matrix(m, mode) for m in data["directions"]]
    elif "X" in data:
        k = args.k if args.k is not None else 1
        dirs = [parse_matrix(data["X"], mode)] * k
    else:
        raise InputError('need "directions" (list of matrices) or "X" in the input')
    if args.k is not None and len(dirs) != args.k:
        raise InputError(f"--k {args.k} does not match {len(dirs)} directions")
    for d in dirs:
        if np.asarray(d).shape != (n, n):
            raise InputError("every direction must match the order of A")
    return tuple(dirs)


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise InputError(f"verb requires --{name}")
    return value


def run(args) -> tuple[dict, int]:
    """Execute one job; returns (report, exit_code)."""
    if args.verb == "verify":
        report = run_verify(
            n=args.n, kmax=args.kmax, seed=args.seed, tolerance=args.tolerance
        )
        return report, 0 if report["passed"] else 2

    data = _load_job(args)
    mode = args.mode
    A = parse_matrix(data["A"], mode)
    n = np.asarray(A).shape[0]
    if np.asarray(A).ndim != 2 or np.asarray(A).shape != (n, n):
        raise InputError("A must be square")

    if args.verb == "per":
        return {"command": "per", "value": _scalar_out(per(A))}, 0
    if args.verb == "padj":
        return {"command": "padj", "matrix": _matrix_out(padj(A))}, 0
    if args.verb == "dper":
        X = parse_matrix(data["X"], mode) if "X" in data else None
        if X is None:
            raise InputError('dper needs "X"')
        return {"command": "dper", "value": _scalar_out(dper(A, X))}, 0
    if args.verb == "dkper":
        dirs = _directions(data, args, n, mode)
        result = dkper(A, dirs, args.formula)
        if args.formula == "all":
            values = {name: _scalar_out(v) for name, v in result.items()}
            dev = _max_pairwise(result.values())
            return {
                "command": "dkper",
                "k": len(dirs),
                "values": values,
                "max_deviation": dev,
            }, 0
        return {
            "command": "dkper",
            "k": len(dirs),
            "formula": args.formula,
            "value": _scalar_out(result),
        }, 0
    if args.verb == "gr":
        r = _require(args, "r")
        return {"command": "gr", "r": r, "value": _scalar_out(g_r(A, r))}, 0
    if args.verb == "charpoly":
        coeffs = charpoly_all(A)
        return {"command": "charpoly", "g": [_scalar_out(v) for v in coeffs]}, 0
    if args.verb == "dkgr":
        r = _require(args, "r")
        dirs = _directions(data, args, n, mode)
        k = len(dirs)
        result = dk_gr(A, dirs, k, r, args.formula)
        if args.formula == "all":
            values = {name: _scalar_out(v) for name, v in result.items()}
            dev = _max_pairwise(result.values())
            return {
                "command": "dkgr",
                "k": k,
                "r": r,
                "values": values,
                "max_deviation": dev,
            }, 0
        return {
            "command": "dkgr",
            "k": k,
            "r": r,
            "formula": args.formula,
            "value": _scalar_out(result),
        }, 0
    if args.verb == "norm-dkper-bound":
        k = _require(args, "k")
        report = dkper_norm_bound(A, k)
        return {"command": "norm-dkper-bound", "k": k, "bound": report.value, "kind": report.kind}, 0
    if args.verb == "norm-dkgr":
        k = _require(args, "k")
        r = _require(args, "r")
        report = dk_gr_norm_exact(A, k, r)
        return {"command": "norm-dkgr", "k": k, "r": r, "value": report.value, "kind": report.kind}, 0
    if args.verb in ("bound-per", "bound-gr", "bound-gr-weak"):
        if "X" not in data:
            raise InputError(f'{args.verb} needs "X"')
        X = parse_matrix(data["X"], mode)
        if args.verb == "bound-per":
            report = per_perturb_bound(A, X)
            return {"command": "bound-per", "bound": report.value}, 0
        r = _require(args, "r")
        if args.verb == "bound-gr":
            report = gr_perturb_bound(A, X, r)
        else:
            report = gr_perturb_bound_weak(A, X, r)
        return {"command": args.verb, "r": r, "bound": report.value}, 0
    raise InputError(f"unknown verb {args.verb!r}")


def _max_pairwise(values) -> float:
    vals = list(values)
    return max(
        abs(complex(a - b)) for i, a in enumerate(vals) for b in vals[i + 1 :]
    ) if len(vals) > 1 else 0.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permderiv",
        description="Permanent / characteristic-polynomial derivative calculator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--input", help="path to a JSON job (default: stdin)")
    parser.add_argument("--k", type=int, help="derivative order")
    parser.add_argument("--r", type=int, help="characteristic polynomial coefficient index")
    parser.add_argument(
        "--formula",
        choices=("columns", "minors", "tensor", "all"),
        default="columns",
    )
    parser.add_argument("--mode", choices=("exact", "floating"), default="floating")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tolerance", type=float, default=1e-10)
    parser.add_argument("--n", type=int, default=4, help="matrix order for verify")
    parser.add_argument("--kmax", type=int, default=3, help="max derivative order for verify")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run(args)
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except (ValueError, IndexError, OSError, OverflowError) as exc:
        print(json.dumps({"error": "input", "detail": str(exc)}, sort_keys=True))
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
