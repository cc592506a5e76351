"""Batch command-line front end.

Reads a JSON job from --input (file path) or stdin, runs one computation,
and prints a JSON report to stdout.  Each job verb has one entry in
`HANDLERS`, a function of (A, job, args) that returns the report's fields as
raw library results; `verify` runs the invariant suite instead.  One
serializer, `_out`, turns those results into JSON data: complex scalars
become [re, im] pairs, norms stay plain reals, and in exact mode each part
is a JSON integer, or a "p/q" string when it is not integral.  Exit codes:
0 success, 1 input error, 2 verification failure.  Output is strict JSON:
non-finite input entries and non-finite results are input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from itertools import combinations

import numpy as np

from . import __version__
from .charpoly import charpoly_all, dk_gr, g_r
from .derivatives import FORMULAS, dkper, dper
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


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pair(entry):
    pair = (entry, 0) if _number(entry) else entry
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_number, pair))):
        raise InputError(f"matrix entry must be a number or [re, im] pair, got {entry!r}")
    if not all(isinstance(x, int) or math.isfinite(x) for x in pair):
        raise InputError(f"matrix entries must be finite, got {entry!r}")
    return tuple(pair)


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


def _directions(data, args, n):
    if "directions" in data:
        if not isinstance(data["directions"], list):
            raise InputError('"directions" must be a list of matrices')
        dirs = [parse_matrix(m, args.mode) for m in data["directions"]]
    elif "X" in data:
        k = args.k if args.k is not None else 1
        dirs = [parse_matrix(data["X"], args.mode)] * k
    else:
        raise InputError('need "directions" (list of matrices) or "X" in the input')
    if args.k is not None and len(dirs) != args.k:
        raise InputError(f"--k {args.k} does not match {len(dirs)} directions")
    for d in dirs:
        if d.shape != (n, n):
            raise InputError("every direction must match the order of A")
    return tuple(dirs)


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise InputError(f"verb requires --{name}")
    return value


def _x(data, args):
    if "X" not in data:
        raise InputError(f'{args.verb} needs "X"')
    return parse_matrix(data["X"], args.mode)


def _forms(result, formula) -> dict:
    """Report fields of one formula's value, or of all three and their largest gap."""
    if formula != "all":
        return {"formula": formula, "value": result}
    gaps = (abs(complex(a - b)) for a, b in combinations(result.values(), 2))
    return {"values": result, "max_deviation": max(gaps)}


def _dkper(A, data, args):
    dirs = _directions(data, args, A.shape[0])
    return {"k": len(dirs), **_forms(dkper(A, dirs, args.formula), args.formula)}


def _dkgr(A, data, args):
    r = _require(args, "r")
    dirs = _directions(data, args, A.shape[0])
    result = dk_gr(A, dirs, len(dirs), r, args.formula)
    return {"k": len(dirs), "r": r, **_forms(result, args.formula)}


def _gr(A, data, args):
    r = _require(args, "r")
    return {"r": r, "value": g_r(A, r)}


def _norm_dkper_bound(A, data, args):
    k = _require(args, "k")
    report = dkper_norm_bound(A, k)
    return {"k": k, "bound": report.value, "kind": report.kind}


def _norm_dkgr(A, data, args):
    k, r = _require(args, "k"), _require(args, "r")
    report = dk_gr_norm_exact(A, k, r)
    return {"k": k, "r": r, "value": report.value, "kind": report.kind}


def _bound_gr(bound, A, data, args):
    X = _x(data, args)
    r = _require(args, "r")
    return {"r": r, "bound": bound(A, X, r).value}


# verb -> (A, job, args) -> report fields as raw library results, for _out
HANDLERS = {
    "per": lambda A, data, args: {"value": per(A)},
    "padj": lambda A, data, args: {"matrix": padj(A)},
    "dper": lambda A, data, args: {"value": dper(A, _x(data, args))},
    "dkper": _dkper,
    "gr": _gr,
    "charpoly": lambda A, data, args: {"g": charpoly_all(A).g},
    "dkgr": _dkgr,
    "norm-dkper-bound": _norm_dkper_bound,
    "norm-dkgr": _norm_dkgr,
    "bound-per": lambda A, data, args: {"bound": per_perturb_bound(A, _x(data, args)).value},
    "bound-gr": partial(_bound_gr, gr_perturb_bound),
    "bound-gr-weak": partial(_bound_gr, gr_perturb_bound_weak),
}
VERBS = (*HANDLERS, "verify")


def _out(value):
    """A library result as JSON data, walking dicts, sequences and arrays.

    A complex scalar becomes [re, im]; each part of an ExactComplex is a JSON
    int, or a "p/q" string when it is not integral.  Anything else passes.
    """
    if isinstance(value, dict):
        return {key: _out(v) for key, v in value.items()}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_out(v) for v in value]
    if isinstance(value, ExactComplex):
        return [q if isinstance(q, int) else str(q) for q in (value.re, value.im)]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def run(args) -> tuple[dict, int]:
    """Execute one job; returns (report, exit_code)."""
    if args.verb == "verify":
        report = run_verify(n=args.n, kmax=args.kmax, seed=args.seed, tolerance=args.tolerance)
        return report, 0 if report["passed"] else 2
    data = _load_job(args)
    A = parse_matrix(data["A"], args.mode)
    if A.shape[0] != A.shape[1]:
        raise InputError("A must be square")
    return {"command": args.verb, **_out(HANDLERS[args.verb](A, data, args))}, 0


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
    parser.add_argument("--formula", choices=(*FORMULAS, "all"), default="columns")
    parser.add_argument("--mode", choices=("exact", "floating"), default="floating")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tolerance", type=float, default=1e-10)
    parser.add_argument("--n", type=int, default=4, help="matrix order for verify")
    parser.add_argument("--kmax", type=int, default=3, help="max derivative order for verify")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result is reported below as an input error, so
        # numpy's overflow warnings would only add noise on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            report, code = run(args)
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except (ValueError, IndexError, OSError, OverflowError) as exc:
        print(json.dumps({"error": "input", "detail": str(exc)}, sort_keys=True))
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
