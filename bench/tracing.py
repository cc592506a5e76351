"""Per-layer tracing installed from outside the package.

`Tracer.install()` wraps public functions of every `permderiv` module and
rebinds each wrapper under every name that refers to the original function,
in every loaded `permderiv` module (so `tensor.per`, `derivatives.per` and
`permderiv.per` all go through one wrapper).  No file of the package changes.

Every wrapped call is timed on a frame stack, so each function gets a call
count, a total time and a self time (its duration minus the time of the
wrapped calls made inside it).  Calls of the functions in SPAN_FUNCS also
keep a span record (id, name, start, end, parent span, request, self time)
in memory; the hot leaves in LEAF_FUNCS and LEAF_METHODS (ExactComplex
arithmetic, multi-index helpers, submatrix extraction, scalar determinants)
run tens of thousands of times per request, so they are counted and timed
but keep no record.  This module uses only the standard library, so the CLI
launcher can import it before timing `import permderiv.cli`.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

SPAN_FUNCS = {
    "permanent": ("per", "per_batch", "padj", "laplace_per", "column_replace", "sigma_columns"),
    "derivatives": ("dper", "dkper", "dkper_columns", "dkper_minors", "dkper_tensor"),
    "tensor": (
        "det_batch",
        "sym_power",
        "sym_power_projected",
        "antisym_power",
        "tilde_sym_block",
        "tilde_antisym_block",
        "_mixed_block",
        "block_trace",
    ),
    "charpoly": (
        "g_r",
        "charpoly_all",
        "dk_gr",
        "dk_gr_columns",
        "dk_gr_minors",
        "dk_gr_tensor",
        "principal_restrictions",
    ),
    "norms": (
        "svd",
        "dk_gr_norm_exact",
        "dkper_norm_bound",
        "per_perturb_bound",
        "gr_perturb_bound",
        "gr_perturb_bound_weak",
    ),
    "oracle": ("mixed_partial_interp", "finite_diff", "faddeev_leverrier"),
    "verification": ("run_verify",),
}

LEAF_FUNCS = {
    "permanent": ("submatrix", "minor_complement"),
    "tensor": ("det", "det_bareiss"),
    "multiindex": (
        "enumerate_strict",
        "enumerate_weak",
        "complement",
        "multiplicity",
        "index_weight",
        "permutations_of",
    ),
}

# Methods are wrapped on the class, so every instance goes through them.
LEAF_METHODS = {
    ("multiindex", "MultiIndex"): ("__init__", "zero_based"),
    ("scalars", "ExactComplex"): (
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
    ),
}

# Stack arguments whose matrix count and byte size are recorded.
STACK_FUNCS = ("permanent.per_batch", "tensor.det_batch")
COMPLEX_BYTES = 16


def _metric_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.lstrip('_')}"


class Tracer:
    """Frame-stack timer, call counter and span store for one process."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.stacks: dict[str, list] = {}  # name -> [matrices, bytes]
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, self_s)
        self._frames: list[list] = []  # [child_s, nearest span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of every loaded permderiv module."""
        package = sys.modules["permderiv"]
        modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith("permderiv.")
        ]
        for table, record in ((SPAN_FUNCS, True), (LEAF_FUNCS, False)):
            for layer, attrs in table.items():
                module = sys.modules.get(f"permderiv.{layer}")
                if module is None:
                    continue
                for attr in attrs:
                    original = getattr(module, attr)
                    wrapper = self._wrap(_metric_name(layer, attr), original, record)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapper)
                                self._undo.append((m, key, original))
        for (layer, cls_name), methods in LEAF_METHODS.items():
            module = sys.modules.get(f"permderiv.{layer}")
            if module is None:
                continue
            cls = getattr(module, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original, False))
                self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, record: bool):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stacks.setdefault(name, [0, 0]) if name in STACK_FUNCS else None
        frames = self._frames
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = frames[-1] if frames else None
            parent_id = parent[1] if parent is not None else -1
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent_id
            frame = [0.0, span_id]
            frames.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                duration = end - start
                self_s = duration - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
                if parent is not None:
                    parent[0] += duration
                if record:
                    spans.append((span_id, name, start, end, parent_id, tracer.request, self_s))
                if stack is not None:
                    shape = getattr(args[0], "shape", ())
                    matrices = 1
                    for dim in shape[:-2]:
                        matrices *= dim
                    stack[0] += matrices
                    stack[1] += matrices * shape[-1] * shape[-1] * COMPLEX_BYTES if shape else 0

        return wrapper

    # -- export and merge -------------------------------------------------

    def export(self) -> dict:
        """Counters and spans as plain JSON-serialisable data."""
        return {"stats": self.stats, "stacks": self.stacks, "spans": self.spans}

    def merge(self, data: dict, request: int) -> None:
        """Fold another process's export into this tracer as one request."""
        for name, (calls, total, own) in data["stats"].items():
            acc = self.stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, (matrices, nbytes) in data["stacks"].items():
            acc = self.stacks.setdefault(name, [0, 0])
            acc[0] += matrices
            acc[1] += nbytes
        offset = self._next_id
        for span_id, name, start, end, parent, _, own in data["spans"]:
            self.spans.append(
                (span_id + offset, name, start, end, parent + offset if parent >= 0 else -1,
                 request, own)
            )
            self._next_id = max(self._next_id, span_id + offset + 1)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- derived per-layer metrics ---------------------------------------

    def count_under(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Spans called `name` that have a span called `ancestor` above them
        (as their parent when `direct`)."""
        parents = {s[0]: (s[1], s[4]) for s in self.spans}
        hits = 0
        for span_id, span_name, _, _, parent, _, _ in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                parent_name, grand = parents[parent]
                if parent_name == ancestor:
                    hits += 1
                    break
                if direct:
                    break
                parent = grand
        return hits


def layer_metrics(tracer: Tracer, requests: int, cli_times: dict | None = None) -> dict:
    """The per-layer metrics of BENCHMARK.json, each per request (except ratios)."""
    n = max(requests, 1)

    def calls(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))[0] / n

    def total(*names):
        return sum(tracer.stats.get(name, (0, 0.0, 0.0))[1] for name in names) / n

    def own(*names):
        return sum(tracer.stats.get(name, (0, 0.0, 0.0))[2] for name in names) / n

    def layer_own(prefix):
        return own(*(name for name in tracer.stats if name.startswith(prefix)))

    def stack(name, field):
        return tracer.stacks.get(name, (0, 0))[field] / n

    dper_calls = tracer.stats.get("derivatives.dper", (0,))[0]
    per_in_dper = tracer.count_under("permanent.per", "derivatives.dper")
    interp = "oracle.mixed_partial_interp"
    evals = tracer.count_under("permanent.per", interp, direct=True) + tracer.count_under(
        "charpoly.g_r", interp, direct=True
    )
    scalar_ops = sum(
        stats[0] for name, stats in tracer.stats.items() if name.startswith("scalars.")
    )
    cli_times = cli_times or {}
    s, c = "s/req", "count/req"
    values = {
        "permanent.per.calls": (calls("permanent.per"), c),
        "permanent.per.self_s": (own("permanent.per"), s),
        "permanent.per_batch.calls": (calls("permanent.per_batch"), c),
        "permanent.per_batch.matrices": (stack("permanent.per_batch", 0), c),
        "permanent.per_batch.bytes": (stack("permanent.per_batch", 1), "B/req"),
        "permanent.per_batch.self_s": (own("permanent.per_batch"), s),
        "permanent.padj.total_s": (total("permanent.padj"), s),
        "permanent.submatrix.calls": (calls("permanent.submatrix"), c),
        "derivatives.dkper_columns.total_s": (total("derivatives.dkper_columns"), s),
        "derivatives.dkper_minors.total_s": (total("derivatives.dkper_minors"), s),
        "derivatives.dkper_tensor.total_s": (total("derivatives.dkper_tensor"), s),
        "derivatives.dper.total_s": (total("derivatives.dper"), s),
        "derivatives.dper.per_calls_per_call": (
            per_in_dper / dper_calls if dper_calls else 0.0,
            "count",
        ),
        "tensor.tilde_sym_block.total_s": (total("tensor.tilde_sym_block"), s),
        "tensor.tilde_antisym_block.total_s": (total("tensor.tilde_antisym_block"), s),
        "tensor.mixed_block.total_s": (total("tensor.mixed_block"), s),
        "tensor.det.calls": (calls("tensor.det"), c),
        "tensor.det_batch.matrices": (stack("tensor.det_batch", 0), c),
        "tensor.det_batch.self_s": (own("tensor.det_batch"), s),
        "tensor.det_bareiss.self_s": (own("tensor.det_bareiss"), s),
        "charpoly.dk_gr_columns.total_s": (total("charpoly.dk_gr_columns"), s),
        "charpoly.dk_gr_minors.total_s": (total("charpoly.dk_gr_minors"), s),
        "charpoly.dk_gr_tensor.total_s": (total("charpoly.dk_gr_tensor"), s),
        "charpoly.charpoly_all.total_s": (total("charpoly.charpoly_all"), s),
        "charpoly.principal_restrictions.calls": (calls("charpoly.principal_restrictions"), c),
        "norms.svd.calls": (calls("norms.svd"), c),
        "norms.svd.self_s": (own("norms.svd"), s),
        "norms.dk_gr_norm_exact.total_s": (total("norms.dk_gr_norm_exact"), s),
        "norms.bounds.total_s": (
            total(
                "norms.dkper_norm_bound",
                "norms.per_perturb_bound",
                "norms.gr_perturb_bound",
                "norms.gr_perturb_bound_weak",
            ),
            s,
        ),
        "scalars.exact_ops": (scalar_ops / n, c),
        "scalars.self_s": (layer_own("scalars."), s),
        "oracle.mixed_partial_interp.total_s": (total(interp), s),
        "oracle.mixed_partial_interp.evals": (evals / n, c),
        "multiindex.enumerate_strict.calls": (calls("multiindex.enumerate_strict"), c),
        "multiindex.self_s": (layer_own("multiindex."), s),
        "verification.run_verify.total_s": (total("verification.run_verify"), s),
        "cli.import_s": (cli_times.get("import_s", 0.0) / n, s),
        "cli.main_s": (cli_times.get("main_s", 0.0) / n, s),
        "cli.process_s": (cli_times.get("process_s", 0.0) / n, s),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
