"""Span tracing of the program's public functions, applied from outside.

The tracer wraps each listed function and rebinds every module attribute of
the ``toricpack`` package that refers to it (``maximize`` is bound in
``packing``, ``perturb``, ``cli`` and the package itself), so calls between
modules are recorded too.  The program is not changed.  Spans (name, start,
end, parent) are kept in memory; a layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("solve_linear", "mat_rank", "mat_det", "mat_inverse", "affine_rank",
               "nthroot_bounds", "rational_nthroot"),
    "polytope": ("vertex_set", "enumerate_vertices", "remove_redundant", "volume", "intersect"),
    "delzant": ("validate_delzant", "same_fan", "fan_of"),
    "packing": ("maximize", "build_packing_polytope", "disjointness_oracle",
                "simplices_disjoint", "realize"),
    "perturb": ("perturb", "safe_radius_estimate", "scan_segment", "compare_root_midpoint",
                "is_homothetic"),
    "jsonio": ("load_spec_document", "pack_report", "info_report", "scan_csv", "dumps"),
    "cli": ("main",),
    "svgrender": ("render_packing_svg", "boundary_order"),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

# Result counts: metric name -> (traced function, amount taken from its result).
RESULT_COUNTS = {
    "polytope.vertex_set.vertices": ("polytope.vertex_set", len),
    "packing.maximize.maximizers": ("packing.maximize", lambda r: len(r[1])),
    "jsonio.dumps.bytes": ("jsonio.dumps", lambda r: len(r.encode())),
}
REJECTED = "perturb.perturb.rejected"


def metric_names() -> list[str]:
    names = [f"{f}.{k}" for f in FUNCTIONS for k in ("calls", "s", "self_s")]
    return names + list(RESULT_COUNTS) + [REJECTED]


def unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


class Tracer:
    """Records one span per call of each function in :data:`FUNCTIONS`."""

    def __init__(self):
        self.spans: list[list[int]] = []  # [function index, start ns, end ns, parent span]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "toricpack" or name.startswith("toricpack.")
        }
        wrappers = {}
        for idx, qual in enumerate(FUNCTIONS):
            mod, fn = qual.split(".")
            original = getattr(modules.get(f"toricpack.{mod}"), fn, None)
            if original is not None:
                wrappers[id(original)] = (original, self._wrap(idx, original, modules))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def _wrap(self, idx: int, fn, modules):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        qual = FUNCTIONS[idx]
        tallies = [(k, f) for k, (q, f) in RESULT_COUNTS.items() if q == qual]
        rejected = None
        if qual == "perturb.perturb":
            rejected = getattr(modules.get("toricpack.perturb"), "PerturbationError", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if rejected is not None and isinstance(exc, rejected):
                    counts[REJECTED] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            for key, amount in tallies:
                counts[key] += amount(result)
            return result

        return traced

    def layer_totals(self) -> dict[str, float]:
        """Calls, inclusive seconds and self seconds per traced function,
        plus the result counts, summed over every recorded span.

        A span nested in a span of the same function adds to the calls and
        self time but not again to the inclusive time.
        """
        n = len(FUNCTIONS)
        calls = [0] * n
        total = [0] * n
        child = [0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = [0] * n
        for sid, (idx, start, end, parent) in enumerate(self.spans):
            calls[idx] += 1
            self_ns[idx] += end - start - child[sid]
            p = parent
            while p >= 0 and self.spans[p][0] != idx:
                p = self.spans[p][3]
            if p < 0:
                total[idx] += end - start
        out: dict[str, float] = {}
        for idx, qual in enumerate(FUNCTIONS):
            out[f"{qual}.calls"] = calls[idx]
            out[f"{qual}.s"] = total[idx] / 1e9
            out[f"{qual}.self_s"] = self_ns[idx] / 1e9
        for key in list(RESULT_COUNTS) + [REJECTED]:
            out[key] = self.counts.get(key, 0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": list(FUNCTIONS), "spans": self.spans}, fh)
