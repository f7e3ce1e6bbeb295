"""The three workloads: their inputs, their operations and their checks.

A workload is built from the seed (untimed), then ``setup`` writes, loads
and validates its spec files with a freshly imported program (timed as
set-up), and every round runs ``ops`` in the same order.  ``check`` reads
one round's outputs outside the timed region and returns the operations
that failed (name -> reason) and every check that did not hold.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import specs
from specs import F, Spec

MODULES = ("linalg", "polytope", "delzant", "packing", "perturb", "jsonio", "svgrender", "cli")


def load_program(src: Path) -> SimpleNamespace:
    """Import the program afresh from ``src`` and return its modules."""
    for name in [m for m in sys.modules if m == "toricpack" or m.startswith("toricpack.")]:
        del sys.modules[name]
    pkg = importlib.import_module("toricpack")
    if Path(pkg.__file__).resolve().parent != (src / "toricpack").resolve():
        raise ImportError(f"toricpack was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"toricpack.{m}") for m in MODULES})


def run_cli(tp, argv: list[str]) -> tuple[int, str, str]:
    """``toricpack <argv>`` in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tp.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class OpError:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"


def _exit_failure(result) -> str | None:
    if isinstance(result, OpError):
        return result.reason
    code, _, err = result
    return f"exit {code}: {err.strip()}" if code != 0 else None


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.paths: dict[str, str] = {}

    def write_specs(self, tp, entries: list[Spec]) -> dict:
        """Write each spec file, then load and validate it with the program."""
        loaded = {}
        for k, spec in enumerate(entries):
            path = self.workdir / f"{k:02d}.json"
            path.write_text(json.dumps(spec.document()), encoding="utf-8")
            self.paths[spec.name] = str(path)
            with open(path, encoding="utf-8") as fh:
                loaded[spec.name] = tp.jsonio.load_spec_document(json.load(fh))[1]
        return loaded

    def setup(self, tp) -> None:
        raise NotImplementedError

    def ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, results: dict) -> tuple[dict[str, str], list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pack: maximize on a ladder of specs, through the CLI.


def check_density(spec: Spec, geo: specs.Geometry, doc: dict) -> list[str]:
    """Checks of one ``pack --all --json`` report against the spec."""
    bad = []
    d = F(doc["max_density"])
    packs = [[F(c) for c in p] for p in doc["maximal_packings"]]
    if doc["num_maximizers"] != len(packs) or not packs:
        bad.append(f"{spec.name}: {doc['num_maximizers']} maximizers, {len(packs)} listed")
    for x in packs:
        if len(x) != len(geo.vertices) or not specs.is_packing(geo, x) or any(
                not 0 <= c <= r for c, r in zip(x, geo.radii)):
            bad.append(f"{spec.name}: {x} is not a packing")
            continue
        value = sum(c**spec.dim for c in x) / (math.factorial(spec.dim) * spec.volume)
        if value != d:
            bad.append(f"{spec.name}: reported density {d}, sum x^n/(n! vol) = {value}")
    if spec.density_one and d != 1:
        bad.append(f"{spec.name}: density {d}, the classification gives 1")
    if not spec.density_one and not d < 1:
        bad.append(f"{spec.name}: density {d}, the classification gives < 1")
    if spec.density is not None and d != spec.density:
        bad.append(f"{spec.name}: density {d}, hand-derived {spec.density}")
    return bad


class Pack(Workload):
    name = "pack"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        s = specs
        pent, cube3 = s.pentagon(), s.cube(3)
        self.specs = [
            s.square(), s.simplex(2), s.simplex(3), pent, s.pentagon20(),
            s.prism(), cube3, s.chopped3(),
            s.chopped(F(1, 10), F(1, 5), 4),
            s.product(s.simplex(3), s.simplex(1)), s.product(s.simplex(2), s.simplex(2)),
            s.product(pent, s.simplex(1)), s.product(s.simplex(2), s.square()),
            s.cube(4), s.image(pent, self.rng), s.image(cube3, self.rng),
        ]
        self.geometry = {spec.name: s.geometry(spec) for spec in self.specs}

    def setup(self, tp) -> None:
        self.write_specs(tp, self.specs)
        path = self.workdir / "malformed.json"
        path.write_text(json.dumps(specs.MALFORMED), encoding="utf-8")
        self.paths["malformed"] = str(path)

    def ops(self):
        def pack(path):
            return lambda tp: run_cli(tp, ["pack", path, "--all", "--json"])

        names = [spec.name for spec in self.specs] + ["malformed"]
        return [(f"pack/{n}", pack(self.paths[n])) for n in names]

    def check(self, results):
        failed, bad, docs = {}, [], {}
        for spec in self.specs:
            op = f"pack/{spec.name}"
            reason = _exit_failure(results[op])
            if reason:
                failed[op] = reason
                continue
            docs[spec.name] = doc = json.loads(results[op][1])
            bad += check_density(spec, self.geometry[spec.name], doc)
        for spec in self.specs:
            if spec.image_of and spec.name in docs and spec.image_of in docs:
                a, b = docs[spec.name], docs[spec.image_of]
                if (a["max_density"], a["num_maximizers"]) != (b["max_density"], b["num_maximizers"]):
                    bad.append(f"{spec.name}: {a['max_density']} x{a['num_maximizers']}, "
                               f"original {b['max_density']} x{b['num_maximizers']}")
        result = results["pack/malformed"]
        if isinstance(result, OpError) or result[0] == 0:
            failed["pack/malformed"] = (
                result.reason if isinstance(result, OpError)
                else "a spec with normals [1.7, 0] and [0, true] was packed, not refused")
        return failed, bad


# ---------------------------------------------------------------------------
# family: offset scans and safe radii, through the CLI.


def check_scan(n: int, samples: int, rows: list[list[str]], summary: dict) -> list[str]:
    """Properties every scan along a fixed fan has."""
    bad = []
    ts = [F(r[0]) for r in rows]
    vols = [F(r[1]) for r in rows]
    if ts != [F(k, samples) for k in range(samples + 1)]:
        bad.append(f"sample points {ts}")
    if any(specs.finite_difference(vols, n + 1)):
        bad.append(f"volume is not a degree-{n} polynomial in t: {vols}")
    if summary.get("vol_root_midpoint_concave") is not True:
        bad.append("vol^(1/n) not midpoint concave")
    return bad


class Family(Workload):
    name = "family"
    POINTS = (F(0), F(1, 2), F(1))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        s = specs
        self.bases = [s.square(), s.pentagon(), s.cube(3), s.chopped3(), s.prism()]
        sq, pent, cube3, ch3 = self.bases[:4]
        # (base, s1, s2, samples, kind); every sample count is even, so the
        # scan samples t = 1/2.
        self.segments = [
            (sq, [0, 0, 0, 0], [0, 0, -1, 0], 16, "rectangle"),
            (pent, [0] * 5, [l / 2 for _, l in pent.rows], 8, "homothety"),
            (cube3, [F(1, 10), 0, 0, 0, F(-1, 5), 0],
             [0, F(-1, 10), F(1, 5), F(-3, 10), 0, F(1, 10)], 8, "general"),
            (ch3, [0] * 6, [F(1, 50), F(-1, 50), F(1, 100), 0, F(-1, 60), F(1, 70)], 8, "general"),
        ]
        # The polytopes at t = 0, 1/2, 1 of each segment, for ``info``:
        # (segment index, t, spec with the offsets moved by (1-t) s1 + t s2).
        self.points = [
            (k, t, s.Spec(f"{base.name}-{k}-{s.fmt(t).replace('/', '_')}", base.dim,
                          tuple((u, l + (1 - t) * a + t * b)
                                for (u, l), a, b in zip(base.rows, s1, s2)),
                          base.volume))
            for k, (base, s1, s2, _, _) in enumerate(self.segments) for t in self.POINTS
        ]
        self.fans = {b.name: set(s.geometry(b).active) for b in self.bases[:4]}
        self.radius_bases = [sq, self.bases[4], pent]
        self.exact_radius = {
            b.name: s.exact_safe_radius(b, s.geometry(b)) for b in self.radius_bases
        }

    def setup(self, tp) -> None:
        self.write_specs(tp, self.bases + [p for _, _, p in self.points])
        for k, (base, s1, s2, _, _) in enumerate(self.segments):
            path = self.workdir / f"dir-{k}.json"
            path.write_text(json.dumps({"s1": [specs.fmt(c) for c in s1],
                                        "s2": [specs.fmt(c) for c in s2]}), encoding="utf-8")
            self.paths[f"dir-{k}"] = str(path)

    def ops(self):
        def scan(base, k, samples):
            argv = ["scan", "--base", self.paths[base], "--dir", self.paths[f"dir-{k}"],
                    "--samples", str(samples)]
            return lambda tp: run_cli(tp, argv)

        def info(name, *flags):
            return lambda tp: run_cli(tp, ["info", self.paths[name], *flags])

        out = [(f"scan/{b.name}", scan(b.name, k, n))
               for k, (b, _, _, n, _) in enumerate(self.segments)]
        out += [(f"info/{p.name}", info(p.name)) for _, _, p in self.points]
        return out + [(f"safe-radius/{b.name}", info(b.name, "--safe-radius"))
                      for b in self.radius_bases]

    def check(self, results):
        failed, bad, volumes = {}, [], {}
        for k, (base, s1, _, samples, kind) in enumerate(self.segments):
            op = f"scan/{base.name}"
            reason = _exit_failure(results[op])
            if reason:
                failed[op] = reason
                continue
            _, out, err = results[op]
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            summary = json.loads(err)
            problems = check_scan(base.dim, samples, rows, summary)
            ts = [F(r[0]) for r in rows]
            vols = [F(r[1]) for r in rows]
            omegas = [F(r[2]) for r in rows]
            volumes[k] = dict(zip(ts, vols))
            if not any(s1) and vols[0] != base.volume:
                problems.append(f"volume {vols[0]} at t = 0, closed form {base.volume}")
            if kind == "rectangle":
                if omegas != [1 / (1 + t) for t in ts] or vols != [1 + t for t in ts]:
                    problems.append(f"omega {omegas} is not 1/(1+t)")
            if kind == "homothety":
                if len(set(omegas)) != 1:
                    problems.append(f"omega varies along a homothety: {omegas}")
                if summary.get("endpoints_homothetic") is not True:
                    problems.append("endpoints of a homothety not reported homothetic")
                if summary.get("vol_root_all_midpoints_equal") is not True:
                    problems.append("vol^(1/n) not linear along a homothety")
            bad += [f"{op}: {p}" for p in problems]
        for k, t, point in self.points:
            op = f"info/{point.name}"
            reason = _exit_failure(results[op])
            if reason:
                failed[op] = reason
                continue
            doc = json.loads(results[op][1])
            base = self.segments[k][0]
            if {frozenset(a) for a in doc["vertex_facet_incidence"]} != self.fans[base.name]:
                bad.append(f"{op}: the fan differs from the base's")
            if k in volumes and F(doc["volume"]) != volumes[k][t]:
                bad.append(f"{op}: volume {doc['volume']}, the scan gives {volumes[k][t]}")
        for base in self.radius_bases:
            op = f"safe-radius/{base.name}"
            reason = _exit_failure(results[op])
            if reason:
                failed[op] = reason
                continue
            estimate = F(json.loads(results[op][1])["safe_radius_estimate"])
            exact = self.exact_radius[base.name]
            if estimate <= 0:
                bad.append(f"{op}: estimate {estimate}")
            elif estimate > exact:
                failed[op] = f"estimate {estimate} exceeds the exact radius {exact}"
        return failed, bad


# ---------------------------------------------------------------------------
# certify: the geometric disjointness oracle and SVG rendering.


def check_verdict(geo: specs.Geometry, x, verdict) -> str | None:
    """The oracle's verdict on x must equal the constraint system's."""
    if len(x) != len(geo.radii) or any(not 0 <= c <= r for c, r in zip(x, geo.radii)):
        return f"{x} is outside the box 0 <= x_i <= r_i"
    expected = specs.is_packing(geo, x)
    if verdict is not expected:
        return f"oracle says {verdict} on {x}, the constraint system says {expected}"
    return None


def svg_polygons(text: str) -> int:
    root = ET.fromstring(text)
    return sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polygon")


class Certify(Workload):
    name = "certify"
    VECTORS = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        s = specs
        self.oracle_specs = [s.pentagon(), s.prism(), s.cube(3), s.chopped3()]
        self.render_specs = [s.square(), s.simplex(2), s.pentagon20()]
        self.geometry = {b.name: s.geometry(b) for b in self.oracle_specs}
        self.vectors = {
            b.name: s.radius_vectors(self.geometry[b.name], self.VECTORS, self.rng)
            for b in self.oracle_specs
        }

    def setup(self, tp) -> None:
        loaded = self.write_specs(tp, self.oracle_specs + self.render_specs)
        self.polytopes = {b.name: loaded[b.name] for b in self.oracle_specs}
        self.maximizers = {
            name: [p.radii for p in tp.packing.maximize(D)[1]] for name, D in loaded.items()
        }

    def ops(self):
        def oracle(name, x):
            D = self.polytopes[name]
            return lambda tp: tp.packing.disjointness_oracle(D, x)

        def render(name):
            argv = ["render", self.paths[name], str(self.workdir / f"{name}.svg")]
            return lambda tp: run_cli(tp, argv)

        out = []
        for b in self.oracle_specs:
            out += [(f"oracle/{b.name}/max-{k}", oracle(b.name, x))
                    for k, x in enumerate(self.maximizers[b.name])]
            out += [(f"oracle/{b.name}/{k}", oracle(b.name, x))
                    for k, x in enumerate(self.vectors[b.name])]
        planar = [b.name for b in self.oracle_specs + self.render_specs if b.dim == 2]
        return out + [(f"render/{n}", render(n)) for n in planar]

    def check(self, results):
        failed, bad = {}, []
        for b in self.oracle_specs:
            geo = self.geometry[b.name]
            if tuple(self.polytopes[b.name].vertices) != tuple(geo.vertices):
                bad.append(f"{b.name}: program vertices differ from {geo.vertices}")
            inputs = [(f"max-{k}", x) for k, x in enumerate(self.maximizers[b.name])]
            inputs += [(str(k), x) for k, x in enumerate(self.vectors[b.name])]
            for key, x in inputs:
                op = f"oracle/{b.name}/{key}"
                if isinstance(results[op], OpError):
                    failed[op] = results[op].reason
                    continue
                problem = check_verdict(geo, x, results[op])
                if problem is None and key.startswith("max") and results[op] is not True:
                    problem = f"maximizer {x} is not a packing"
                if problem:
                    bad.append(f"{op}: {problem}")
        for op, result in results.items():
            if not op.startswith("render/"):
                continue
            reason = _exit_failure(result)
            if reason:
                failed[op] = reason
                continue
            name = op.split("/", 1)[1]
            text = (self.workdir / f"{name}.svg").read_text(encoding="utf-8")
            expected = 1 + sum(1 for c in self.maximizers[name][0] if c > 0)
            try:
                count = svg_polygons(text)
            except ET.ParseError as exc:
                bad.append(f"{op}: SVG does not parse: {exc}")
                continue
            if count != expected:
                bad.append(f"{op}: {count} polygons, expected {expected}")
        return failed, bad


WORKLOADS = {w.name: w for w in (Pack, Family, Certify)}
