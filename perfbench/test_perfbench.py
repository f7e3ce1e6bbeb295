"""Tests of the benchmark itself: one short round per workload, the checkers
on doctored results, the tracer, and the refusal to run without the program.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import specs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from specs import F  # noqa: E402

# Operations that fail today because of faults in the program; a mend may
# make them pass, nothing may add to them.
KNOWN_FAULTS = {"pack/malformed", "safe-radius/pentagon"}


def one_round(name: str, tmp_path: Path, seed: int = 7):
    work = workloads.WORKLOADS[name](seed, tmp_path)
    tp = workloads.load_program(run.SRC)
    work.setup(tp)
    ops = work.ops()
    _, times, results = run.run_round(tp, ops)
    return work, tp, ops, results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_checks_out(name, tmp_path):
    work, _, ops, results = one_round(name, tmp_path)
    failed, problems = work.check(results)
    assert problems == []
    assert set(failed) <= KNOWN_FAULTS
    assert len(results) == len(ops)


def test_density_checker_rejects_an_off_density(tmp_path):
    work, _, _, results = one_round("pack", tmp_path)
    spec = work.specs[3]
    assert spec.name == "pentagon"
    doc = json.loads(results["pack/pentagon"][1])
    assert workloads.check_density(spec, work.geometry["pentagon"], doc) == []
    doc["max_density"] = specs.fmt(F(doc["max_density"]) + F(1, 1000))
    assert workloads.check_density(spec, work.geometry["pentagon"], doc)


def test_verdict_checker_rejects_a_vector_outside_the_box():
    geo = specs.geometry(specs.pentagon())
    inside = tuple(F(0) for _ in geo.radii)
    assert workloads.check_verdict(geo, inside, True) is None
    assert workloads.check_verdict(geo, inside, False)
    outside = (geo.radii[0] + F(1, 1000),) + inside[1:]
    assert "outside the box" in workloads.check_verdict(geo, outside, True)


def test_scan_checker_rejects_a_nonzero_fourth_difference():
    samples = 6
    ts = [F(k, samples) for k in range(samples + 1)]
    vols = [(1 + t) ** 3 for t in ts]
    summary = {"vol_root_midpoint_concave": True}
    rows = [[specs.fmt(t), specs.fmt(v)] for t, v in zip(ts, vols)]
    assert workloads.check_scan(3, samples, rows, summary) == []
    rows[3][1] = specs.fmt(vols[3] + F(1, 1000))
    assert workloads.check_scan(3, samples, rows, summary)


def test_safe_radius_reference():
    assert specs.exact_safe_radius(specs.square(), specs.geometry(specs.square())) == F(1, 2)
    pent = specs.pentagon()
    assert specs.exact_safe_radius(pent, specs.geometry(pent)) == F(1, 30)


def test_radius_vectors_alternate_packings_and_overlaps():
    geo = specs.geometry(specs.cube(3))
    vectors = specs.radius_vectors(geo, 8, specs.random.Random(3))
    assert all(0 <= c <= r for x in vectors for c, r in zip(x, geo.radii))
    assert [specs.is_packing(geo, x) for x in vectors] == [True, False] * 4


def test_traced_counts_repeat_and_wrappers_come_off(tmp_path):
    work = workloads.Pack(1, tmp_path)
    tp = workloads.load_program(run.SRC)
    work.setup(tp)
    ops = work.ops()[:8]
    original = tp.packing.maximize
    totals = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        assert tp.packing.maximize is not original
        assert tp.cli.maximize is tp.packing.maximize
        try:
            run.run_round(tp, ops)
        finally:
            tr.uninstall()
        totals.append(tr.layer_totals())
    assert tp.packing.maximize is original and tp.cli.maximize is original
    counts = [{k: v for k, v in t.items() if tracer.unit(k) != "s"} for t in totals]
    assert counts[0] == counts[1]
    first = totals[0]
    assert first["cli.main.calls"] == 8
    assert first["packing.maximize.calls"] == 8
    for f in tracer.FUNCTIONS:
        assert 0 <= first[f"{f}.self_s"] <= first[f"{f}.s"] + 1e-9


def test_benchmark_json_lists_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == sorted(workloads.WORKLOADS, key=[
        "pack", "family", "certify"].index)
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "pass_s", "op_ms", "peak_rss_mib"}
    layer = [(k, tracer.unit(k)) for k in tracer.metric_names()]
    layer += [("trace.pass_s", "s"), ("trace.overhead", "ratio")]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
