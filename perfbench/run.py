"""Benchmark of toricpack: one workload per run, in one process and thread.

    python3 perfbench/run.py --workload pack --seed 1 --seconds 40 --trace 0

Set-up (import, plus writing, loading and validating the workload's spec
files) runs SETUPS times and its median is ``setup_s``.  Then whole rounds
of the workload's operations run, in the same order, until the next round
would end past ``--seconds``; ``pass_s`` is the median round and ``op_ms``
the median operation latency over all rounds.  Outputs are checked after each round, outside the
timed region.  With ``--trace 1`` untraced and traced rounds alternate, and
the per-layer metrics are per traced round.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_round(tp, ops):
    """One round: every operation once, in order, each timed on its own."""
    gc.collect()
    results, times = {}, []
    start = time.perf_counter()
    for name, op in ops:
        t = time.perf_counter()
        try:
            results[name] = op(tp)
        except Exception as exc:  # a raising operation counts as failed
            results[name] = workloads.OpError(exc)
        times.append(time.perf_counter() - t)
    return time.perf_counter() - start, times, results


def measure(workload_cls, seed: int, seconds: float, trace: bool, workdir: Path):
    work = workload_cls(seed, workdir)
    setups = []
    for _ in range(SETUPS):
        gc.collect()
        t = time.perf_counter()
        tp = workloads.load_program(SRC)
        work.setup(tp)
        setups.append(time.perf_counter() - t)
    ops = work.ops()
    gc.freeze()

    tr = tracer.Tracer() if trace else None
    passes = {False: [], True: []}
    op_times: list[float] = []
    attempted, failed, problems = 0, {}, []
    begin = time.perf_counter()
    cycles: list[float] = []
    while True:
        cycle = time.perf_counter()
        traced = trace and len(passes[False]) > len(passes[True])
        if traced:
            tr.install()
        try:
            total, times, results = run_round(tp, ops)
        finally:
            if traced:
                tr.uninstall()
        passes[traced].append(total)
        op_times += times
        round_failed, bad = work.check(results)
        attempted += len(ops)
        for op, reason in round_failed.items():
            failed.setdefault(op, [reason, 0])[1] += 1
        problems += [p for p in bad if p not in problems]
        cycles.append(time.perf_counter() - cycle)
        if trace and not passes[True]:
            continue
        if time.perf_counter() - begin + statistics.median(cycles) > seconds:
            break

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(n for _, n in failed.values()),
    }
    if trace:
        traced_rounds = len(passes[True])
        totals = tr.layer_totals()
        metrics = {k: {"value": v / traced_rounds, "unit": tracer.unit(k)}
                   for k, v in totals.items()}
        traced_pass = statistics.median(passes[True])
        metrics["trace.pass_s"] = {"value": traced_pass, "unit": "s"}
        metrics["trace.overhead"] = {
            "value": traced_pass / statistics.median(passes[False]), "unit": "ratio"}
        tr.write(OUT / f"spans-{work.name}-{seed}.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(passes[False]), "unit": "s"},
            "op_ms": {"value": 1000 * statistics.median(op_times), "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    result["metrics"] = metrics
    rounds = len(passes[False]) + len(passes[True])
    print(f"{work.name} seed {seed}: {rounds} rounds of {len(ops)} operations, "
          f"passes {[round(p, 3) for p in passes[False]]}"
          + (f", traced {[round(p, 3) for p in passes[True]]}" if trace else ""),
          file=sys.stderr)
    for op, (reason, n) in sorted(failed.items()):
        print(f"failed {n}x {op}: {reason}", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
