"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 perfbench/trajectory.py --runs 10 [--out perfbench/trajectory/BENCH_<tag>.json]

Round ``k`` (seeds 1 to ``--runs``) runs every workload of ``workloads.py``
once (``--trace 0``) for ``run_seconds`` of ``BENCHMARK.json``, so a slow
period of the machine hits all workloads alike.  One traced run per
workload, with seed 1, follows.  Ten rounds take about 50 minutes on a
2-CPU machine, most of it in ``twogrid-vanka-2d``.  For every end-to-end
metric the summary gives the median over runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) / median``,
next to the bound in ``BENCHMARK.json``.
With ``--out`` the summary, the per-layer numbers and the metadata of the
first run are written as one JSON file: a point of the performance
trajectory that later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if med else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS)

    runs = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            runs[w].append(run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: {json.dumps(runs[w][-1]['result'])}", flush=True)
    traced = {w: run(w, 1, seconds, 1) for w in names}

    summary = {}
    for w in names:
        metrics = {}
        for name, m in runs[w][0]["report"]["metrics"].items():
            values = [r["report"]["metrics"][name]["median"] for r in runs[w]]
            metrics[name] = {**spread(values), "unit": m["unit"], "bound": bounds.get(name)}
        layer = traced[w]["report"]
        summary[w] = {
            "why": WORKLOADS[w][1],
            "failed": sum(r["result"]["failed"] for r in runs[w]),
            "attempted": sum(r["result"]["attempted"] for r in runs[w]),
            "end_to_end": metrics,
            "per_layer": {k: v["median"] for k, v in layer["metrics"].items()},
            "notes": layer["notes"],
        }
        for name, m in metrics.items():
            bound, width = m["bound"], m["spread"]
            flag = "" if bound is None or width is None \
                else "  ok" if width <= bound / 3 else "  WIDE"
            text = "n/a" if width is None else f"{width:.4f}"
            print(f"{w:18s} {name:14s} {m['median']:12.6g} {m['unit']:6s} "
                  f"spread {text} bound {bound}{flag}")
    if args.out:
        point = {"seconds": seconds, "runs": args.runs,
                 "metadata": runs[names[0]][0]["report"]["metadata"], "workloads": summary}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
