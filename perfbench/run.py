"""Benchmark of vankamg: four fixed workloads, timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and the reason each one exists are defined in ``workloads.py``.
Every workload runs in a fresh child process (``workloads.py``), so the
peak RSS it reports is its own.  All load comes from that one child, which
runs one BLAS thread.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``wall_s``         the workload's whole call sequence;
* ``setup_s``        ``import vankamg`` (median over fresh interpreters) plus
                     ``build_hierarchy``; the import only for ``lfa-tables``;
* ``cycle_ms``       one fine-level ``cycle`` call on a built hierarchy;
* ``time_to_tol_s``  ``build_hierarchy`` plus the cycles from ``u = 0`` until
                     ``||b - A u|| <= 1e-10 ||b||`` (residual checks untimed);
* ``cycles_to_tol``  the cycles that solve took;
* ``peak_rss_mb``    ``ru_maxrss`` of the child (``RUSAGE_SELF``);
* ``error_rate``     failed over attempted operations.

Metrics that do not apply to a workload (no cycles in ``lfa-tables``) are
left out of the report.  Timings are medians with the highest percentile
that has at least ten samples beyond it, and the sample count.  The last
line of standard output is the JSON result; it carries the metrics that
apply to every workload (``wall_s``, ``setup_s``, ``peak_rss_mb``), the line
before it a JSON report with all of them and the run's metadata.

``--trace 1`` runs the workload once more with spans recorded around the
package's functions (``tracing.py``) and reports the per-layer metrics, the
tracing overhead (traced minus untraced ``wall_s``) and notes on hooks that
could not be installed.  Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_METRICS, SPAN_METRICS
from workloads import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
TIME_LIMIT = 170.0    # seconds one invocation may take; the child is killed after
IMPORT_PROBES = 5     # fresh interpreters timing `import vankamg`
# One BLAS thread: on a shared 2-CPU host a second OpenBLAS thread in the
# cycles' small GEMMs made their time swing by about 4x between runs, and gave
# no speed-up when the host was quiet.
BLAS_THREADS = "1"
PROBE = ("import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
         "import vankamg; print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def timing(samples) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for p in (99.9, 99, 95, 90, 75):
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            out[f"p{p:g}"] = xs[rank - 1]
            break
    return out


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args, trace: bool, seconds: float, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload child exceeded the {TIME_LIMIT:g} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload child exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe_import(deadline: float) -> float:
    proc = subprocess.run([sys.executable, "-c", PROBE.format(src=str(SRC))],
                          capture_output=True, text=True, env=child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"import vankamg failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def end_to_end(child: dict, imports: list) -> dict:
    reps = child["reps"]
    import_s = statistics.median(imports)
    builds = [r["timed"]["build_hierarchy"] for r in reps if "build_hierarchy" in r["timed"]]
    m = {"wall_s": {**timing([r["wall_s"] for r in reps]), "unit": "s"},
         "setup_s": {"median": import_s + (statistics.median(builds) if builds else 0.0),
                     "import_s": timing(imports), "unit": "s"}}
    if builds:
        m["setup_s"]["build_hierarchy_s"] = timing(builds)
    cycles = [c for r in reps for c in r["cycle_ms"]]
    if cycles:
        m["cycle_ms"] = {**timing(cycles), "unit": "ms"}
    solves = [r for r in reps if "solve_to_tol" in r["timed"]]
    if solves:
        m["time_to_tol_s"] = {**timing([r["timed"]["build_hierarchy"] + r["timed"]["solve_to_tol"]
                                        for r in solves]), "unit": "s"}
        counts = [r["cycles_to_tol"] for r in solves]
        m["cycles_to_tol"] = {"median": statistics.median(counts), "values": counts,
                              "unit": "count"}
    m["peak_rss_mb"] = {"median": child["peak_rss_mb"], "unit": "MB"}
    return m


def per_layer(traced: dict, untraced) -> tuple:
    layers = traced["layers"]
    names = [n for n in [*SPAN_METRICS, *COUNT_METRICS] if all(n in rep for rep in layers)]
    m = {}
    for name in names:
        unit = ("s" if name.endswith("_s") else "B" if name.endswith("_bytes")
                else "ratio" if name.endswith("complexity") else "count")
        m[name] = {"median": statistics.median(rep[name] for rep in layers), "unit": unit}
    notes = list(traced["notes"])
    if untraced is None:
        notes.append("trace.overhead_s dropped: an untraced reference run would not "
                     f"fit in the {TIME_LIMIT:g} s limit")
    else:
        traced_wall = statistics.median(r["wall_s"] for r in traced["reps"])
        plain_wall = statistics.median(r["wall_s"] for r in untraced["reps"])
        m["trace.overhead_s"] = {"median": traced_wall - plain_wall, "unit": "s",
                                 "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall}
    return m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vankamg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no vankamg sources under {SRC}; run from a checkout\n")
        return 2

    started = time.monotonic()
    deadline = started + TIME_LIMIT
    load_start = os.getloadavg()
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                       check=True, capture_output=True, timeout=120)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = run_child(args, True, args.seconds / 2, deadline, spans)
            spent = time.monotonic() - started
            untraced = None
            if 2 * spent < TIME_LIMIT - 10:
                untraced = run_child(args, False, args.seconds / 2, deadline)
            metrics, notes = per_layer(traced, untraced)
            children = [c for c in (traced, untraced) if c]
        else:
            imports = [probe_import(deadline) for _ in range(IMPORT_PROBES)]
            child = run_child(args, False, args.seconds, deadline)
            metrics = end_to_end(child, [child["import_s"], *imports])
            notes, spans, children = [], None, [child]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    attempted = sum(c["attempted"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    metrics["error_rate"] = {"median": len(errors) / attempted, "unit": "ratio"}
    report = {
        "workload": args.workload, "why": WORKLOADS[args.workload][1], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
        "attempted": attempted, "failed": len(errors), "errors": errors, "notes": notes,
        "spans": str(spans.relative_to(ROOT)) if spans else None,
        "metadata": {"git_sha": git_sha(), **children[0]["metadata"],
                     "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                     "elapsed_s": time.monotonic() - started},
    }
    for name, m in metrics.items():
        extra = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in m.items() if k not in ("median", "unit"))
        print(f"{name:32s} {m['median']:14.6g} {m['unit']:6s} {extra}")
    for line in errors:
        print(f"error: {line}")
    for line in notes:
        print(f"note: {line}")
    print(json.dumps({"report": report}))

    if args.trace:
        keys = [k for k in metrics if k != "error_rate"]
    else:
        keys = ["wall_s", "setup_s", "peak_rss_mb"]
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": metrics[k]["median"], "unit": metrics[k]["unit"]}
                    for k in keys}}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
