"""Workloads of the vankamg benchmark and the child process that runs one.

``run.py`` starts this file as a fresh interpreter per workload, so the
peak RSS it reads with ``RUSAGE_SELF`` belongs to that workload alone::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--spans PATH]

The child imports ``vankamg`` from ``src/`` of the checkout, repeats the
workload's call sequence while another repetition still fits in
``--seconds`` (at least once), checks every output it timed against the
values in ``frozen.json``, and prints one JSON object with the raw samples.
Checks run outside the timed sections.  Inputs come from ``--seed``: the
right-hand side of the to-tolerance solve is drawn here, and the seed is
passed to ``run_convergence``, whose public API draws its own start vector.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LFA_TOL = 1e-12          # every frozen LFA number (rho, mu, omega), absolute
MEASURED_RHO_RTOL = 2e-2  # measured contraction vs its frozen seed-0 value;
                          # seeds 0-9 differ from it by at most 0.92 %
SOLVE_TOL = 1e-10        # ||b - A u|| <= SOLVE_TOL ||b|| for time_to_tol_s
CYCLE_CAP = 100          # cycles allowed to reach SOLVE_TOL; hitting it fails
SAMPLES = 64             # frequency samples per dimension, as `vankamg solve`

CLI_CALLS = [
    ["table1"],
    ["table2"],
    ["eigfield", "--kind", "mass", "--nu", "2"],
    ["scan-omega", "--kind", "vanka-v", "--nu", "1"],
    ["scan-omega", "--kind", "vanka-e", "--dim", "2", "--nu", "2"],
]


@dataclass(frozen=True)
class Solve:
    """One `vankamg solve` call sequence plus a to-tolerance solve."""

    kind: str
    dim: int
    n: int           # interior points per dimension, h = 1/(n+1)
    cycle: str
    cycles: int      # convergence cycles, as `solve --cycles`


# name -> (definition, why it is in the benchmark)
WORKLOADS = {
    "lfa-tables": (
        CLI_CALLS,
        "LFA side only: table1, table2, eigfield and two omega scans through the "
        "CLI; 3D two-grid symbols dominate; never touches solver, vanka or stencils"),
    "vcycle-vanka-2d": (
        Solve("vanka-e", 2, 255, "v-cycle", 50),
        "element-Vanka V(1,0) at h=1/256: setup is dominated by build_vanka on the "
        "CSR operators of the coarse levels"),
    "vcycle-mass-3d": (
        Solve("mass3d", 3, 63, "v-cycle", 50),
        "3D mass smoother V(1,0) at h=1/64: cycles dominated by 27-point stencil "
        "application, plus the 3D two-grid LFA; bypasses vanka entirely"),
    "twogrid-vanka-2d": (
        Solve("vanka-e", 2, 255, "two-grid", 20),
        "element-Vanka two-grid (1,0) at h=1/256: the only workload dominated by "
        "the coarse direct solve and by memory"),
}


def load_frozen() -> dict:
    with open(HERE / "frozen.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _close(name, got, want, tol, problems):
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        problems.append(f"{name}: got {got!r}, frozen {want!r} (tol {tol:g})")


def _check_rows(label, rows, frozen_rows, keys, problems):
    if len(rows) != len(frozen_rows):
        problems.append(f"{label}: {len(rows)} rows, frozen {len(frozen_rows)}")
        return
    for row, want in zip(rows, frozen_rows):
        tag = f"{label} {want['kind']} dim {want['dim']}"
        if (row.get("kind"), row.get("dim")) != (want["kind"], want["dim"]):
            problems.append(f"{tag}: row is {row.get('kind')} dim {row.get('dim')}")
            continue
        for key in keys:
            if isinstance(want[key], str):
                if row.get(key) != want[key]:
                    problems.append(f"{tag} {key}: got {row.get(key)!r}, frozen {want[key]!r}")
            else:
                _close(f"{tag} {key}", row.get(key), want[key], LFA_TOL, problems)


def check_cli(argv, rc, out, err, frozen) -> list:
    """Problems with one CLI call's exit code and output (empty when correct)."""
    if rc != 0:
        return [f"exit status {rc}: {err.strip()[-200:]}"]
    want = frozen[" ".join(argv)]
    problems = []
    if argv[0] == "eigfield":
        summary = json.loads(err)
        lines = out.splitlines()
        if len(lines) - 1 != want["rows"]:
            problems.append(f"eigfield: {len(lines) - 1} rows, frozen {want['rows']}")
        for key in ("max_abs_eig", "omega"):
            _close(f"eigfield {key}", summary.get(key), want[key], LFA_TOL, problems)
        if summary.get("all_real") is not True or not summary.get("max_imag_part", 1) <= 1e-10:
            problems.append("eigfield: eigenvalues no longer real")
        for key in ("argmax_base", "argmax_coarse_freq"):
            got = summary.get(key) or []
            if len(got) != 2 or any(abs(g - w) > LFA_TOL for g, w in zip(got, want[key])):
                problems.append(f"eigfield {key}: got {got}, frozen {want[key]}")
        # the worst eigenvalue is tied across harmonics of the worst base to
        # rounding, so only the base of argmax_harmonic is checked
        shift = [(h - b) / math.pi for h, b in
                 zip(summary.get("argmax_harmonic") or [], want["argmax_base"])]
        if len(shift) != 2 or any(abs(s - round(s)) > 1e-9 for s in shift):
            problems.append(f"eigfield argmax_harmonic {summary.get('argmax_harmonic')} "
                            f"is not a harmonic of {want['argmax_base']}")
        return problems
    payload = json.loads(out)
    if argv[0] == "table1":
        if payload.get("pass") is not True:
            problems.append("table1: pass flag is not true")
        _check_rows("table1", payload.get("rows", []), want["rows"],
                    ["omega_exact", "mu_exact", "omega", "mu"], problems)
    elif argv[0] == "table2":
        if payload.get("pass") is not True:
            problems.append("table2: pass flag is not true")
        rows = [{**row, **{f"rho{k}": v for k, v in row.get("rho", {}).items()}}
                for row in payload.get("rows", [])]
        _check_rows("table2", rows, want["rows"],
                    ["omega", "mu", "rho1", "rho2", "rho3", "rho4"], problems)
    else:  # scan-omega
        best = payload.get("best") or {}
        for key in ("omega", "rho"):
            _close(f"scan-omega best {key}", best.get(key), want["best"][key], LFA_TOL, problems)
        if payload.get("omega_exact") != want["omega_exact"]:
            problems.append(f"scan-omega omega_exact {payload.get('omega_exact')!r}")
    return problems


# ---------------------------------------------------------------------------
# one repetition of a workload
# ---------------------------------------------------------------------------

class Rep:
    """Timings and failures of one repetition of a workload's call sequence."""

    def __init__(self):
        self.timed = {}      # section -> seconds
        self.cycle_ms = []
        self.cycles_to_tol = None
        self.attempted = 0
        self.errors = []

    def op(self, name, problems):
        self.attempted += 1
        if problems:
            self.errors.append(f"{name}: " + "; ".join(problems))

    @property
    def wall_s(self):
        return sum(self.timed.values())


def run_lfa_tables(frozen, rep: Rep):
    from vankamg import cli
    for argv in CLI_CALLS:
        out, err = io.StringIO(), io.StringIO()
        label = " ".join(argv)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                rc = cli.main(argv)
                rep.timed[label] = time.perf_counter() - start
            problems = check_cli(argv, rc, out.getvalue(), err.getvalue(), frozen)
        except Exception as exc:  # a crash is one failed operation, not a crashed run
            problems = [repr(exc)]
        rep.op(label, problems)


def reference_laplacian(u, dim: int, n: int):
    """Dirichlet negative Laplacian applied to ``u`` on the grid, matrix-free.

    Independent of the package, and it allocates only vectors of the size of
    ``u``, so the check adds next to nothing to the workload's peak RSS.
    """
    grid = u.reshape((n,) * dim)
    out = 2.0 * dim * grid
    for axis in range(dim):
        head = tuple(slice(None, -1) if a == axis else slice(None) for a in range(dim))
        tail = tuple(slice(1, None) if a == axis else slice(None) for a in range(dim))
        out[tail] -= grid[head]
        out[head] -= grid[tail]
    return out.reshape(-1) * (n + 1) ** 2


def run_solve(frozen, rep: Rep, w: Solve, seed: int, b):
    import numpy as np
    from vankamg import GridSpec, lfa, solver
    ops = ["build_hierarchy", "run_convergence", "two_grid_factor", "solve_to_tol"]
    try:
        omega = float(lfa.exact_optimum(w.kind, w.dim)[0])
        spec = lfa.SmootherSpec(lfa.SmootherKind(w.kind), w.dim, omega)
        cspec = solver.CycleSpec(spec, 1, 0, w.cycle)
        grid = GridSpec(w.dim, w.n, 1.0 / (w.n + 1))
        start = time.perf_counter()
        hier = solver.build_hierarchy(cspec, grid)
        rep.timed["build_hierarchy"] = time.perf_counter() - start
        problems = []
        _close("omega", omega, frozen["omega"], LFA_TOL, problems)
        rep.op(ops.pop(0), problems)

        start = time.perf_counter()
        run = solver.run_convergence(hier, cycles=w.cycles, seed=seed)
        rep.timed["run_convergence"] = time.perf_counter() - start
        problems = []
        _close("measured rho", run.factor, frozen["measured_rho"],
               MEASURED_RHO_RTOL * frozen["measured_rho"], problems)
        rep.op(ops.pop(0), problems)

        start = time.perf_counter()
        lfa_rho = lfa.two_grid_factor(spec, 1, 0, lfa.FrequencyGrid(w.dim, SAMPLES))
        rep.timed["two_grid_factor"] = time.perf_counter() - start
        problems = []
        _close("lfa rho", lfa_rho, frozen["lfa_rho"], LFA_TOL, problems)
        rep.op(ops.pop(0), problems)

        # to tolerance on the same hierarchy; only the cycles are timed, the
        # residual check is the benchmark's own work; time_to_tol_s adds the build
        b_norm = float(np.linalg.norm(b))
        u = np.zeros_like(b)
        cycles = 0
        while (np.linalg.norm(b - reference_laplacian(u, w.dim, w.n)) > SOLVE_TOL * b_norm
               and cycles < CYCLE_CAP):
            start = time.perf_counter()
            u = solver.cycle(hier, u, b)
            rep.cycle_ms.append(1e3 * (time.perf_counter() - start))
            cycles += 1
        rep.timed["solve_to_tol"] = sum(rep.cycle_ms) / 1e3
        rep.cycles_to_tol = cycles
        residual = float(np.linalg.norm(b - reference_laplacian(u, w.dim, w.n))) / b_norm
        problems = []
        if not residual <= SOLVE_TOL:
            problems.append(f"relative residual {residual:.3e} after {cycles} cycles "
                            f"(cap {CYCLE_CAP})")
        rep.op(ops.pop(0), problems)
    except Exception as exc:  # count this and every operation it prevented
        for name in ops:
            rep.op(name, [repr(exc)])


# ---------------------------------------------------------------------------
# child entry point
# ---------------------------------------------------------------------------

def metadata() -> dict:
    import numpy as np
    import scipy
    blas = {}
    with contextlib.suppress(Exception):
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build[k] for k in ("name", "version", "openblas configuration")
                if k in build}
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "cpu_count": os.cpu_count(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="write spans here (traced run)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import vankamg
    import_s = time.perf_counter() - start
    if not Path(vankamg.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported vankamg from {vankamg.__file__}, not {SRC}\n")
        return 2

    import numpy as np
    frozen = load_frozen()[args.workload]
    definition, _ = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    if isinstance(definition, Solve):
        b = np.random.default_rng([args.seed, 1]).standard_normal(definition.n ** definition.dim)

    reps, layers = [], []
    began = time.perf_counter()
    while True:
        rep = Rep()
        mark = tracer.begin() if tracer else 0
        if isinstance(definition, Solve):
            run_solve(frozen, rep, definition, args.seed, b)
        else:
            run_lfa_tables(frozen, rep)
        reps.append(rep)
        if tracer:
            layers.append(tracer.metrics(mark))
        elapsed = time.perf_counter() - began
        if elapsed + rep.wall_s > args.seconds or rep.errors:
            break

    if tracer and args.spans:
        tracer.write(args.spans)
    result = {
        "import_s": import_s,
        "reps": [{"wall_s": r.wall_s, "timed": r.timed, "cycle_ms": r.cycle_ms,
                  "cycles_to_tol": r.cycles_to_tol} for r in reps],
        "attempted": sum(r.attempted for r in reps),
        "errors": [e for r in reps for e in r.errors],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "notes": tracer.notes if tracer else [],
        "metadata": metadata(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
