"""Command-line front end.

Subcommands reproduce the reference results and drive the solver:

* ``table1``     optimal damping and smoothing factors, six smoother/dim pairs
* ``table2``     two-grid convergence factors for 1 to 4 sweeps, all pairs
* ``eigfield``   two-grid eigenvalue field as CSV plus a JSON summary
* ``solve``      measured multigrid contraction versus the LFA prediction
* ``scan-omega`` brute-force damping scan against the closed-form optimum

Exit status: 0 on success, 1 when a checked tolerance is violated, 2 on
usage or configuration errors.  Output is deterministic for fixed flags.

Only ``solve`` imports the solver, and with it scipy; the analysis
subcommands run on numpy alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import ceil

import numpy as np

from . import lfa
from .lfa import FrequencyGrid, SmootherKind, SmootherSpec
from .stencils import GridSpec

# two-grid factors at the optimal damping, 64-point sampling; regression
# references for the table2 gate (tolerance 1.5e-2)
REFERENCE_TWO_GRID = [
    ("vanka-e", 1, (0.059, 0.059, 0.040, 0.031)),
    ("vanka-v", 1, (0.091, 0.033, 0.022, 0.017)),
    ("vanka-e", 2, (0.280, 0.092, 0.059, 0.045)),
    ("vanka-v", 2, (0.391, 0.153, 0.076, 0.055)),
    ("mass", 2, (0.333, 0.111, 0.037, 0.029)),
    ("jacobi", 3, (0.714, 0.510, 0.364, 0.260)),
    ("mass3d", 3, (0.618, 0.382, 0.236, 0.146)),
]

TABLE1_PAIRS = [("jacobi", 1), ("vanka-e", 1), ("vanka-v", 1),
                ("jacobi", 2), ("vanka-e", 2), ("vanka-v", 2)]

MU_TOLERANCE = 5e-3
RHO_TOLERANCE = 1.5e-2
OMEGA_SCAN_MAX = 1.5
OMEGA_SCAN_POINTS = 10_000    # a finer scan is refused before any omega is listed


class CliError(Exception):
    """Configuration problem; reported with exit status 2."""


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"--out {out_path}: {exc.strerror or exc}") from exc


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in (row[h] for h in header)))
    return "\n".join(lines) + "\n"


def _parse_h(text: str) -> Fraction:
    try:
        h = Fraction(text) if "/" in text else Fraction(float(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse mesh spacing {text!r}") from exc
    d = h.denominator
    if h.numerator != 1 or d & (d - 1) or d < 4:
        raise CliError(f"mesh spacing must be 1/2**k with k >= 2, got {text}")
    return h


def _nu_split(nu: int) -> tuple:
    return ceil(nu / 2), nu // 2


def _sweeps(args) -> tuple:
    """``(nu1, nu2)`` from ``--nu`` (split as pre/post) or ``--nu1``/``--nu2``."""
    nu1, nu2 = (args.nu1, args.nu2) if args.nu is None else _nu_split(args.nu)
    if nu1 < 0 or nu2 < 0 or nu1 + nu2 < 1:
        raise CliError("need nonnegative smoothing sweep counts and at least one "
                       f"sweep, got nu1 = {nu1}, nu2 = {nu2}")
    return nu1, nu2


def _frequency_grid(dim: int, samples: int) -> FrequencyGrid:
    try:
        return FrequencyGrid(dim, samples)
    except ValueError as exc:
        raise CliError(f"--samples {samples}: {exc}") from exc


def _spec(kind: str, dim: int, omega) -> SmootherSpec:
    try:
        if omega is None:
            omega = float(lfa.exact_optimum(kind, dim)[0])
        return SmootherSpec(SmootherKind(kind), dim, float(omega))
    except (ValueError, KeyError) as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_table1(args) -> int:
    fgrids = {dim: _frequency_grid(dim, args.samples) for _, dim in TABLE1_PAIRS}
    rows = []
    worst = 0.0
    for kind, dim in TABLE1_PAIRS:
        opt = lfa.optimal_omega(kind, dim, fgrids[dim])
        mu_err = abs(opt.mu - float(opt.mu_exact))
        worst = max(worst, mu_err)
        rows.append({
            "kind": kind, "dim": dim,
            "omega_exact": str(opt.omega_exact), "mu_exact": str(opt.mu_exact),
            "omega": opt.omega, "mu": opt.mu, "mu_error": mu_err,
        })
    ok = worst <= MU_TOLERANCE
    if args.format == "csv":
        text = _csv(rows, ["kind", "dim", "omega_exact", "mu_exact",
                           "omega", "mu", "mu_error"])
    else:
        text = _dump_json({"rows": rows, "tolerance": MU_TOLERANCE, "pass": ok})
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_table2(args) -> int:
    fgrids = {dim: _frequency_grid(dim, args.samples) for _, dim, _ in REFERENCE_TWO_GRID}
    rows = []
    ok = True
    for kind, dim, reference in REFERENCE_TWO_GRID:
        spec = _spec(kind, dim, None)
        fgrid = fgrids[dim]
        mu = lfa.smoothing_factor(spec, fgrid)
        rho = {}
        deviation = 0.0
        for nu in (1, 2, 3, 4):
            nu1, nu2 = _nu_split(nu)
            value = lfa.two_grid_factor(spec, nu1, nu2, fgrid)
            rho[str(nu)] = value
            deviation = max(deviation, abs(value - reference[nu - 1]))
        ok = ok and deviation <= RHO_TOLERANCE
        rows.append({
            "kind": kind, "dim": dim, "omega": spec.omega, "mu": mu,
            "rho": rho, "reference": list(reference), "deviation": deviation,
        })
    if args.format == "csv":
        flat = []
        for row in rows:
            flat.append({"kind": row["kind"], "dim": row["dim"], "omega": row["omega"],
                         "mu": row["mu"],
                         **{f"rho{nu}": row["rho"][str(nu)] for nu in (1, 2, 3, 4)},
                         "deviation": row["deviation"]})
        text = _csv(flat, ["kind", "dim", "omega", "mu",
                           "rho1", "rho2", "rho3", "rho4", "deviation"])
    else:
        text = _dump_json({"rows": rows, "tolerance": RHO_TOLERANCE, "pass": ok})
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_eigfield(args) -> int:
    if args.dim != 2:
        raise CliError("eigenvalue fields are produced for dim 2 only")
    spec = _spec(args.kind, 2, args.omega)
    nu1, nu2 = _sweeps(args)
    field = lfa.eigenfield(spec, nu1, nu2, _frequency_grid(2, args.samples))
    summary = _dump_json({"kind": args.kind, "dim": 2, "omega": spec.omega,
                          "nu1": nu1, "nu2": nu2, **field.summary})
    # the CSV goes where --out says; the summary to whichever stream is left
    _emit(field.to_csv(), args.out)
    (sys.stdout if args.out else sys.stderr).write(summary)
    return 0


def cmd_solve(args) -> int:
    from . import solver  # the only subcommand that needs scipy

    h = _parse_h(args.h)
    n = h.denominator - 1
    spec = _spec(args.kind, args.dim, args.omega)
    fgrid = _frequency_grid(args.dim, args.samples)
    if args.cycles < 2:
        raise CliError(f"--cycles must be at least 2, got {args.cycles}")
    if args.seed < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}")
    try:
        cspec = solver.CycleSpec(spec, args.nu1, args.nu2, args.cycle)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        hier = solver.build_hierarchy(cspec, GridSpec(args.dim, n, float(h)))
    except ValueError as exc:
        raise CliError(f"--h {args.h}: {exc}") from exc
    try:
        run = solver.run_convergence(hier, cycles=args.cycles, seed=args.seed)
    except solver.StagnationError as exc:
        raise CliError(f"--nu1 {args.nu1} --nu2 {args.nu2}: {exc}") from exc
    lfa_rho = lfa.two_grid_factor(spec, args.nu1, args.nu2, fgrid)
    payload = {
        "spec": {"kind": args.kind, "dim": args.dim, "omega": spec.omega,
                 "nu1": args.nu1, "nu2": args.nu2, "cycle": args.cycle},
        "h": float(h), "n": n, "seed": args.seed,
        "measured_rho": run.factor, "lfa_rho": lfa_rho,
        "cycles": list(run.ratios),
    }
    if args.format == "csv":
        rows = [{"cycle": i + 1, "ratio": r} for i, r in enumerate(run.ratios)]
        text = _csv(rows, ["cycle", "ratio"])
    else:
        text = _dump_json(payload)
    _emit(text, args.out)
    return 0


def cmd_scan_omega(args) -> int:
    spec_probe = _spec(args.kind, args.dim, None)  # validates the pair
    nu1, nu2 = _sweeps(args)
    if not args.step > 0:    # also refuses nan
        raise CliError(f"--step must be positive, got {args.step}")
    points = OMEGA_SCAN_MAX / args.step + 1e-9
    if points >= OMEGA_SCAN_POINTS + 1:
        raise CliError(f"--step {args.step} would scan {points:.3g} omegas, "
                       f"over the cap of {OMEGA_SCAN_POINTS}")
    omegas = [args.step * k for k in range(1, int(points) + 1)]
    if not omegas:
        sys.stderr.write(f"warning: step {args.step} exceeds {OMEGA_SCAN_MAX}; "
                         "scanning the single point omega = 1.5\n")
        omegas = [OMEGA_SCAN_MAX]
    fgrid = _frequency_grid(args.dim, args.samples)
    rows = []
    best = None
    for omega in omegas:
        rho = lfa.two_grid_factor(SmootherSpec(spec_probe.kind, args.dim, omega),
                                  nu1, nu2, fgrid)
        rows.append({"omega": omega, "rho": rho})
        if best is None or rho < best["rho"]:
            best = rows[-1]
    exact_omega, _ = lfa.exact_optimum(args.kind, args.dim)
    payload = {"rows": rows, "best": best, "nu1": nu1, "nu2": nu2,
               "omega_exact": str(exact_omega)}
    if args.format == "csv":
        text = _csv(rows, ["omega", "rho"])
    else:
        text = _dump_json(payload)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub, dim_default=None):
    sub.add_argument("--samples", type=int, default=lfa.DEFAULT_SAMPLES,
                     help="frequency samples per dimension")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write output to this path")
    if dim_default is not None:
        sub.add_argument("--dim", type=int, default=dim_default, choices=(1, 2, 3))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vankamg",
        description="local Fourier analysis and multigrid for additive Vanka smoothers")
    subs = parser.add_subparsers(dest="command", required=True)
    kinds = tuple(k.value for k in SmootherKind)

    p = subs.add_parser("table1", help="optimal damping and smoothing factors")
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = subs.add_parser("table2", help="two-grid factors for 1 to 4 sweeps")
    _add_common(p)
    p.set_defaults(func=cmd_table2)

    p = subs.add_parser("eigfield", help="two-grid eigenvalue field (dim 2)")
    p.add_argument("--kind", choices=("vanka-e", "vanka-v", "mass"), required=True)
    p.add_argument("--nu", type=int, default=None, help="total sweeps, split as pre/post")
    p.add_argument("--nu1", type=int, default=1)
    p.add_argument("--nu2", type=int, default=0)
    p.add_argument("--omega", type=float, default=None)
    _add_common(p, dim_default=2)
    p.set_defaults(func=cmd_eigfield)

    p = subs.add_parser("solve", help="run multigrid and compare with LFA")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--nu1", type=int, default=1)
    p.add_argument("--nu2", type=int, default=0)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--h", default="1/64", help="mesh spacing, e.g. 1/64")
    p.add_argument("--cycle", choices=("two-grid", "v-cycle"), default="two-grid")
    p.add_argument("--cycles", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, dim_default=2)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("scan-omega", help="damping scan of the two-grid factor")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--nu", type=int, default=None, help="total sweeps, split as pre/post")
    p.add_argument("--nu1", type=int, default=1)
    p.add_argument("--nu2", type=int, default=0)
    p.add_argument("--step", type=float, default=0.02)
    _add_common(p, dim_default=1)
    p.set_defaults(func=cmd_scan_omega)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
