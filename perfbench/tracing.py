"""In-memory spans around the package's public functions.

The traced run replaces functions *as the calling module sees them* (for
example ``build_vanka`` in the ``vankamg.solver`` namespace, or
``scipy.linalg.lu_factor`` reached through ``vankamg.solver``) with
wrappers that record a span: name, start, end and parent span.  Spans stay
in memory and are written out when the run ends.

Hooks must survive refactors of the package: a target that is missing or
renamed drops only the layer metrics fed by that hook and adds a note.  A
callback that fails while reading counts from a result is disabled with a
note.  Wrappers return what the wrapped function returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import scipy.sparse as sp


def _nbytes(obj) -> int:
    """Bytes held by the arrays of a dense factorisation result."""
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    return int(obj.nbytes)


def _vanka_span(args, kwargs):
    operator_is_matrix = any(sp.issparse(a) for a in (*args, *kwargs.values()))
    return "vanka.build_matrix" if operator_is_matrix else "vanka.build_stencil"


def _vanka_counts(tracer, args, kwargs, op):
    tracer.count("vanka.patches", len(op.patches))
    tracer.count("vanka.distinct_inverses", len({id(p.inverse) for p in op.patches}))


def _lfa_bases(tracer, args, kwargs, result):
    tracer.count("lfa.bases", int(args[1].shape[0]))


def _hierarchy_counts(tracer, args, kwargs, hier):
    nnz = [level.matrix.nnz for level in hier.levels]
    points = [level.grid.npoints for level in hier.levels]
    tracer.count("solver.levels", len(hier.levels))
    tracer.count("solver.nnz", sum(nnz))
    tracer.count("solver.operator_complexity", sum(nnz) / nnz[0])
    tracer.count("solver.grid_complexity", sum(points) / points[0])


def _coarse_factor(tracer, args, kwargs, factor):
    tracer.count("solver.coarse_factor_bytes", _nbytes(factor))


# (span name or naming function, target, result callback, metrics the hook
# feeds).  A target is "module:attribute.path".
HOOKS = [
    ("cli.table1", "vankamg.cli:cmd_table1", None, ["cli.table1_s"]),
    ("cli.table2", "vankamg.cli:cmd_table2", None, ["cli.table2_s"]),
    ("cli.eigfield", "vankamg.cli:cmd_eigfield", None, ["cli.eigfield_s"]),
    ("cli.scan_omega", "vankamg.cli:cmd_scan_omega", None, ["cli.scan_omega_s"]),
    ("lfa.two_grid_factor", "vankamg.cli:lfa.two_grid_factor", None,
     ["lfa.two_grid_factor_s", "lfa.two_grid_factor_calls"]),
    ("lfa.two_grid_stack", "vankamg.lfa:_two_grid_stack", _lfa_bases, ["lfa.bases"]),
    ("lfa.smoothing_factor", "vankamg.cli:lfa.smoothing_factor", None,
     ["lfa.smoothing_factor_s"]),
    ("lfa.optimal_omega", "vankamg.cli:lfa.optimal_omega", None, ["lfa.optimal_omega_s"]),
    ("lfa.eigenfield", "vankamg.cli:lfa.eigenfield", None, ["lfa.eigenfield_s"]),
    (_vanka_span, "vankamg.solver:build_vanka", _vanka_counts,
     ["vanka.build_stencil_s", "vanka.build_matrix_s", "vanka.patches",
      "vanka.distinct_inverses"]),
    ("vanka.apply", "vankamg.vanka:VankaOperator.apply", None,
     ["vanka.apply_s", "vanka.apply_calls"]),
    ("vanka.assemble_sparse", "vankamg.solver:assemble_sparse", None,
     ["vanka.assemble_sparse_s"]),
    ("solver.build_hierarchy", "vankamg.solver:build_hierarchy", _hierarchy_counts,
     ["solver.build_hierarchy_s", "solver.build_hierarchy_self_s", "solver.levels",
      "solver.nnz", "solver.operator_complexity", "solver.grid_complexity"]),
    ("solver.transfer_ops", "vankamg.solver:transfer_ops", None, ["solver.transfer_ops_s"]),
    ("solver.coarse_factor", "vankamg.solver:scipy.linalg.lu_factor", _coarse_factor,
     ["solver.coarse_factor_s", "solver.coarse_factor_bytes"]),
    ("solver.coarse_solve", "vankamg.solver:scipy.linalg.lu_solve", None,
     ["solver.coarse_solve_s", "solver.coarse_solve_calls"]),
    ("solver.relax", "vankamg.solver:relax", None, ["solver.relax_s", "solver.relax_calls"]),
    ("stencils.apply", "vankamg.solver:stencils.apply", None,
     ["stencils.apply_s", "stencils.apply_calls"]),
]

# metric -> (span name, what to take from its spans)
SPAN_METRICS = {
    "cli.table1_s": ("cli.table1", "time"),
    "cli.table2_s": ("cli.table2", "time"),
    "cli.eigfield_s": ("cli.eigfield", "time"),
    "cli.scan_omega_s": ("cli.scan_omega", "time"),
    "lfa.two_grid_factor_s": ("lfa.two_grid_factor", "time"),
    "lfa.two_grid_factor_calls": ("lfa.two_grid_factor", "calls"),
    "lfa.smoothing_factor_s": ("lfa.smoothing_factor", "time"),
    "lfa.optimal_omega_s": ("lfa.optimal_omega", "time"),
    "lfa.eigenfield_s": ("lfa.eigenfield", "time"),
    "vanka.build_stencil_s": ("vanka.build_stencil", "time"),
    "vanka.build_matrix_s": ("vanka.build_matrix", "time"),
    "vanka.apply_s": ("vanka.apply", "time"),
    "vanka.apply_calls": ("vanka.apply", "calls"),
    "vanka.assemble_sparse_s": ("vanka.assemble_sparse", "time"),
    "solver.build_hierarchy_s": ("solver.build_hierarchy", "time"),
    "solver.build_hierarchy_self_s": ("solver.build_hierarchy", "self"),
    "solver.transfer_ops_s": ("solver.transfer_ops", "time"),
    "solver.coarse_factor_s": ("solver.coarse_factor", "time"),
    "solver.coarse_solve_s": ("solver.coarse_solve", "time"),
    "solver.coarse_solve_calls": ("solver.coarse_solve", "calls"),
    "solver.relax_s": ("solver.relax", "time"),
    "solver.relax_calls": ("solver.relax", "calls"),
    "stencils.apply_s": ("stencils.apply", "time"),
    "stencils.apply_calls": ("stencils.apply", "calls"),
}

COUNT_METRICS = ["lfa.bases", "vanka.patches", "vanka.distinct_inverses",
                 "solver.levels", "solver.nnz", "solver.operator_complexity",
                 "solver.grid_complexity", "solver.coarse_factor_bytes"]


def _resolve(target: str):
    """Return ``(owner, attribute)`` for ``"module:a.b.c"``, or raise."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)
    return owner, attr


class Tracer:
    """Span recorder; install once, before the workload builds anything."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None]
        self.counts = {}
        self.notes = []
        self.dropped = set()   # metrics whose hook could not be installed
        self._failed = set()   # result callbacks that raised once
        self._stack = []

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def install(self) -> None:
        for span_name, target, on_result, metrics in HOOKS:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError, ValueError):
                self.dropped.update(metrics)
                self.notes.append(f"no hook target {target}; dropped {metrics}")
                continue
            setattr(owner, attr, self._wrap(getattr(owner, attr), span_name, on_result))

    def _wrap(self, func, span_name, on_result):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = span_name if isinstance(span_name, str) else span_name(args, kwargs)
            record = [name, time.perf_counter(), None,
                      tracer._stack[-1] if tracer._stack else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None and on_result not in tracer._failed:
                tracer._observe(on_result, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, on_result, args, kwargs, result):
        try:
            on_result(self, args, kwargs, result)
        except Exception as exc:  # a count must never break the traced run
            self._failed.add(on_result)
            for _, _, callback, metrics in HOOKS:
                if callback is on_result:
                    counted = [m for m in metrics if m in COUNT_METRICS]
                    self.dropped.update(counted)
            self.notes.append(f"{on_result.__name__} failed ({exc!r}); counts dropped")

    def begin(self) -> int:
        """Start a measured section; returns the mark to pass to ``metrics``."""
        self.counts = {}
        return len(self.spans)

    def metrics(self, since: int) -> dict:
        """Layer metrics of the spans and counts recorded since ``begin()``."""
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent is not None and parent >= since:
                child_time[parent - since] += end - start
        totals = {}
        for (name, start, end, _), covered in zip(spans, child_time):
            t = totals.setdefault(name, {"time": 0.0, "self": 0.0, "calls": 0})
            t["time"] += end - start
            t["self"] += end - start - covered
            t["calls"] += 1
        out = {}
        for metric, (span, field) in SPAN_METRICS.items():
            if metric not in self.dropped:
                out[metric] = totals.get(span, {}).get(field, 0)
        for metric in COUNT_METRICS:
            if metric not in self.dropped:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
