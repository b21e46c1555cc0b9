"""The benchmark's trace hooks still attach to the package.

``perfbench/tracing.py`` wraps package functions by dotted name; a renamed
target or a result the count callbacks cannot read only drops metrics with a
note, so a refactor can silently cost a traced run its per-layer metrics.
These tests read the hook table and run the count callbacks on small real
results.  They never call ``Tracer.install()``, which would patch the
package for the rest of the test session.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from vankamg import lfa
from vankamg.lfa import FrequencyGrid, SmootherSpec, exact_optimum
from vankamg.solver import CycleSpec, build_hierarchy
from vankamg.stencils import GridSpec, PatchLayout, laplacian_stencil
from vankamg.vanka import build_vanka

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spec(kind, dim):
    return SmootherSpec(kind, dim, float(exact_optimum(kind, dim)[0]))


def test_every_hook_target_resolves(tracing):
    for _, target, _, metrics in tracing.HOOKS:
        owner, attr = tracing._resolve(target)
        assert callable(getattr(owner, attr)), (target, metrics)


def test_vanka_counts_read_a_built_operator(tracing):
    grid = GridSpec(2, 7, 1 / 8)
    op = build_vanka(PatchLayout("element", 2), grid, laplacian_stencil(2, 1 / 8))
    tracer = tracing.Tracer()
    tracing._vanka_counts(tracer, (), {}, op)
    assert tracer.counts["vanka.patches"] == 64   # (n + 1)**2 cells


def test_hierarchy_counts_read_a_two_grid_hierarchy(tracing):
    spec = CycleSpec(_spec("vanka-e", 2), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(2, 7, 1 / 8))
    tracer = tracing.Tracer()
    tracing._hierarchy_counts(tracer, (spec, hier.fine.grid), {}, hier)
    assert tracer.counts["solver.levels"] == 2
    assert tracer.counts["solver.nnz"] == sum(level.matrix.nnz for level in hier.levels)
    assert tracer.counts["solver.grid_complexity"] == (49 + 9) / 49


def test_lfa_bases_reads_the_two_grid_stack_arguments(tracing):
    spec = _spec("mass", 2)
    bases = FrequencyGrid(2, 8).low_points()
    args = (spec, bases, 1, 0)
    result = lfa._two_grid_stack(*args)
    tracer = tracing.Tracer()
    tracing._lfa_bases(tracer, args, {}, result)
    assert tracer.counts["lfa.bases"] == bases.shape[0] == 15
    assert result[0].shape == (15, 4, 4)
    assert np.isfinite(result[0]).all()
