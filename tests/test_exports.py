"""Every name the package and its modules export resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vankamg

MODULES = ["vankamg"] + [f"vankamg.{m.name}" for m in pkgutil.iter_modules(vankamg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_lists_every_exported_name():
    assert set(vankamg.__all__) <= set(dir(vankamg))


def test_batched_two_grid_factors_are_exported():
    from vankamg import lfa
    assert "two_grid_factors" in vankamg.__all__ and "two_grid_factors" in lfa.__all__
    assert vankamg.two_grid_factors is lfa.two_grid_factors


_LAZY = """
import sys
import vankamg
assert "vankamg.solver" not in sys.modules and "vankamg.vanka" not in sys.modules
assert "scipy" not in sys.modules
build_hierarchy = vankamg.build_hierarchy
assert "vankamg.solver" in sys.modules
operator = vankamg.VankaOperator
from vankamg import solver, stencils, vanka
assert build_hierarchy is solver.build_hierarchy
assert operator is vanka.VankaOperator
assert vankamg.closed_form_stencil is stencils.closed_form_stencil
assert not {"PatchLayout", "closed_form_stencil"} & set(vanka.__all__)
print("ok")
"""


def test_solver_and_vanka_names_resolve_lazily():
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _LAZY], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "ok"


REMOVED = {
    "vankamg": {"assemble_dense", "DENSE_CAP", "two_grid_symbol", "TwoGridSymbol",
                "spectral_radius", "smoother_symbol", "transfer_symbols"},
    "vankamg.lfa": {"two_grid_symbol", "TwoGridSymbol", "spectral_radius"},
    "vankamg.vanka": {"assemble_dense", "DENSE_CAP"},
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert not REMOVED[name] & set(getattr(module, "__all__", ()))
    assert not [attr for attr in REMOVED[name] if hasattr(module, attr)]


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        vankamg.no_such_name
