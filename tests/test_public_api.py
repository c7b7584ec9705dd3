"""The package namespace is the union of its library modules' ``__all__``."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import visco_impact
from visco_impact import (
    analysis,
    biphasic,
    errors,
    kelvin_voigt,
    maxwell,
    models,
    oracle,
    standard_solid,
)

MODULES = (analysis, biphasic, errors, kelvin_voigt, maxwell, models, oracle, standard_solid)


def test_package_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert visco_impact.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(visco_impact, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_public_definitions_are_listed(module):
    """Every public function or class a module defines is in its ``__all__``."""
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


def test_import_loads_neither_cli_nor_scipy():
    code = (
        "import sys, visco_impact\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'visco_impact.cli' or m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(visco_impact.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.splitlines()[-1] == "[]"
