"""The package names the benchmark's traced pass wraps still exist.

``perfbench/tracing.py`` replaces a fixed table of module attributes at
runtime.  The test run does not collect ``perfbench/``, so a rename in the
package would break ``perfbench/run.py --trace 1`` unseen without this check.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import math
from pathlib import Path

import pytest

from visco_impact._search import DampedMode

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped_names():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no WRAPPED_NAMES")


def _resolve(module: str, attr: str):
    mod_name, _, owner = module.partition(".")
    obj = importlib.import_module(f"visco_impact.{mod_name}")
    if owner:
        obj = getattr(obj, owner)
    return getattr(obj, attr)


@pytest.mark.parametrize("module, attr", _wrapped_names())
def test_wrapped_name_resolves(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize(
    "module", sorted({m for m, a in _wrapped_names() if a == "first_force_zero"})
)
def test_first_force_zero_takes_force_period_horizon(module):
    fn = _resolve(module, "first_force_zero")
    inspect.signature(fn).bind(None, 1.0, 1.0)
    # A plain sine: the first zero after its rise is half a period.
    period = 2.0 * math.pi
    assert fn(DampedMode(0.0, 1.0, 1.0, 0.0), period, 10.0 * period) == pytest.approx(math.pi)
