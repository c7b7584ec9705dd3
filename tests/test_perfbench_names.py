"""The package names and signatures the benchmark uses still exist.

``perfbench/tracing.py`` replaces a fixed table of module attributes at
runtime, ``perfbench/workloads.py`` calls the package's functions, and
``BENCHMARK.json`` names per-layer oracle metrics after the kernel kinds.
The test run does not collect ``perfbench/``, so a rename or a signature
change in the package would break ``perfbench/run.py``, or empty those
metrics, unseen without these checks.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import math
from pathlib import Path

import pytest

from visco_impact import oracle
from visco_impact._search import DampedMode
from visco_impact.models import KelvinVoigtParams

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _oracle_metric_kinds():
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for prefix in ("oracle.calls.", "oracle.ns_per_step."):
        for entry in layers:
            if entry["name"].startswith(prefix):
                yield entry["name"], entry["name"][len(prefix):]


def test_benchmark_reads_oracle_metrics_by_kernel_kind():
    kinds = list(_oracle_metric_kinds())
    assert kinds
    for name, kind in kinds:
        assert kind in oracle._KINDS, name


def test_damped_parallel_pair_is_kv_limit_kind():
    """The benchmark's parallel-pair oracle ops are counted under this kind."""
    params = KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)
    assert oracle.RelaxationKernel.from_params(params).kind == "kv_limit"


def _package_calls():
    """``(where, callee, call)`` for each call in ``perfbench/`` rooted at a package alias."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text())
        bound = {}  # each name an import binds to the package, one of its modules or names
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.partition(".")[0] == "visco_impact":
                        module = importlib.import_module(a.name)
                        # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``a.b``.
                        bound[a.asname or "visco_impact"] = (
                            module if a.asname else importlib.import_module("visco_impact"))
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.partition(".")[0] == "visco_impact"):
                module = importlib.import_module(node.module)
                for a in node.names:
                    bound[a.asname or a.name] = getattr(module, a.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain, target = [], node.func
            while isinstance(target, ast.Attribute):
                chain.append(target.attr)
                target = target.value
            if isinstance(target, ast.Name) and target.id in bound:
                obj = bound[target.id]
                for attr in reversed(chain):
                    obj = getattr(obj, attr)
                yield f"{path.name}:{node.lineno}", obj, node


def test_perfbench_calls_bind_to_package_signatures():
    """Each package call the benchmark makes passes arguments its callee accepts.

    A signature change then fails here, not in ``perfbench/run.py``,
    which the test run never collects.  A ``*`` or ``**`` argument binds
    nothing: only what the call spells out is checked.
    """
    calls = list(_package_calls())
    assert len(calls) >= 30
    for where, callee, call in calls:
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        names = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(callee).bind_partial(*positional, **names)
        except TypeError as exc:
            raise AssertionError(f"{where}: {ast.unparse(call.func)}: {exc}") from None
