"""JSON input has one reader and one key check, in :mod:`visco_impact.models`.

Every loader of a JSON file answers a malformed file with a
:class:`ConfigError`, never a raw exception, and the CLI turns that into
exit code 1 and an ``error:`` line.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import visco_impact
from visco_impact import cli
from visco_impact.biphasic import load_layer_json
from visco_impact.errors import ConfigError
from visco_impact.models import load_kv_params, load_maxwell_params, load_sls_params

PACKAGE = Path(visco_impact.__file__).parent


def _imports_json(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "json" for name in names):
            return True
    return False


def test_only_models_imports_json():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py")) if _imports_json(path)]
    assert importers == ["models.py"]


SWEEP = ["sweep", "--model", "sls", "--sweep", "rho:0.1:0.5:3", "--params"]

# loader (None: the CLI's sweep), a valid object, the key each bad value
# replaces, and whether that key is required.
LOADERS = {
    "load_kv_params": (load_kv_params, {"m": 1, "k": 4, "b": 0.8, "v0": 1}, "k", True),
    "load_maxwell_params": (load_maxwell_params, {"m": 1, "k": 4, "b": 5, "v0": 1}, "b", True),
    "load_sls_params-series": (
        load_sls_params, {"m": 1, "k1": 2, "k2": 1, "b": 0.5, "v0": 1}, "k2", True
    ),
    "load_sls_params-parallel": (
        load_sls_params, {"m": 1, "kappa1": 1, "kappa2": 1, "beta": 1, "v0": 1}, "beta", True
    ),
    "load_layer_json": (
        load_layer_json,
        {"mu_s": 1e6, "lambda_s": 5e5, "kappa": 1e-15, "h": 1e-4, "a": 1e-3},
        "kappa",
        True,
    ),
    # Every fixed quantity of a sweep has a default, so no key is missing.
    "cli-sweep": (None, {"eta": 0.3}, "eta", False),
}


def _bad_files(valid: dict, key: str, required: bool) -> dict[str, bytes]:
    text = json.dumps(valid)
    files = {
        "empty": "",
        "open-brace": "{",
        "list": "[1, 2]",
        "string": '"text"',
        "deep-nesting": "[" * 100_000,
        "string-value": json.dumps({**valid, key: "1"}),
        "true-value": json.dumps({**valid, key: True}),
        "null-value": json.dumps({**valid, key: None}),
        "huge-integer": json.dumps({**valid, key: 10**400}),
        "repeated-key": text[:-1] + f', "{key}": 1}}',
        "unknown-key": json.dumps({**valid, "zz": 1}),
    }
    if required:
        files["missing-key"] = json.dumps({k: v for k, v in valid.items() if k != key})
    files = {name: body.encode() for name, body in files.items()}
    files["not-utf8"] = b"\xff\xfe\x00"
    return files


CASES = [
    (loader, bad) for loader, spec in LOADERS.items() for bad in _bad_files(*spec[1:])
]


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_valid_file_loads(tmp_path, loader):
    load, valid, _, _ = LOADERS[loader]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(valid))
    if load is None:
        assert cli.main(SWEEP + [str(path)]) == 0
    else:
        load(path)


@pytest.mark.parametrize("loader, bad", CASES, ids=[f"{a}-{b}" for a, b in CASES])
def test_bad_file_is_a_config_error(tmp_path, capsys, loader, bad):
    load, *spec = LOADERS[loader]
    path = tmp_path / "in.json"
    path.write_bytes(_bad_files(*spec)[bad])
    if load is None:
        assert cli.main(SWEEP + [str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    else:
        with pytest.raises(ConfigError):
            load(path)
