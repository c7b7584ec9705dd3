#!/usr/bin/env python3
"""Regenerate the standard metric-sweep tables.

Writes one CSV per figure family into the output directory:

    kv_eta.csv          scaled metrics vs loss factor, parallel pair
    mx_zeta.csv         scaled metrics vs loss factor, series pair
    sls_Lambda.csv      scaled metrics vs Lambda at fixed rho
    sls_rho.csv         exact and first-order metrics vs rho, parallel-pair limit
    sls_rho_series.csv  exact and first-order metrics vs rho, series-pair limit
    kv_eps0.csv         drop-weight expansion vs weight parameter
    mx_eps0.csv         drop-weight expansion vs weight parameter

Any sweep that exits nonzero fails the run with its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from visco_impact.cli import EXIT_OK, main as cli_main

SWEEPS = (
    ("kv_eta.csv", "kv", "eta:0.02:0.98:49", None),
    ("mx_zeta.csv", "maxwell", "zeta:0.02:0.98:49", None),
    ("sls_Lambda.csv", "sls", "Lambda:0.02:3.0:60", {"rho": 0.1}),
    ("sls_rho.csv", "sls", "rho:0.01:0.5:50", {"eta": 0.3}),
    ("sls_rho_series.csv", "sls", "rho:0.01:0.5:50", {"zeta": 0.3}),
    ("kv_eps0.csv", "kv", "eps0:0.0:0.2:41", {"eta": 0.3}),
    ("mx_eps0.csv", "maxwell", "eps0:0.0:0.2:41", {"zeta": 0.3}),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--outdir", type=Path, default=Path("sweeps"), help="directory for the CSV tables"
    )
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name, model, sweep, fixed in SWEEPS:
        out = args.outdir / name
        argv_cli = ["sweep", "--model", model, "--sweep", sweep, "--out", str(out)]
        if fixed is not None:
            fixed_path = args.outdir / f".fixed_{name.removesuffix('.csv')}.json"
            fixed_path.write_text(json.dumps(fixed))
            argv_cli += ["--params", str(fixed_path)]
        rc = cli_main(argv_cli)
        if rc != EXIT_OK:
            print(f"{name}: sweep failed with exit code {rc}", file=sys.stderr)
            return rc
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
