"""Command-line surface: exit codes, CSV emission, and fallbacks."""

from __future__ import annotations

import argparse
import ast
import csv
import dataclasses
import io
import json
import math
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from visco_impact import cli, errors, oracle
from visco_impact.cli import (
    ANALYZE_HEADER,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_PLASTIC,
    EXIT_VERIFY,
    SWEEP_ASYM_HEADER,
    SWEEP_HEADER,
    VERIFY_HEADER,
    SweepSpec,
    cmd_verify,
    main,
    parse_sweep_arg,
    read_csv_rows,
)
from visco_impact.analysis import STANDARD_GRAVITY
from visco_impact.errors import DomainError, ParseError
from visco_impact.kelvin_voigt import kv_metrics, kv_trajectory
from visco_impact.maxwell import mx_metrics, mx_trajectory
from visco_impact.models import (
    _GROUP_DOMAINS,
    KelvinVoigtParams,
    MaxwellParams,
    Trajectory,
    load_sls_params,
)
from visco_impact.standard_solid import (
    params_from_groups,
    params_near_maxwell,
    sls_drop_trajectory,
    sls_metrics,
    sls_perturb_maxwell,
    sls_trajectory,
)

# A three-element solid at Lambda = 4, rho = 0.2.
SLS_DROP = {"m": 1.0, "k1": 1.0, "k2": 0.25, "b": 2.5, "v0": 1000.0}

REFERENCE_LAYER = {
    "mu_s": 0.25e6,
    "lambda_s": 0.0,
    "kappa": 2e-15,
    "h": 1e-3,
    "a": 5e-3,
}


def _write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _refuse_oracle(monkeypatch):
    """Make every oracle entry point fail the test if it runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran")

    for module, name in ((cli, "integrate_impact"), (oracle, "integrate_impact"),
                         (oracle, "integrate_impact_with_gravity")):
        monkeypatch.setattr(module, name, refuse)


def _counted(fn, calls):
    """``fn``, appending its name to ``calls`` at each call."""
    def run(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return run


def _parse_csv(text, expected_header):
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == expected_header
    return np.array([[float(v) for v in row] for row in rows[1:]])


# The class -> exit code table documented in the errors module and README.
EXIT_CODES = {
    "ViscoImpactError": EXIT_IO,
    "ConfigError": EXIT_IO,
    "ParseError": EXIT_IO,
    "DomainError": EXIT_DOMAIN,
    "DiscriminantError": EXIT_DOMAIN,
    "SingularityError": EXIT_DOMAIN,
    "NoCrossingError": EXIT_DOMAIN,
    "PlasticImpactError": EXIT_PLASTIC,
    "NoSeparationError": EXIT_PLASTIC,
}


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        assert set(errors.__all__) == set(EXIT_CODES)

    def test_shared_outcomes_share_a_parent(self):
        """A library caller catches each outcome by one class, whichever path found it."""
        assert issubclass(errors.NoSeparationError, errors.PlasticImpactError)
        for name in ("DiscriminantError", "SingularityError", "NoCrossingError"):
            assert issubclass(getattr(errors, name), errors.DomainError)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_class_carries_documented_code(self, name):
        assert getattr(errors, name).exit_code == EXIT_CODES[name]

    @pytest.mark.parametrize(
        "exc_type, code",
        [*((getattr(errors, n), c) for n, c in sorted(EXIT_CODES.items())), (OSError, EXIT_IO)],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_main_returns_the_code(self, monkeypatch, capsys, exc_type, code):
        def fail(args):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "cmd_analyze", fail)
        assert main(["analyze"]) == code
        assert capsys.readouterr().err == "error: boom\n"


class TestRepeatedMain:
    """``main`` builds its parser on the first call and keeps no other state between calls."""

    @staticmethod
    def _argvs(tmp_path):
        kv = {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0, "g": 0.1}
        params = _write_json(tmp_path, "kv.json", kv)
        return [
            ["sweep", "--model", "nope", "--sweep", "eta:0.1:0.5:3"],
            ["simulate", "kv", "--params", params, "--gravity", "--dt", "0.1",
             "--out", str(tmp_path / "traj.csv")],
            ["sweep", "--model", "kv", "--sweep", "eta:0.1:0.5:3"],
            ["analyze", "--out", str(tmp_path / "records.csv")],
        ]

    @staticmethod
    def _run(capsys, argv):
        """Exit code, stdout, stderr and the bytes of the ``--out`` file, which is removed."""
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
        out, err = capsys.readouterr()
        written = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            written = path.read_bytes()
            path.unlink()
        return code, out, err, written

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        argvs = self._argvs(tmp_path)
        self._run(capsys, argvs[2])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in [*argvs, ["--help"], ["sweep", "--help"]]:
            self._run(capsys, argv)
        assert built == []
        # The count sees a build: the parser and its five subcommands.
        cli._build_parser.__wrapped__()
        assert len(built) == 6

    def test_repeated_calls_match_the_first(self, tmp_path, capsys):
        argvs = self._argvs(tmp_path)
        cli._build_parser.cache_clear()
        first = [self._run(capsys, argv) for argv in argvs]
        assert [code for code, *_ in first] == [2, EXIT_OK, EXIT_OK, EXIT_OK]
        assert "invalid choice: 'nope'" in first[0][2]
        assert first[1][2].startswith("impact metrics (weight included):\n")
        assert first[2][1].startswith(",".join(SWEEP_HEADER))
        assert first[3][3].startswith(",".join(ANALYZE_HEADER).encode())
        for _ in range(2):
            assert [self._run(capsys, argv) for argv in argvs] == first

    @pytest.mark.parametrize(
        "command", [[], ["simulate"], ["sweep"], ["verify"], ["biphasic"], ["analyze"]],
        ids=lambda c: c[0] if c else "main",
    )
    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args([*command, "--help"])
        fresh = capsys.readouterr()
        assert fresh.out.startswith("usage: visco-impact")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr() == fresh

    def test_warning_hook_is_restored(self, tmp_path, capsys):
        before = warnings.showwarning
        thick = _write_json(tmp_path, "layer.json", dict(REFERENCE_LAYER, h=5e-3))
        assert main(["biphasic", "--params", thick, "--m", "0.1"]) == EXIT_OK
        assert warnings.showwarning is before
        assert "warning: h/a = 1 exceeds 0.2" in capsys.readouterr().err
        missing = str(tmp_path / "missing.json")
        assert main(["biphasic", "--params", missing, "--m", "0.1"]) == EXIT_IO
        assert warnings.showwarning is before


class TestSweepSpec:
    def test_parse(self):
        spec = parse_sweep_arg("eta:0.1:0.9:5")
        assert spec == SweepSpec(param="eta", lo=0.1, hi=0.9, steps=5)
        assert np.array_equal(spec.grid(), np.linspace(0.1, 0.9, 5))

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="param:lo:hi:steps"):
            parse_sweep_arg("eta:0.1:0.9")
        with pytest.raises(ParseError, match="malformed"):
            parse_sweep_arg("eta:lo:0.9:5")

    def test_domain_validation(self):
        with pytest.raises(DomainError, match=r"eta sweep must lie in \(0, 1\), got 0.0"):
            SweepSpec(param="eta", lo=0.0, hi=0.9, steps=5)
        with pytest.raises(DomainError, match="lo < hi"):
            SweepSpec(param="eta", lo=0.9, hi=0.1, steps=5)
        with pytest.raises(DomainError, match="at least 2"):
            SweepSpec(param="eta", lo=0.1, hi=0.9, steps=1)
        with pytest.raises(DomainError, match="unknown sweep parameter"):
            SweepSpec(param="xi", lo=0.1, hi=0.9, steps=5)
        with pytest.raises(DomainError, match="positive"):
            SweepSpec(param="Lambda", lo=-1.0, hi=1.0, steps=5)
        with pytest.raises(DomainError, match="finite"):
            SweepSpec(param="eps0", lo=0.0, hi=math.inf, steps=3)
        with pytest.raises(DomainError, match="finite"):
            SweepSpec(param="Lambda", lo=math.nan, hi=1.0, steps=3)
        with pytest.raises(DomainError, match="allowed"):
            parse_sweep_arg("eta:0.1:0.9:100000000000000000000")


class TestSimulate:
    def test_parallel_pair_trajectory(self, tmp_path, capsys):
        params = _write_json(tmp_path, "kv.json", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0})
        out = tmp_path / "traj.csv"
        assert main(["simulate", "kv", "--params", params, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "impact metrics" in err
        traj = Trajectory.from_csv(out)
        met = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0))
        assert traj.t_c == pytest.approx(met.t_c, rel=1e-15)
        assert abs(traj.F[-1]) < 1e-12 * met.F_M

    def test_dt_controls_sample_count(self, tmp_path):
        params = _write_json(tmp_path, "kv.json", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0})
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "kv", "--params", params, "--out", str(out), "--dt", "0.01"])
        assert rc == EXIT_OK
        met = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0))
        expected = math.ceil(met.t_c / 0.01) + 1
        assert Trajectory.from_csv(out).times.size == expected

    def test_weight_included_note(self, tmp_path, capsys):
        params = _write_json(
            tmp_path, "kv.json", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0, "g": 0.01}
        )
        assert main(["simulate", "kv", "--params", params, "--gravity"]) == EXIT_OK
        assert "weight included" in capsys.readouterr().err

    def test_embedding_exits_plastic(self, tmp_path, capsys):
        """Unit parameters put the weight far beyond the rebound threshold."""
        params = _write_json(tmp_path, "mx.json", {"m": 1.0, "k": 1.0, "b": 1.0, "v0": 1.0})
        rc = main(["simulate", "maxwell", "--params", params, "--gravity"])
        assert rc == EXIT_PLASTIC
        assert "error:" in capsys.readouterr().err

    def test_unbounded_drop_scan_exits_plastic(self, tmp_path, capsys):
        """zeta = 0.999 is a proved embedding: a typed error, no traceback.

        With a --dt too fine for the sample cap, the embedding is still
        what gets reported; a bad --dt is refused before the walk.
        """
        params = _write_json(tmp_path, "mx.json", {"m": 1.0, "k": 1.0, "b": 0.5005, "v0": 1.0})
        for extra in ([], ["--dt", "0.01"]):
            rc = main(["simulate", "maxwell", "--params", params, "--gravity", *extra])
            assert rc == EXIT_PLASTIC
            assert "impactor stays embedded" in capsys.readouterr().err
        rc = main(["simulate", "maxwell", "--params", params, "--gravity", "--dt", "-1"])
        assert rc == EXIT_IO
        assert capsys.readouterr().err == "error: --dt must be positive, got -1.0\n"

    @pytest.mark.parametrize(
        "model, params, printed",
        [
            ("kv", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0, "g": 0.1},
             ("t_c = 3.01311504394", "e_star = 0.41301839216")),
            ("maxwell", {"m": 1.0, "k": 1.0, "b": 1.0 / 0.6, "v0": 1.0, "g": 0.05}, ()),
            ("sls", dict(SLS_DROP, g=0.5), ()),
        ],
    )
    def test_gravity_prints_the_written_solution(self, tmp_path, capsys, monkeypatch,
                                                 model, params, printed):
        """One solve per drop: the printed t_c and e_star are the written
        trajectory's last time and -xdot / v0, and with --dt the model's
        metrics and trajectory functions each run once."""
        entry, calls = cli._MODELS[model], []
        monkeypatch.setitem(cli._MODELS, model, dataclasses.replace(
            entry, metrics=_counted(entry.metrics, calls),
            trajectory=_counted(entry.trajectory, calls)))
        path = _write_json(tmp_path, f"{model}.json", params)
        out = tmp_path / "traj.csv"
        argv = ["simulate", model, "--params", path, "--gravity", "--dt", "0.01", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert calls == [entry.metrics.__name__, entry.trajectory.__name__]
        err = capsys.readouterr().err
        assert err.startswith("impact metrics (weight included):\n")
        traj = Trajectory.from_csv(out)
        assert f"  t_c = {traj.times[-1]:.12g}\n" in err
        assert f"  e_star = {-traj.xdot[-1] / params['v0']:.12g}\n" in err
        for line in printed:
            assert f"  {line}\n" in err

    @pytest.mark.parametrize(
        "model, params, extra, message",
        [
            # omega0 v0 underflows to 0.
            ("kv", {"m": 1e308, "k": 1e200, "b": 5e-324, "v0": 1e-308, "g": 1.0}, ["--gravity"],
             "eps0 = g / (omega0 v0) must be nonnegative and finite, got inf"),
            # k / m overflows, so omega0 = inf and eta = NaN.
            ("maxwell", {"m": 1e-308, "k": 2.0, "b": 1e12, "v0": 1.0}, [],
             "omega0 = sqrt(k / m) must be positive and finite, got inf"),
            ("kv", {"m": 1e-308, "k": 2.0, "b": 1e12, "v0": 1.0}, [],
             "omega0 = sqrt(k / m) must be positive and finite, got inf"),
            # g tau_R / v0 overflows.
            ("sls", {"m": 1e-308, "k1": 1.0, "k2": 0.3, "b": 0.5, "v0": 1e-308}, ["--gravity"],
             "gamma = g T / v0 must be nonnegative and finite, got inf"),
            # 2 omega0 b underflows to 0, so zeta = k / (2 omega0 b) is infinite.
            ("maxwell", {"m": 1e46, "k": 1e-168, "b": 1e-283, "v0": 1.0}, [],
             "loss factor zeta = inf is >= 1: relaxation is too fast for an oscillatory rebound"),
        ],
        ids=["kv-eps0", "maxwell-omega0", "kv-omega0", "sls-gamma", "maxwell-zeta"],
    )
    def test_extreme_magnitudes_exit_domain(self, tmp_path, capsys, model, params, extra, message):
        """Groups that overflow or underflow are refused in one line, with no traceback."""
        path = _write_json(tmp_path, f"{model}.json", params)
        assert main(["simulate", model, "--params", path, *extra]) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "params, message",
        [
            # rho = 1.8e-283 and Lambda = 2.9e-138 are each in their domain.
            ({"m": 3.44e27, "k1": 9.25e292, "k2": 1.68e10, "b": 3.02e91, "v0": 5.26e46},
             "Lambda * rho underflows to 0 (Lambda = 2.8662476429918294e-138, "
             "rho = 1.816216216216216e-283)"),
            # k_inf = k1 k2 / (k1 + k2) rounds to k1.
            ({"m": 1.65e-53, "k1": 1.15e30, "k2": 3.04e107, "b": 2.51e-38, "v0": 3.32e171},
             "rho must lie in (0, 1), got 1.0"),
            # Lambda 4.6e161, rho 4.7e-156 pass, but the real rate, about rho, rounds to 0:
            # a ZeroDivisionError traceback before.
            ({"m": 2.1545907295567397e115, "k1": 1.7063964322939717e81,
              "k2": 8.08193498816039e-75, "b": 1.3001919824515624e179,
              "v0": 2.60187006336424e-184},
             "the cubic's rates are lost to rounding at Lambda = 4.59801e+161, "
             "rho = 4.73626e-156 (real rate 0)"),
            # v0 tau_R overflows: exit 0 with NaN x and infinite F before.
            ({"m": 7.180750831670816e240, "k1": 2.8452084274228e58,
              "k2": 1.0809254475856645e-08, "b": 3.2979756010946127e135,
              "v0": 3.1790135901383877e295},
             "the scales v0 T = inf, v0 / T = 2.74e+218 and m v0 / T = inf must be finite"),
        ],
        ids=["product-underflows", "rho-rounds-to-1", "rate-rounds-to-0", "scales-overflow"],
    )
    def test_sls_groups_that_round_away_exit_domain(self, tmp_path, capsys, params, message):
        """A three-element group that rounds out of its domain, or whose solution
        rounds away, is refused in one line and writes no file."""
        path = _write_json(tmp_path, "sls.json", params)
        out = tmp_path / "traj.csv"
        argv = ["simulate", "sls", "--params", path, "--gravity", "--out", str(out)]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, params, message",
        [
            # The force's coefficient 4.7e75 times v0 / tau_R = 3.05e240 overflows:
            # exit 0 with NaN cells before.
            ("sls", {"m": 7.4547670406883e-243, "k1": 4.302636000876517e20,
                     "k2": 4.74087973088285e-267, "b": 8.493115740269468e-36,
                     "v0": 6.012859747615757e184},
             "a mode coefficient times its scale 3.05e+240 must be finite"),
            # eta underflows to 0 under eps0 = 2.1e245: e_star = 5.4e238 and x_m = inf before.
            ("kv", {"m": 1.7231091728062788e228, "k": 1.522582502149621e-88,
                    "b": 2.273619399013645e-251, "v0": 4.856383134518119e-87},
             "the metric x_m = inf must be finite"),
        ],
        ids=["sls-trajectory", "kv-metrics"],
    )
    def test_answers_that_overflow_exit_domain(self, tmp_path, capsys, model, params, message):
        """Finite scales whose scaled answer overflows are refused in one line, writing no file."""
        path = _write_json(tmp_path, f"{model}.json", params)
        out = tmp_path / "traj.csv"
        argv = ["simulate", model, "--params", path, "--gravity", "--out", str(out)]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, params",
        [
            ("kv", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0, "g": 0.2}),
            ("maxwell", {"m": 1.0, "k": 1.0, "b": 1.0 / 0.6, "v0": 1.0, "g": 0.15}),
            ("sls", {"m": 1.0, "k1": 1.0, "k2": 0.25, "b": 2.5, "v0": 1000.0}),
        ],
    )
    def test_gravity_dt_bounds_spacing(self, tmp_path, model, params):
        """The samples span the scanned contact end, so no step exceeds --dt.

        The weight delays separation past the expansion's t_c, which would
        stretch a grid sized from it.
        """
        path = _write_json(tmp_path, f"{model}.json", params)
        out = tmp_path / "traj.csv"
        argv = ["simulate", model, "--params", path, "--gravity", "--dt", "0.01"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        # Unit mass and stiffness: omega0 = 1, so the scaled spacing is in seconds.
        assert np.max(np.diff(Trajectory.from_csv(out).times)) <= 0.01 * (1.0 + 1e-12)

    def test_non_finite_dt_rejected(self, tmp_path, capsys):
        params = _write_json(tmp_path, "kv.json", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0})
        rc = main(["simulate", "kv", "--params", params, "--dt", "nan"])
        assert rc == EXIT_IO
        assert "--dt must be finite" in capsys.readouterr().err

    def test_dt_beyond_sample_cap_rejected(self, tmp_path, capsys):
        """A tiny --dt is refused before it sizes a huge trajectory."""
        params = _write_json(tmp_path, "kv.json", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0})
        rc = main(["simulate", "kv", "--params", params, "--dt", "1e-300"])
        assert rc == EXIT_IO
        assert "samples, more than the 1e+07 allowed" in capsys.readouterr().err

    def test_horizon_flag_is_gone(self, tmp_path, capsys):
        """Nothing integrates, so nothing reads a horizon: argparse refuses the flag."""
        params = _write_json(tmp_path, "sls.json", SLS_DROP)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "sls", "--params", params, "--gravity", "--horizon", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--dt", "-1"], "--dt must be positive, got -1.0"),
            (["--dt", "0"], "--dt must be positive, got 0.0"),
            (["--dt", "nan"], "--dt must be finite, got nan"),
            (["--dt", "inf"], "--dt must be finite, got inf"),
        ],
    )
    def test_integrated_grid_refused_in_cli_terms(self, tmp_path, capsys, grid, message):
        """The three-element drop checks --dt in the CLI's words, as every closed form does."""
        params = _write_json(tmp_path, "sls.json", SLS_DROP)
        rc = main(["simulate", "sls", "--params", params, "--gravity", *grid])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err
        assert "_scaled" not in err

    def test_three_element_drop_takes_g_from_params(self, tmp_path, monkeypatch):
        path = _write_json(tmp_path, "sls.json", dict(SLS_DROP, g=0.5))
        out = tmp_path / "traj.csv"
        _refuse_oracle(monkeypatch)
        rc = main(["simulate", "sls", "--params", path, "--gravity", "--out", str(out)])
        assert rc == EXIT_OK
        params = load_sls_params(path)
        t_c = sls_drop_trajectory(params, n_samples=2).t_c
        assert Trajectory.from_csv(out).t_c == t_c
        standard = dataclasses.replace(params, g=STANDARD_GRAVITY)
        assert t_c != sls_drop_trajectory(standard, n_samples=2).t_c

    @pytest.mark.parametrize(
        "model, params",
        [
            ("kv", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0}),
            ("maxwell", {"m": 1.0, "k": 1.0, "b": 1.0 / 0.6, "v0": 1.0}),
            ("sls", SLS_DROP),
        ],
    )
    def test_g_ignored_without_gravity(self, tmp_path, model, params):
        written = []
        for name, payload in (("plain", params), ("weighted", dict(params, g=0.5))):
            path = _write_json(tmp_path, f"{name}.json", payload)
            out = tmp_path / f"{name}.csv"
            assert main(["simulate", model, "--params", path, "--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_gravity_g_absent_or_zero_is_standard(self, tmp_path, capsys):
        """``--gravity`` reads ``"g": 0`` as no g given: the drop runs at 9.81 m/s^2."""
        base = {"m": 0.1, "k": 2e4, "b": 35.0, "v0": 1.2}
        written = []
        for name, payload in (("absent", base), ("zero", dict(base, g=0.0)),
                              ("standard", dict(base, g=STANDARD_GRAVITY))):
            path = _write_json(tmp_path, f"{name}.json", payload)
            out = tmp_path / f"{name}.csv"
            argv = ["simulate", "kv", "--params", path, "--gravity", "--out", str(out)]
            assert main(argv) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "9.81 m/s^2 when g is absent or 0" in " ".join(capsys.readouterr().out.split())

    def test_three_element_fallback_note(self, tmp_path, capsys, monkeypatch):
        """Inside the D <= 0 window the CLI takes the closed form: no fallback, no oracle."""
        p = params_from_groups(0.316, 0.1)
        params = _write_json(
            tmp_path,
            "sls.json",
            {"m": p.m, "k1": p.k1, "k2": p.k2, "b": p.b, "v0": p.v0},
        )
        out = tmp_path / "traj.csv"
        _refuse_oracle(monkeypatch)
        assert main(["simulate", "sls", "--params", params, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("impact metrics:\n")
        assert "integrat" not in err
        traj = Trajectory.from_csv(out)
        assert traj.t_c == sls_trajectory(load_sls_params(params), n_samples=2).t_c
        assert f"t_c = {sls_metrics(p).t_c:.12g}" in err

    @pytest.mark.parametrize("model, params, metrics, trajectory", [
        ("kv", KelvinVoigtParams(m=m, k=k, b=b, v0=v0), kv_metrics, kv_trajectory)
        for m, k, b, v0 in ((1.0, 1.0, 0.0, 1.0), (0.1, 2e4, 35.0, 1.2), (3.0, 0.5, 2.4, 7.0))
    ] + [
        ("maxwell", MaxwellParams(m=m, k=k, b=b, v0=v0), mx_metrics, mx_trajectory)
        for m, k, b, v0 in ((1.0, 1.0, 1.0 / 0.6, 1.0), (0.1, 2e4, 500.0, 1.2), (1.0, 1.0, 0.5001, 2.0))
    ] + [
        ("sls", params_from_groups(lam, rho, m=m, v0=v0), sls_metrics, sls_trajectory)
        for lam, rho, m, v0 in ((4.0, 0.2, 1.0, 1.0), (0.316, 0.1, 0.1, 3.0), (50.0, 0.9, 2.0, 0.5))
    ])
    def test_model_entries_at_zero_gravity(self, model, params, metrics, trajectory):
        """The one weight-aware entry per model gives the zero-gravity results bit for bit."""
        entry = cli._MODELS[model]
        assert repr(entry.metrics(params)) == repr(metrics(params))
        got, want = entry.trajectory(params, n_samples=50), trajectory(params, n_samples=50)
        for name in ("times", "x", "xdot", "xddot", "F"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_missing_params_file(self, tmp_path, capsys):
        rc = main(["simulate", "kv", "--params", str(tmp_path / "absent.json")])
        assert rc == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        params = _write_json(
            tmp_path, "kv.json", {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0, "c": 2.0}
        )
        assert main(["simulate", "kv", "--params", params]) == EXIT_IO
        assert "unknown keys" in capsys.readouterr().err

    def test_top_level_list_rejected(self, tmp_path, capsys):
        params = _write_json(tmp_path, "kv.json", [1, 2])
        assert main(["simulate", "kv", "--params", params]) == EXIT_IO
        assert "expected a flat JSON object" in capsys.readouterr().err


class TestSweep:
    def test_eta_sweep_stdout(self, capsys):
        assert main(["sweep", "--model", "kv", "--sweep", "eta:0.05:0.95:10"]) == EXIT_OK
        data = _parse_csv(capsys.readouterr().out, SWEEP_HEADER)
        assert data.shape == (10, len(SWEEP_HEADER))
        assert np.array_equal(data[:, 0], np.linspace(0.05, 0.95, 10))
        assert np.all(np.isfinite(data))

    def test_zeta_sweep_duration_formula(self, capsys):
        assert main(["sweep", "--model", "maxwell", "--sweep", "zeta:0.1:0.9:9"]) == EXIT_OK
        data = _parse_csv(capsys.readouterr().out, SWEEP_HEADER)
        zeta = data[:, 0]
        assert data[:, 1] == pytest.approx(math.pi / np.sqrt(1.0 - zeta**2), rel=1e-12)

    def test_lambda_sweep_dead_window(self, capsys):
        """Grid points with D <= 0 (the 4th and 5th) get closed-form rows too."""
        rc = main(["sweep", "--model", "sls", "--sweep", "Lambda:0.30:0.33:7"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        data = _parse_csv(captured.out, SWEEP_HEADER)
        assert np.all(np.isfinite(data))
        assert np.all((0.0 < data[:, 2]) & (data[:, 2] < 1.0))
        assert "skipped" not in captured.err

    def test_runs_in_callers_thread(self, tmp_path, monkeypatch, capsys):
        """No worker thread is started; skips are reported in grid order.

        At zeta = 0.999999 the restitution underflows to 0, so the expansion
        refuses every eps0 > 0 (exit 2).
        """

        def refuse(self):
            raise RuntimeError("sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        fixed = _write_json(tmp_path, "fixed.json", {"zeta": 0.999999})
        argv = ["sweep", "--model", "maxwell", "--sweep", "eps0:0:0.1:5", "--params", fixed]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        data = _parse_csv(captured.out, SWEEP_HEADER)
        dead = data[np.isnan(data[:, 1]), 0]
        skipped = [line for line in captured.err.splitlines() if "skipped" in line]
        assert len(skipped) == dead.size == 4
        for line, value in zip(skipped, dead):
            assert line.startswith(f"eps0 = {value:g} skipped: ")

    def test_rho_sweep_reports_expansion(self, capsys):
        assert main(["sweep", "--model", "sls", "--sweep", "rho:0.02:0.2:5"]) == EXIT_OK
        data = _parse_csv(capsys.readouterr().out, SWEEP_ASYM_HEADER)
        gap = np.abs(data[:, 1] - data[:, 7])
        assert np.all(np.isfinite(data))
        assert np.all(gap < 0.06)
        assert np.all(np.diff(gap) > 0.0)

    def test_rho_sweep_near_series_limit(self, tmp_path, capsys):
        """--params {"zeta": ...} switches the rho sweep to the series limit."""
        fixed = _write_json(tmp_path, "fixed.json", {"zeta": 0.3})
        rc = main(
            ["sweep", "--model", "sls", "--sweep", "rho:0.05:0.1:2", "--params", fixed]
        )
        assert rc == EXIT_OK
        data = _parse_csv(capsys.readouterr().out, SWEEP_ASYM_HEADER)
        for row in data:
            rho = row[0]
            met = sls_metrics(params_near_maxwell(0.3, rho))
            tc_asym, e_asym = sls_perturb_maxwell(0.3, rho)
            assert row[1] == pytest.approx(met.t_c, rel=1e-15)
            assert row[2] == pytest.approx(met.e_star, rel=1e-15)
            assert row[7] == pytest.approx(tc_asym, rel=1e-15)
            assert row[8] == pytest.approx(e_asym, rel=1e-15)

    def test_wrong_param_for_model(self, capsys):
        rc = main(["sweep", "--model", "kv", "--sweep", "zeta:0.1:0.9:5"])
        assert rc == EXIT_DOMAIN
        assert "sweeps one of" in capsys.readouterr().err

    def test_negative_eps0_sweep(self, capsys):
        rc = main(["sweep", "--model", "kv", "--sweep", "eps0:-0.1:0.1:3"])
        assert rc == EXIT_DOMAIN
        assert "eps0 sweep must be nonnegative" in capsys.readouterr().err

    def test_malformed_sweep_arg(self, capsys):
        assert main(["sweep", "--model", "kv", "--sweep", "eta:0.1:0.9"]) == EXIT_IO

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--model", "kv", "--sweep", "eta:0.1:0.9:5"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_OK
        stdout_rows = _parse_csv(capsys.readouterr().out, SWEEP_HEADER)
        file_rows = read_csv_rows(out, SWEEP_HEADER)
        assert np.array_equal(stdout_rows, file_rows)

    def test_read_csv_rows_header_check(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="expected header"):
            read_csv_rows(path, SWEEP_HEADER)


# Every (model, swept group) of the CLI's model table, and a grid inside
# each group's domain.
SWEEP_FORMS = [(model, group) for model, entry in cli._MODELS.items() for group in entry.sweeps]
SWEEP_GRIDS = {"eta": "0.1:0.2:2", "zeta": "0.1:0.2:2", "rho": "0.1:0.2:2",
               "Lambda": "0.5:1:2", "eps0": "0:0.1:2"}


def _reads(model, group):
    return cli._MODELS[model].sweeps[group][0]


class TestSweepReads:
    """A sweep's --params file may hold exactly the groups that sweep reads."""

    @staticmethod
    def _run(tmp_path, capsys, model, group, fixed=None):
        argv = ["sweep", "--model", model, "--sweep", f"{group}:{SWEEP_GRIDS[group]}"]
        if fixed is not None:
            argv += ["--params", _write_json(tmp_path, "fixed.json", fixed)]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("model, group, key", [
        (model, group, key) for model, group in SWEEP_FORMS
        for key in sorted(SWEEP_GRIDS) if key not in _reads(model, group)
    ])
    def test_unread_key_refused(self, tmp_path, capsys, model, group, key):
        code, out, err = self._run(tmp_path, capsys, model, group, {key: 0.5})
        assert code == EXIT_IO
        assert f"unknown keys [{key!r}]" in err
        assert out == ""

    @pytest.mark.parametrize("model, group, key", [
        (model, group, key) for model, group in SWEEP_FORMS
        for key in sorted(_reads(model, group))
    ])
    def test_read_key_moves_a_cell(self, tmp_path, capsys, model, group, key):
        """Each group a sweep reads changes its rows when moved off the default."""
        header = SWEEP_HEADER + cli._MODELS[model].sweeps[group][2]
        code, bare, _ = self._run(tmp_path, capsys, model, group)
        assert code == EXIT_OK
        code, moved, _ = self._run(tmp_path, capsys, model, group, {key: 0.5})
        assert code == EXIT_OK
        bare, moved = _parse_csv(bare, header), _parse_csv(moved, header)
        assert np.array_equal(bare[:, 0], moved[:, 0])
        assert np.any(bare[:, 1:] != moved[:, 1:])

    def test_rho_sweep_refuses_both_limits(self, tmp_path, capsys):
        fixed = {"eta": 0.3, "zeta": 0.3}
        code, out, err = self._run(tmp_path, capsys, "sls", "rho", fixed)
        assert code == EXIT_IO
        assert "eta or zeta, not both" in err
        assert out == ""

    def test_readme_table_matches_the_model_table(self, tmp_path, capsys):
        """The README's sweep table lists each sweep's groups, defaults and columns.

        A stated default is checked by running: a file that gives it
        writes the same rows as no file.
        """
        row = re.compile(r"^\| `(\w+)` \| `(\w+)` \| (.+?) \| (.+?) \|$", re.M)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = row.findall(readme)
        assert [(model, group) for model, group, _, _ in rows] == SWEEP_FORMS
        for model, group, reads, extra in rows:
            defaults = dict(re.findall(r"`(\w+)`(?: \(([\d.]+)\))?", reads))
            assert set(defaults) == _reads(model, group)
            assert tuple(re.findall(r"`(\w+)`", extra)) == cli._MODELS[model].sweeps[group][2]
            _, bare, _ = self._run(tmp_path, capsys, model, group)
            for name, default in defaults.items():
                if default:
                    stated = self._run(tmp_path, capsys, model, group, {name: float(default)})
                    assert stated == (EXIT_OK, bare, "")


class TestFixedGroupDomains:
    """A sweep refuses an out-of-domain fixed group once, before any row."""

    @pytest.mark.parametrize("model, group, key, value", [
        (model, group, key, value) for model, group in SWEEP_FORMS
        for key in sorted(_reads(model, group)) for value in (0.0, 1.5, math.nan)
    ])
    def test_outside_fixed_group_refused(self, tmp_path, capsys, model, group, key, value):
        out = tmp_path / "rows.csv"
        fixed = _write_json(tmp_path, "fixed.json", {key: value})  # NaN is written as JSON NaN
        argv = ["sweep", "--model", model, "--sweep", f"{group}:{SWEEP_GRIDS[group]}",
                "--params", fixed, "--out", str(out)]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == f"error: {key} must lie in (0, 1), got {value!r}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_every_swept_group_has_a_domain(self):
        assert {group for _, group in SWEEP_FORMS} <= set(_GROUP_DOMAINS)
        assert {key for model, group in SWEEP_FORMS for key in _reads(model, group)} <= set(
            _GROUP_DOMAINS
        )


def test_sweep_spec_compares_against_no_group_name():
    """A swept range is checked by the group domains in ``models``, not by name here."""
    tree = ast.parse(Path(cli.__file__).read_text())
    (spec,) = [node for node in tree.body if getattr(node, "name", None) == "SweepSpec"]
    lines = [
        node.lineno
        for node in ast.walk(spec)
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for leaf in ast.walk(operand)
        if isinstance(leaf, ast.Constant) and leaf.value in _GROUP_DOMAINS
    ]
    assert lines == []


def test_cli_compares_against_no_model_name():
    """What differs between models lives in ``_MODELS``, not in branches on its keys."""
    tree = ast.parse(Path(cli.__file__).read_text())
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for leaf in ast.walk(operand)
        if isinstance(leaf, ast.Constant) and leaf.value in cli._MODELS
    ]
    assert lines == []


class TestVerify:
    def test_all_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(": pass" in line for line in lines)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == VERIFY_HEADER
        assert len(rows) == 7
        assert all(row[3] == "pass" for row in rows[1:])
        assert all(float(row[1]) <= float(row[2]) for row in rows[1:])

    def test_injected_failure_exits_4(self, capsys):
        suites = [("perturbed", lambda: (1.0, 1e-6))]
        rc = cmd_verify(argparse.Namespace(out=None), suites=suites)
        assert rc == EXIT_VERIFY
        assert "perturbed: FAIL" in capsys.readouterr().out

    def test_readme_quotes_the_suites_verify_prints(self, capsys):
        """The README's quoted run names each suite with its tolerance, in order.

        Only the tolerances are compared: the errors differ in their last
        digits between BLAS builds, so the quoted ones need only pass.
        """
        line = re.compile(r"^([\w-]+): (\w+) \(max error (\S+), tolerance (\S+)\)$", re.M)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quoted = line.findall(readme)
        assert main(["verify"]) == EXIT_OK
        printed = line.findall(capsys.readouterr().out)
        assert [(name, status, tol) for name, status, _, tol in quoted] == [
            (name, status, tol) for name, status, _, tol in printed
        ]
        assert all(float(err) <= float(tol) for _, _, err, tol in quoted)


class TestBiphasic:
    def test_reduction_echo(self, tmp_path, capsys):
        params = _write_json(tmp_path, "layer.json", REFERENCE_LAYER)
        assert main(["biphasic", "--params", params, "--m", "0.1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k = 29296.9 N/m" in out
        assert "tau_R = 666.667 s" in out
        assert "tau_D = 1000 s" in out
        assert "usable window = 100 s" in out

    def test_trajectory_matches_series_pair_simulate(self, tmp_path, capsys):
        """Reducing then simulating equals simulating the reduced parameters."""
        from visco_impact.biphasic import BiphasicLayer, reduce_to_maxwell

        layer_path = _write_json(tmp_path, "layer.json", REFERENCE_LAYER)
        out_layer = tmp_path / "layer_traj.csv"
        rc = main(
            ["biphasic", "--params", layer_path, "--m", "0.1", "--v0", "1.2",
             "--out", str(out_layer)]
        )
        assert rc == EXIT_OK
        reduced = reduce_to_maxwell(BiphasicLayer(**REFERENCE_LAYER), m=0.1, v0=1.2)
        mx_path = _write_json(
            tmp_path, "mx.json",
            {"m": reduced.m, "k": reduced.k, "b": reduced.b, "v0": reduced.v0},
        )
        out_mx = tmp_path / "mx_traj.csv"
        assert main(["simulate", "maxwell", "--params", mx_path, "--out", str(out_mx)]) == EXIT_OK
        assert out_layer.read_text() == out_mx.read_text()

    def test_contact_beyond_usable_window_is_noted(self, tmp_path, capsys):
        """t_c = 0.026 s outlasts the 0.0167 s window: a note on stderr, still exit 0."""
        layer = {"mu_s": 0.25e6, "lambda_s": 0.25e6, "kappa": 2e-12, "h": 0.5e-3, "a": 2.5e-3}
        params = _write_json(tmp_path, "layer.json", layer)
        out = tmp_path / "traj.csv"
        assert main(["biphasic", "--params", params, "--m", "1", "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "usable window = 0.0166667 s" in captured.out
        assert (
            "contact lasts 0.026 s, beyond the usable window 0.0167 s; "
            "the reduction is unreliable there\n"
        ) in captured.err
        assert Trajectory.from_csv(out).times.size == 1000

    def test_overdamped_layer_exits_plastic(self, tmp_path, capsys):
        """High permeability relaxes faster than the rebound can build."""
        layer = dict(REFERENCE_LAYER, kappa=1e-8)
        params = _write_json(tmp_path, "layer.json", layer)
        out = tmp_path / "traj.csv"
        rc = main(["biphasic", "--params", params, "--m", "0.1", "--out", str(out)])
        assert rc == EXIT_PLASTIC
        err = capsys.readouterr().err
        assert "no oscillatory rebound" in err
        assert "never returned to zero" in err

    def test_overdamped_layer_is_plastic_without_integrating(self, tmp_path, monkeypatch):
        """The loss factor alone decides a layer at zeta >= 1; the oracle never runs."""
        _refuse_oracle(monkeypatch)
        params = _write_json(tmp_path, "layer.json", dict(REFERENCE_LAYER, kappa=1e-8))
        out = tmp_path / "traj.csv"
        assert main(["biphasic", "--params", params, "--m", "0.1", "--out", str(out)]) == EXIT_PLASTIC
        assert not out.exists()

    def test_one_solve_with_dt(self, tmp_path, monkeypatch):
        """biphasic --out solves the metrics once and samples the trajectory once."""
        calls = []
        for name in ("mx_metrics", "mx_trajectory"):
            monkeypatch.setattr(cli, name, _counted(getattr(cli, name), calls))
        params = _write_json(tmp_path, "layer.json", REFERENCE_LAYER)
        out = tmp_path / "traj.csv"
        argv = ["biphasic", "--params", params, "--m", "0.1", "--out", str(out), "--dt", "0.01"]
        assert main(argv) == EXIT_OK
        assert calls == ["mx_metrics", "mx_trajectory"]

    def test_overdamped_layer_dt_refused_first(self, tmp_path, capsys):
        params = _write_json(tmp_path, "layer.json", dict(REFERENCE_LAYER, kappa=1e-8))
        out = tmp_path / "traj.csv"
        rc = main(["biphasic", "--params", params, "--m", "0.1", "--out", str(out), "--dt", "-1"])
        assert rc == EXIT_IO
        assert "error: --dt must be positive, got -1.0\n" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_mass_exits_domain(self, tmp_path, capsys):
        layer = {"mu_s": 0.25e6, "lambda_s": 0.25e6, "kappa": 2e-15, "h": 0.5e-3, "a": 2.5e-3}
        params = _write_json(tmp_path, "layer.json", layer)
        out = tmp_path / "f.csv"
        rc = main(["biphasic", "--params", params, "--m", "inf", "--out", str(out)])
        assert rc == EXIT_DOMAIN
        assert "m must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_thick_layer_warning_is_one_line(self, tmp_path, capsys):
        """A library warning reaches stderr as one line, without file or source."""
        params = _write_json(tmp_path, "layer.json", dict(REFERENCE_LAYER, h=5e-3))
        assert main(["biphasic", "--params", params, "--m", "0.1"]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: h/a = 1 exceeds 0.2; the thin-layer reduction is inaccurate "
            "for thick layers"
        ]
        assert ".py:" not in err

    def test_unknown_layer_key(self, tmp_path, capsys):
        params = _write_json(tmp_path, "layer.json", dict(REFERENCE_LAYER, phi=0.8))
        rc = main(["biphasic", "--params", params, "--m", "0.1"])
        assert rc == EXIT_IO
        assert "unknown keys" in capsys.readouterr().err


class TestAnalyze:
    def test_bundled_records(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert main(["analyze", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "restitution-constant: FAIL" in stdout
        assert "strictly increasing" in stdout
        assert "energy lost" in stdout
        data = read_csv_rows(out, ANALYZE_HEADER)
        assert data.shape == (4, len(ANALYZE_HEADER))
        assert np.all(np.diff(data[:, 0]) > 0.0)
        assert np.all(data[:, 6] > 1.0)

    def test_explicit_table(self, tmp_path, capsys):
        from visco_impact.analysis import bundled_experiments_path

        copy = tmp_path / "table.csv"
        copy.write_text(bundled_experiments_path().read_text())
        assert main(["analyze", str(copy)]) == EXIT_OK

    def test_bad_table_exits_io(self, tmp_path, capsys):
        bad = tmp_path / "table.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["analyze", str(bad)]) == EXIT_IO
        assert "error:" in capsys.readouterr().err
