"""Seeded workloads: case generation, one op per case, and per-op checks.

A workload is a list of cases, one *pass*.  Its general cases come from a
Latin hypercube over the parameters, so every seed gets the same mix of op
kinds and an even spread over each parameter range; edge-region cases sit
on a fixed lattice, because their cost changes by orders of magnitude over
a small step in ``zeta`` or ``D`` and a random draw there would make one
seed's totals unlike another's.  The seed also sets the op order.

Every case carries ``known``: the name of the listed seed failure whose
region it lies in (see NOTES.md), or ``None``.  A failure on a case
outside every listed region makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import visco_impact as vi
import visco_impact.cli as vi_cli

WORKLOADS = ("closed-form-grid", "oracle-crossval", "cli-batch")

# Per-op check tolerances.  Closed-form columns agree with their own
# metrics to rounding; 1e-9 leaves room for cancellation near the edges.
TOL_SELF = 1e-9
# Oracle agreement, as in the acceptance tests (analytic vs integrator).
TOL_ORACLE = 1e-6
# Table kernels are second order: error <= TABLE_C2 * (dt / half period)**2.
TABLE_C2 = 8.0
# Contact-end scan points above which a Maxwell drop is in the known
# unbounded-scan region: a million samples is 8 MB per temporary, and the
# grid grows a thousandfold over a 0.01 step in zeta beyond it.
SCAN_POINTS_LIMIT = 1e6
# Below this oscillation frequency (relaxation-time units) the seed's scan
# step, period / 400, is longer than a typical contact.
SLS_ZETA1_LIMIT = 1e-2

class CheckFailed(Exception):
    """An op returned, but its output failed a correctness check."""


@dataclass
class Case:
    kind: str
    args: dict
    tag: str = "general"  # general | edge | repro
    separates: bool = True  # outcome known to be separation
    # Known seed failure region, as named in NOTES.md: "mx-drop-scan",
    # "sls-small-D", "sls-dead-window" or "oracle-horizon".
    known: str | None = None


# --------------------------------------------------------------------------
# Independent classification helpers (no calls into the package).


def sls_discriminant(Lam, rho):
    return 4.0 * Lam * (Lam**2 + rho) - Lam**2 * (1.0 + 18.0 * rho - 27.0 * rho**2)


def sls_zeta1(Lam, rho):
    """Oscillation frequency of the characteristic cubic, 0 if none."""
    roots = np.roots([1.0, 1.0, Lam, Lam * rho])
    return float(np.max(np.abs(roots.imag)))


def sls_known(Lam, rho):
    if sls_discriminant(Lam, rho) <= 0.0:
        return "sls-dead-window"
    if sls_zeta1(Lam, rho) < SLS_ZETA1_LIMIT:
        return "sls-small-D"
    return None


def sls_window(rho):
    """Lambda range where D <= 0 at this rho (roots of a quadratic)."""
    b = 1.0 + 18.0 * rho - 27.0 * rho**2
    disc = b * b - 64.0 * rho
    return (b - math.sqrt(disc)) / 8.0, (b + math.sqrt(disc)) / 8.0


def mx_drop_scan_points(zeta, eps0):
    """Grid size of the seed's contact-end scan for a Maxwell drop."""
    root = math.sqrt(1.0 - zeta * zeta)
    e0 = math.exp(-math.pi * zeta / root)
    period = 2.0 * math.pi / root
    if e0 == 0.0:
        return math.inf
    t_c = math.pi / root + eps0 * (1.0 + e0) / e0
    return 400.0 * max(10.0 * period, 2.0 * t_c) / period


def mx_drop_known(zeta, eps0):
    return "mx-drop-scan" if mx_drop_scan_points(zeta, eps0) > SCAN_POINTS_LIMIT else None


# --------------------------------------------------------------------------
# Sampling.


def lhs(rng, n, dims):
    """Latin hypercube on the open unit cube: ``n`` points, ``dims`` columns."""
    strata = np.argsort(rng.random((dims, n)), axis=1).T
    return (strata + rng.uniform(0.02, 0.98, (n, dims))) / n


def _log(u, lo, hi):
    return 10.0 ** (lo + (hi - lo) * u)


def _dims(u):
    """Dimensional mass [kg], stiffness [N/m] and speed [m/s]."""
    return _log(u[0], -1.0, 1.0), _log(u[1], 2.0, 5.0), _log(u[2], -0.5, 0.7)


def _kv_args(eta, u, eps0=0.0):
    m, k, v0 = _dims(u)
    omega0 = math.sqrt(k / m)
    return dict(m=m, k=k, b=2.0 * eta * m * omega0, v0=v0, g=eps0 * omega0 * v0)


def _mx_args(zeta, u, eps0=0.0):
    m, k, v0 = _dims(u)
    omega0 = math.sqrt(k / m)
    return dict(m=m, k=k, b=k / (2.0 * omega0 * zeta), v0=v0, g=eps0 * omega0 * v0)


def _sls_args(Lam, rho, u):
    m, _, v0 = _dims(u)
    return dict(Lambda=Lam, rho=rho, m=m, v0=v0)


# --------------------------------------------------------------------------
# closed-form-grid


# Op mix of one pass, chosen rather than measured: no caller in the
# package fixes a mix of these calls, so each op kind gets the same count.
CFG_PER_KIND = 100
CFG_GENERAL = dict.fromkeys(
    ("kv", "mx", "sls", "kv_drop", "mx_drop", "perturb_kv", "perturb_mx"), CFG_PER_KIND)
EDGE_LOSS = (0.99, 0.999, 0.9999)
EDGE_EPS0 = (1e-4, 1e-3, 1e-2)
EDGE_MX_ZETA = (0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 0.9999)
EDGE_SLS_RHO = (0.005, 0.02, 0.05, 0.09)
EDGE_SLS_OFFSETS = (1e-2, 1e-4, 1e-6)
REPRO_SLS = (0.1793653, 0.05)
REPRO_MX_DROP = ((0.99, 1e-3), (0.999, 1e-3))
UNIT = (0.5, 0.5, 0.5)


def _cfg_general(rng):
    """Seeded cases over the whole domain.

    Draws that land in a known failure region are drawn again.  The fixed
    edge lattice covers those regions, so their failures and their cost
    are the same for every seed.
    """
    cases = []
    for kind, n in CFG_GENERAL.items():
        u = lhs(rng, n, 5)
        for r in u:
            if kind == "kv":
                cases.append(Case("kv", _kv_args(r[0], r[2:])))
            elif kind == "mx":
                cases.append(Case("mx", _mx_args(r[0], r[2:])))
            elif kind == "sls":
                Lam, rho = _log(r[0], -2.0, 2.0), r[1]
                while sls_known(Lam, rho):
                    Lam, rho = _log(rng.random(), -2.0, 2.0), rng.random()
                cases.append(Case("sls", _sls_args(Lam, rho, r[2:])))
            elif kind == "kv_drop":
                cases.append(Case("kv_drop", _kv_args(r[0], r[2:], _log(r[1], -4.0, -0.5)),
                                  separates=False))
            elif kind == "mx_drop":
                zeta, eps0 = r[0], _log(r[1], -4.0, -0.5)
                while mx_drop_known(zeta, eps0):
                    zeta, eps0 = rng.random(), _log(rng.random(), -4.0, -0.5)
                cases.append(Case("mx_drop", _mx_args(zeta, r[2:], eps0), separates=False))
            else:
                cases.append(Case(kind, dict(loss=r[0], rho=_log(r[1], -4.0, -1.5))))
    return cases


def _cfg_edges():
    cases = []
    for loss in EDGE_LOSS:
        cases.append(Case("kv", _kv_args(loss, UNIT), tag="edge"))
        cases.append(Case("mx", _mx_args(loss, UNIT), tag="edge"))
        for eps0 in EDGE_EPS0:
            cases.append(Case("kv_drop", _kv_args(loss, UNIT, eps0), tag="edge", separates=False))
    for zeta in EDGE_MX_ZETA:
        for eps0 in EDGE_EPS0:
            tag = "repro" if (zeta, eps0) in REPRO_MX_DROP else "edge"
            cases.append(Case("mx_drop", _mx_args(zeta, UNIT, eps0), tag=tag, separates=False,
                              known=mx_drop_known(zeta, eps0)))
    for rho in EDGE_SLS_RHO:
        lo, hi = sls_window(rho)
        lams = [lo * (1.0 - d) for d in EDGE_SLS_OFFSETS]
        lams += [hi * (1.0 + d) for d in EDGE_SLS_OFFSETS]
        lams.append(math.sqrt(lo * hi))
        for Lam in lams:
            cases.append(Case("sls", _sls_args(Lam, rho, UNIT), tag="edge", known=sls_known(Lam, rho)))
    cases.append(Case("sls", _sls_args(*REPRO_SLS, UNIT), tag="repro", known=sls_known(*REPRO_SLS)))
    return cases


def _op_pair(case, tr, prefix, params_cls, metrics_fn, traj_fn):
    with tr.span("models.construct"):
        p = params_cls(**case.args)
    with tr.span(f"{prefix}.metrics"):
        met = metrics_fn(p)
    with tr.span(f"{prefix}.trajectory"):
        traj = traj_fn(p)
    return p.v0, met, traj


def _op_kv(case, tr):
    return _op_pair(case, tr, "kelvin_voigt", vi.KelvinVoigtParams, vi.kv_metrics, vi.kv_trajectory)


def _op_mx(case, tr):
    return _op_pair(case, tr, "maxwell", vi.MaxwellParams, vi.mx_metrics, vi.mx_trajectory)


def _op_sls(case, tr):
    a = case.args
    with tr.span("models.construct"):
        p = vi.params_from_groups(a["Lambda"], a["rho"], m=a["m"], v0=a["v0"])
        d = p.derived
    with tr.span("standard_solid.roots"):
        vi.sls_characteristic_roots(d.Lambda, d.rho)
    with tr.span("standard_solid.metrics"):
        met = vi.sls_metrics(p)
    with tr.span("standard_solid.trajectory"):
        traj = vi.sls_trajectory(p)
    return p.v0, met, traj


def _op_drop(case, tr, prefix, params_cls, traj_fn, asym_fn):
    with tr.span("models.construct"):
        p = params_cls(**case.args)
    with tr.span(f"{prefix}.drop_trajectory"):
        traj = traj_fn(p)
    with tr.span(f"{prefix}.drop_metrics_asymptotic"):
        asym = asym_fn(p)
    return p.v0, asym, traj


def _op_kv_drop(case, tr):
    return _op_drop(case, tr, "kelvin_voigt", vi.KelvinVoigtParams, vi.kv_drop_trajectory,
                    vi.kv_drop_metrics_asymptotic)


def _op_mx_drop(case, tr):
    return _op_drop(case, tr, "maxwell", vi.MaxwellParams, vi.mx_drop_trajectory,
                    vi.mx_drop_metrics_asymptotic)


def _op_perturb_kv(case, tr):
    with tr.span("standard_solid.perturb_kv"):
        return vi.sls_perturb_kv(case.args["loss"], case.args["rho"])


def _op_perturb_mx(case, tr):
    with tr.span("standard_solid.perturb_maxwell"):
        return vi.sls_perturb_maxwell(case.args["loss"], case.args["rho"])


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def check_trajectory(traj, v0, gravity):
    """Start conditions, force zero at the end, no earlier force zero."""
    F = traj.F
    scale = float(np.max(np.abs(F)))
    _require(traj.x[0] == 0.0, f"x[0] = {traj.x[0]!r}")
    _require(abs(traj.xdot[0] - v0) <= TOL_SELF * v0, f"xdot[0] = {traj.xdot[0]!r} != v0 = {v0!r}")
    _require(abs(F[-1]) <= TOL_SELF * scale, f"force at t_c is {F[-1] / scale:.3g} of its peak")
    if F.size > 2:
        _require(float(np.min(F[1:-1])) >= -TOL_SELF * scale, "force crosses zero before t_c")
    if not gravity:
        e = -traj.xdot[-1] / v0
        _require(0.0 < e <= 1.0 + TOL_SELF, f"restitution {e!r} outside (0, 1]")


def _check_pair(case, out):
    v0, met, traj = out
    check_trajectory(traj, v0, gravity=False)
    _require(abs(met.e_star + traj.xdot[-1] / v0) <= TOL_SELF,
             f"e_star {met.e_star!r} vs last sample {-traj.xdot[-1] / v0!r}")
    _require(abs(met.t_c - traj.t_c) <= TOL_SELF * met.t_c, "t_c differs from the last sample")
    _require(abs(traj.F[-1]) <= TOL_SELF * met.F_M, "force at t_c is not near 0 relative to F_M")


def _check_drop(case, out):
    v0, asym, traj = out
    check_trajectory(traj, v0, gravity=True)
    _require(math.isfinite(asym.t_c) and asym.t_c > 0.0, f"asymptotic t_c = {asym.t_c!r}")
    _require(math.isfinite(asym.e_star), f"asymptotic e_star = {asym.e_star!r}")


def _check_perturb(case, out, pair_metrics, params_cls, b_of):
    """First-order expansions stay within O(rho) of their rho -> 0 pair."""
    tc, e = out
    loss, rho = case.args["loss"], case.args["rho"]
    root = math.sqrt(1.0 - loss * loss)
    base = pair_metrics(params_cls(m=1.0, k=1.0, b=b_of(loss), v0=1.0))
    bound = 8.0 * rho / root**3
    _require(math.isfinite(tc) and math.isfinite(e), "non-finite expansion")
    _require(abs(tc - base.t_c) <= bound, f"t_c correction {tc - base.t_c!r} beyond O(rho)")
    _require(abs(e - base.e_star) <= bound, f"e_star correction {e - base.e_star!r} beyond O(rho)")


def _check_perturb_kv(case, out):
    _check_perturb(case, out, vi.kv_metrics, vi.KelvinVoigtParams, lambda eta: 2.0 * eta)


def _check_perturb_mx(case, out):
    _check_perturb(case, out, vi.mx_metrics, vi.MaxwellParams, lambda zeta: 0.5 / zeta)


# --------------------------------------------------------------------------
# oracle-crossval


# Op mix of one pass, chosen rather than measured (see NOTES.md).  One unit
# is the oracle calls ``visco-impact verify`` makes (1 elastic, 3 kv_limit,
# 4 maxwell and 2 sls kernels) plus one kv_limit run with gravity, two
# multi-term exp_sum kernels and one table kernel per sls kernel.  Seven
# units make a pass of at least 100 cases.
ORACLE_UNIT = {"o_elastic": 1, "o_kv": 3, "o_maxwell": 4, "o_sls": 2,
               "o_kv_gravity": 1, "o_exp_sum": 2, "o_table": 2}
ORACLE_UNITS = 7
ORACLE_GENERAL = {kind: n * ORACLE_UNITS for kind, n in ORACLE_UNIT.items()}
ORACLE_EDGES = (
    Case("o_sls", dict(Lambda=REPRO_SLS[0], rho=REPRO_SLS[1], m=1.0, v0=1.0), tag="repro",
         known=sls_known(*REPRO_SLS)),
    Case("o_sls", dict(Lambda=0.2, rho=0.05, m=1.0, v0=1.0), tag="edge",
         known=sls_known(0.2, 0.05)),
    Case("o_maxwell", dict(m=1.0, k=1.0, b=0.5 / 0.996, v0=1.0), tag="edge",
         known="oracle-horizon"),
)


def _oracle_general(rng):
    cases = []
    for kind, n in ORACLE_GENERAL.items():
        for r in lhs(rng, n, 6):
            loss = 0.05 + 0.9 * r[0]
            if kind in ("o_kv", "o_kv_gravity"):
                eps0 = _log(r[1], -3.0, -1.0) if kind == "o_kv_gravity" else 0.0
                cases.append(Case(kind, _kv_args(loss, r[3:], eps0), separates=eps0 == 0.0))
            elif kind == "o_elastic":
                cases.append(Case(kind, _kv_args(0.0, r[3:])))
            elif kind == "o_maxwell":
                cases.append(Case(kind, _mx_args(loss, r[3:])))
            elif kind in ("o_sls", "o_table"):
                Lam, rho = _log(r[0], -1.0, 1.0), 0.1 + 0.8 * r[1]
                args = _sls_args(Lam, rho, r[3:])
                if kind == "o_table":
                    args["h"] = _log(r[2], math.log10(5e-4), math.log10(4e-3))
                cases.append(Case(kind, args, known=sls_known(Lam, rho)))
            else:
                terms = 2 + int(3 * r[1])
                c_inf = 0.2 + 0.5 * r[2]
                w = rng.dirichlet(np.ones(terms)) * (1.0 - c_inf)
                thetas = tuple(float(t) for t in _log(rng.random(terms), -1.0, 1.0))
                m, k, v0 = _dims(r[3:])
                alpha = _log(r[0], -1.0, 1.0)
                cases.append(Case(kind, dict(k0=k, tau_R=math.sqrt(alpha * m / k), c_inf=c_inf,
                                             cs=tuple(float(c) for c in w), thetas=thetas,
                                             m=m, v0=v0)))
    return cases


def _params(case):
    """Zero-gravity model parameters of a closed-form or oracle case."""
    a = case.args
    if case.kind in ("kv", "o_kv", "o_kv_gravity", "o_elastic"):
        return vi.KelvinVoigtParams(m=a["m"], k=a["k"], b=a["b"], v0=a["v0"])
    if case.kind in ("mx", "o_maxwell"):
        return vi.MaxwellParams(m=a["m"], k=a["k"], b=a["b"], v0=a["v0"])
    return vi.params_from_groups(a["Lambda"], a["rho"], m=a["m"], v0=a["v0"])


def oracle_kernel(case):
    """``(kernel, m, v0, dt_scaled)`` of an oracle case."""
    a = case.args
    if case.kind == "o_exp_sum":
        kern = vi.RelaxationKernel(k0=a["k0"], tau_R=a["tau_R"], c_inf=a["c_inf"], cs=a["cs"],
                                   thetas=a["thetas"])
        return kern, a["m"], a["v0"], None
    p = _params(case)
    kern = vi.RelaxationKernel.from_params(p)
    if case.kind != "o_table":
        return kern, a["m"], a["v0"], None
    rho = p.derived.rho
    half_period = math.pi / math.sqrt(kern.alpha_per_mass / a["m"])
    dt = a["h"] * half_period
    tau = np.arange(0.0, 12.0 * half_period + dt, dt)
    table = vi.RelaxationKernel.from_table(
        tau, rho + (1.0 - rho) * np.exp(-tau), k0=kern.k0, tau_R=kern.tau_R
    )
    return table, a["m"], a["v0"], dt


def _op_oracle(case, tr):
    with tr.span("oracle.kernel"):
        kern, m, v0, dt = oracle_kernel(case)
    with tr.span(f"oracle.{kern.kind}") as rec:
        if case.kind == "o_kv_gravity":
            traj = vi.integrate_impact_with_gravity(kern, m, v0, case.args["g"], dt_scaled=dt)
        else:
            traj = vi.integrate_impact(kern, m, v0, dt_scaled=dt)
    if rec is not None:
        rec[5]["steps"] = int(traj.times.size) - 1
    return kern, traj


def closed_form_reference(case):
    """Closed-form ``(t_c, e_star, omega0)`` of a case, from the package."""
    if case.kind == "o_kv_gravity":
        p = vi.KelvinVoigtParams(**case.args)
        traj = vi.kv_drop_trajectory(p)
        return traj.t_c, -traj.xdot[-1] / p.v0, p.derived.omega0
    p = _params(case)
    if isinstance(p, vi.KelvinVoigtParams):
        met = vi.kv_metrics(p)
    elif isinstance(p, vi.MaxwellParams):
        met = vi.mx_metrics(p)
    else:
        met = vi.sls_metrics(p)
    return met.t_c, met.e_star, p.derived.omega0


def oracle_error(case, traj):
    """Worst of the restitution and scaled-duration differences."""
    t_c, e_star, omega0 = closed_form_reference(case)
    v0 = case.args["v0"]
    return max(abs(-traj.xdot[-1] / v0 - e_star), omega0 * abs(traj.t_c - t_c))


def _check_oracle(case, out):
    kern, traj = out
    v0 = case.args["v0"]
    e = -traj.xdot[-1] / v0
    scale = float(np.max(np.abs(traj.F)))
    _require(traj.x[0] == 0.0 and traj.xdot[0] == v0, "oracle start conditions")
    if case.kind == "o_exp_sum":
        _require(abs(traj.F[-1]) <= TOL_ORACLE * scale, f"force at t_c is {traj.F[-1] / scale:.3g} of peak")
        _require(0.0 < e <= 1.0, f"restitution {e!r} outside (0, 1]")
        return None
    try:
        err = oracle_error(case, traj)
    except vi.ViscoImpactError as exc:
        raise CheckFailed(f"closed form failed: {type(exc).__name__}: {exc}") from None
    tol = TOL_ORACLE
    if case.kind == "o_table":
        tol = TABLE_C2 * case.args["h"] ** 2
    _require(err <= tol, f"oracle vs closed form differ by {err:.3g} (tolerance {tol:.1g})")
    return err


# --------------------------------------------------------------------------
# cli-batch


SWEEP_COMBOS = (
    ("kv", "eta", None), ("kv", "eps0", "eta"), ("maxwell", "zeta", None),
    ("maxwell", "eps0", "zeta"), ("sls", "rho", "eta"), ("sls", "rho", "zeta"),
    ("sls", "Lambda", "rho"),
)
SIMULATE_COMBOS = (("kv", False), ("kv", True), ("maxwell", False), ("maxwell", True), ("sls", False))
# Cases per command form (each sweep combo, each simulate combo, biphasic
# and analyze), chosen rather than measured: every form gets the same
# count, one case per step of its size lattice.
CLI_PER_FORM = 6


def _sweep_known(model, param, fixed_name, fixed, grid):
    if model != "sls":
        return None
    for v in grid:
        if param == "Lambda":
            Lam, rho = v, fixed
        elif fixed_name == "eta":
            Lam, rho = 4.0 * fixed**2 * v * (1.0 - v) ** 2, v
        else:
            Lam, rho = (1.0 - v) ** 2 / (4.0 * fixed**2), v
        known = sls_known(Lam, rho)
        if known:
            return known
    return None


def _lattice(j, n, lo, hi):
    """``j``-th of ``n`` evenly spaced values from ``lo`` to ``hi``."""
    return lo + (hi - lo) * j / (n - 1)


def _sweep_case(tmp, name, model, param, fixed_name, steps, to_file, r):
    if param == "Lambda":
        lo = _log(r[1], -2.0, 1.0)
        hi = lo * _log(r[2], 0.3, 1.0)
    elif param == "eps0":
        lo, hi = 0.0, _log(r[2], -3.0, -0.5)
    else:
        lo = 0.01 + 0.5 * r[1]
        hi = lo + (0.98 - lo) * (0.2 + 0.8 * r[2])
    fixed = 0.05 + 0.9 * r[3] if fixed_name else None
    return _sweep(tmp, name, model, param, lo, hi, steps, fixed_name, fixed, to_file)


def _sweep(tmp, name, model, param, lo, hi, steps, fixed_name, fixed, to_file, tag="general"):
    grid = np.linspace(lo, hi, steps)
    argv = ["sweep", "--model", model, "--sweep", f"{param}:{float(lo)!r}:{float(hi)!r}:{steps}"]
    if fixed_name is not None:
        path = os.path.join(tmp, f"{name}.json")
        _write_json(path, {fixed_name: fixed})
        argv += ["--params", path]
    out = os.path.join(tmp, f"{name}.csv") if to_file else None
    if out:
        argv += ["--out", out]
    return Case("sweep", dict(argv=argv, grid=grid, param=param, out=out), tag=tag,
                known=_sweep_known(model, param, fixed_name, fixed, grid))


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _cli_general(rng, tmp):
    cases = []
    # Sweep sizes and output row counts sit on a fixed lattice, since they
    # set the cost; the seed draws the ranges and parameters.
    for c, (model, param, fixed_name) in enumerate(SWEEP_COMBOS):
        for j, r in enumerate(lhs(rng, CLI_PER_FORM, 4)):
            steps = round(_lattice(j, CLI_PER_FORM, 20, 200))
            args = (tmp, f"sweep-{c}-{j}", model, param, fixed_name, steps, j % 2 == 1)
            case = _sweep_case(*args, r)
            # Sweeps into a known sls failure region are drawn again: the
            # fixed dead-window sweep covers that region for every seed.
            while case.known:
                case = _sweep_case(*args, rng.random(4))
            cases.append(case)
    for c, (model, gravity) in enumerate(SIMULATE_COMBOS):
        for j, r in enumerate(lhs(rng, CLI_PER_FORM, 6)):
            loss = 0.02 + 0.93 * r[0]
            eps0 = _log(r[1], -3.0, -1.5) if gravity else 0.0
            if model == "kv":
                params = _kv_args(loss, r[3:], eps0)
                root = math.sqrt(1.0 - loss * loss)
                tc_scaled = 2.0 / root * math.atan2(root, loss)
            elif model == "maxwell":
                params = _mx_args(loss, r[3:], eps0)
                tc_scaled = math.pi / math.sqrt(1.0 - loss * loss)
            else:
                m, _, v0 = _dims(r[3:])
                p = vi.params_from_groups(_log(r[0], -1.0, 1.0), 0.1 + 0.8 * r[1], m=m, v0=v0)
                params = dict(m=p.m, k1=p.k1, k2=p.k2, b=p.b, v0=p.v0)
                tc_scaled = p.derived.omega0 * vi.sls_metrics(p).t_c
            if not gravity:
                params.pop("g", None)
            rows = 10.0 ** _lattice(j, CLI_PER_FORM, 2.0, 5.0)
            cases.append(_simulate_case(tmp, f"sim-{c}-{j}", model, params, gravity,
                                        tc_scaled / rows))
    for i, r in enumerate(lhs(rng, CLI_PER_FORM, 6)):
        h = _log(r[0], -3.5, -2.5)
        mu, kappa = _log(r[1], 5.0, 6.5), _log(r[2], -16.0, -14.0)
        layer = dict(mu_s=mu, lambda_s=2.0 * mu * r[3], kappa=kappa, h=h, a=h * _log(r[4], 0.7, 1.3))
        zeta = 0.05 + 0.9 * r[5]
        m = (zeta * layer["a"] ** 2 * math.sqrt(h) / (2.0 * kappa)) ** 2 / (3.0 * mu)
        path = os.path.join(tmp, f"layer-{i}.json")
        _write_json(path, layer)
        out = os.path.join(tmp, f"biphasic-{i}.csv")
        v0 = 0.3 + 2.7 * r[1]
        rows = 10.0 ** _lattice(i, CLI_PER_FORM, 2.0, 4.0)
        dt = math.pi / math.sqrt(1.0 - zeta**2) / rows
        argv = ["biphasic", "--params", path, "--m", repr(float(m)), "--v0", repr(float(v0)),
                "--out", out, "--dt", repr(float(dt))]
        cases.append(Case("biphasic", dict(argv=argv, out=out, zeta=zeta, v0=v0, m=m, layer=path)))
    for i in range(CLI_PER_FORM):
        out = os.path.join(tmp, f"analyze-{i}.csv")
        cases.append(Case("analyze", dict(argv=["analyze", "--out", out], out=out)))
    return cases


def _simulate_case(tmp, name, model, params, gravity, dt, tag="general", known=None):
    path = os.path.join(tmp, f"{name}.json")
    _write_json(path, params)
    out = os.path.join(tmp, f"{name}.csv")
    argv = ["simulate", model, "--params", path, "--out", out, "--dt", repr(float(dt))]
    if gravity:
        argv.append("--gravity")
    return Case("simulate", dict(argv=argv, out=out, v0=params["v0"], gravity=gravity,
                                 model=model, params=path),
                tag=tag, separates=not gravity, known=known)


def _cli_edges(tmp):
    cases = [_sweep(tmp, "sweep-dead-window", "sls", "Lambda", 0.15, 0.3, 31, "rho", REPRO_SLS[1],
                    False, tag="repro")]
    for i, (zeta, eps0) in enumerate(REPRO_MX_DROP):
        params = _mx_args(zeta, UNIT, eps0)
        cases.append(_simulate_case(tmp, f"repro-{i}", "maxwell", params, True, 1e-2,
                                    tag="repro", known=mx_drop_known(zeta, eps0)))
    return cases


def _readbacks(writers):
    """One read-back op for each output file whose writer must succeed.

    A drop may legitimately end embedded (exit 3, no file), so gravity
    outputs are checked by their writer only.
    """
    readers = []
    for case in writers:
        path = case.args.get("out")
        if path is None or case.known or not case.separates:
            continue
        kind = "read_traj" if case.kind in ("simulate", "biphasic") else "read_rows"
        readers.append(Case(kind, dict(path=path, v0=case.args.get("v0"))))
    return readers


def _run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = vi_cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def _op_cli(case, tr):
    with tr.span(f"cli.{case.kind}") as rec:
        cpu0 = os.times()
        result = _run_cli(case.args["argv"])
        cpu1 = os.times()
    if rec is not None:
        rec[5]["cpu"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        if case.kind == "sweep":
            rec[5]["points"] = len(case.args["grid"])
    return result


def _op_read_traj(case, tr):
    with tr.span("models.from_csv") as rec:
        traj = vi.Trajectory.from_csv(case.args["path"])
    if rec is not None:
        rec[5]["rows"] = int(traj.times.size)
    return traj


def _op_read_rows(case, tr):
    with open(case.args["path"], newline="") as fh:
        header = tuple(next(csv.reader(fh)))
    with tr.span("cli.read_csv_rows"):
        return header, vi_cli.read_csv_rows(case.args["path"], header)


def _exit_ok(out, allowed=(0,)):
    code, _, stderr = out
    _require(code in allowed, f"exit code {code}: {stderr.strip()[-200:]}")


def _check_sweep(case, out):
    code, stdout, _ = out
    a = case.args
    _exit_ok(out)
    text = open(a["out"]).read() if a["out"] else stdout
    rows = list(csv.reader(io.StringIO(text)))[1:]
    _require(len(rows) == len(a["grid"]), f"{len(rows)} rows for {len(a['grid'])} points")
    for row, v in zip(rows, a["grid"]):
        _require(row[0] == "%.17g" % v, f"grid value {row[0]} != {v!r}")
        vals = [float(c) for c in row[1:]]
        _require(all(math.isfinite(x) for x in vals), f"non-finite row at {row[0]}")
        if a["param"] != "eps0":
            _require(0.0 < vals[1] <= 1.0, f"restitution {vals[1]!r} at {row[0]}")


def _check_simulate(case, out):
    code, _, _ = out
    gravity = case.args["gravity"]
    _exit_ok(out, (0, 3) if gravity else (0,))
    if code == 0:
        with open(case.args["out"]) as fh:
            _require(fh.readline().strip() == "t,x,xdot,xddot,F", "trajectory header")
        check_trajectory(vi.Trajectory.from_csv(case.args["out"]), case.args["v0"], gravity)


def _check_biphasic(case, tr, out):
    code, stdout, _ = out
    _exit_ok(out)
    printed = float(stdout.split("zeta = ")[1].split()[0])
    with tr.span("biphasic.reduce"):
        layer = vi.load_layer_json(case.args["layer"])
        params = vi.reduce_to_maxwell(layer, case.args["m"], case.args["v0"])
    _require(abs(printed / params.derived.zeta - 1.0) <= 1e-5, "printed zeta")
    _require(abs(params.derived.zeta / case.args["zeta"] - 1.0) <= 1e-9, "layer loss factor")


def _check_analyze(case, tr, out):
    code, stdout, _ = out
    _exit_ok(out)
    with tr.span("analysis.report"):
        report = vi.linearity_report(vi.ingest_table(vi.bundled_experiments_path()))
    _require(stdout.splitlines()[: len(report.lines())] == report.lines(), "report lines")


def _roundtrip_rows(path, values, rng):
    """``%.17g`` of each parsed value reproduces the file's text exactly."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))[1:]
    lines = [r for r in lines if r]
    _require(len(lines) == len(values), "row count changed on read-back")
    idx = np.arange(len(lines))
    if len(idx) > 2000:
        idx = np.unique(np.concatenate([[0, len(idx) - 1], rng.choice(idx, 200, replace=False)]))
    for i in idx:
        text = ["%.17g" % v for v in values[i]]
        _require(text == lines[i], f"row {i + 2} does not round-trip at %.17g")


def _check_read_traj(case, out, rng):
    traj = out
    cols = np.column_stack([traj.times, traj.x, traj.xdot, traj.xddot, traj.F])
    _roundtrip_rows(case.args["path"], cols, rng)
    check_trajectory(traj, case.args["v0"], gravity=False)


def _check_read_rows(case, out, rng):
    _, rows = out
    _roundtrip_rows(case.args["path"], rows, rng)


# --------------------------------------------------------------------------
# Oracle subsample, checked after the timed loop.


def gate_candidate(case):
    """Untroubled cases whose oracle run stays near the default 1e4 steps."""
    a = case.args
    if case.tag != "general":
        return False
    if case.kind == "kv":
        return a["b"] / (2.0 * math.sqrt(a["k"] * a["m"])) <= 0.95
    if case.kind == "mx":
        return a["k"] / (2.0 * math.sqrt(a["k"] / a["m"]) * a["b"]) <= 0.95
    if case.kind == "sls":
        return 0.1 <= a["Lambda"] <= 10.0 and a["rho"] >= 0.1
    return case.kind == "simulate" and case.separates and a["model"] != "sls"


def gate_error(case):
    """Worst difference between a case's closed-form output and the oracle."""
    if case.kind != "simulate":
        p = _params(case)
        traj = vi.integrate_impact(vi.RelaxationKernel.from_params(p), p.m, p.v0)
        return oracle_error(case, traj)
    load = vi.load_kv_params if case.args["model"] == "kv" else vi.load_maxwell_params
    p = load(case.args["params"])
    traj = vi.integrate_impact(vi.RelaxationKernel.from_params(p), p.m, p.v0)
    with open(case.args["out"]) as fh:
        last = fh.read().strip().splitlines()[-1].split(",")
    t_c, xdot = float(last[0]), float(last[2])
    return max(abs(xdot - traj.xdot[-1]) / p.v0, p.derived.omega0 * abs(t_c - traj.t_c))


# --------------------------------------------------------------------------
# Registry and generation.


OPS = {
    "kv": _op_kv, "mx": _op_mx, "sls": _op_sls, "kv_drop": _op_kv_drop,
    "mx_drop": _op_mx_drop, "perturb_kv": _op_perturb_kv, "perturb_mx": _op_perturb_mx,
    "sweep": _op_cli, "simulate": _op_cli, "biphasic": _op_cli, "analyze": _op_cli,
    "read_traj": _op_read_traj, "read_rows": _op_read_rows,
}
for _kind in ORACLE_GENERAL:
    OPS[_kind] = _op_oracle


def check(case, out, tr, rng):
    """Per-op check; returns an oracle error when one was measured."""
    kind = case.kind
    if kind in ("kv", "mx", "sls"):
        _check_pair(case, out)
    elif kind in ("kv_drop", "mx_drop"):
        _check_drop(case, out)
    elif kind == "perturb_kv":
        _check_perturb_kv(case, out)
    elif kind == "perturb_mx":
        _check_perturb_mx(case, out)
    elif kind.startswith("o_"):
        return _check_oracle(case, out)
    elif kind == "sweep":
        _check_sweep(case, out)
    elif kind == "simulate":
        _check_simulate(case, out)
    elif kind == "biphasic":
        _check_biphasic(case, tr, out)
    elif kind == "analyze":
        _check_analyze(case, tr, out)
    elif kind == "read_traj":
        _check_read_traj(case, out, rng)
    elif kind == "read_rows":
        _check_read_rows(case, out, rng)
    return None


def generate(workload, seed, tmp):
    """The seeded pass of cases for ``workload``; cli inputs go to ``tmp``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "closed-form-grid":
        cases = _cfg_general(rng) + _cfg_edges()
        return [cases[i] for i in rng.permutation(len(cases))]
    if workload == "oracle-crossval":
        cases = _oracle_general(rng) + [Case(c.kind, dict(c.args), c.tag, c.separates, c.known)
                                        for c in ORACLE_EDGES]
        return [cases[i] for i in rng.permutation(len(cases))]
    writers = _cli_general(rng, tmp) + _cli_edges(tmp)
    writers = [writers[i] for i in rng.permutation(len(writers))]
    readers = _readbacks(writers)
    readers = [readers[i] for i in rng.permutation(len(readers))]
    # Reads follow all writes, so every file exists when it is read.
    return writers + readers
