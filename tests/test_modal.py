"""The modal layer: every model's history starts exactly, the pairs' modes
give the paper's closed-form metrics, and each model's one metrics and one
trajectory function take the params' weight."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import visco_impact
from visco_impact import _modal, _search, kelvin_voigt, maxwell, models, oracle, standard_solid
from visco_impact.analysis import SampleGeometry, solve_e10
from visco_impact.errors import (
    DiscriminantError,
    DomainError,
    PlasticImpactError,
    ViscoImpactError,
)
from visco_impact.kelvin_voigt import (
    kv_drop_metrics_asymptotic,
    kv_metrics,
    kv_trajectory,
)
from visco_impact.maxwell import (
    mx_drop_metrics_asymptotic,
    mx_metrics,
    mx_trajectory,
)
from visco_impact.models import (
    ImpactMetrics,
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
)
from visco_impact.oracle import RelaxationKernel, integrate_impact_with_gravity
from visco_impact.standard_solid import (
    params_from_groups,
    sls_metrics,
    sls_perturb_kv,
    sls_perturb_maxwell,
    sls_trajectory,
)


def _log(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda u: 10.0**u)


def _groups(params) -> tuple:
    """The groups a model's scaled entries read."""
    d = params.derived
    return {KelvinVoigtParams: (d.eta,), MaxwellParams: (d.zeta,)}.get(
        type(params), (d.Lambda, d.rho))


def _pair(cls, loss, m, k, v0, eps0):
    omega0 = math.sqrt(k / m)
    b = 2.0 * loss * m * omega0 if cls is KelvinVoigtParams else k / (2.0 * omega0 * loss)
    return cls(m=m, k=k, b=b, v0=v0, g=eps0 * omega0 * v0)


@given(
    model=st.sampled_from(("kv", "maxwell", "sls")),
    loss=st.floats(0.01, 0.95),
    Lam=_log(-2.0, 2.0),
    rho=st.floats(0.05, 0.95),
    m=_log(-3.0, 3.0),
    k=_log(-3.0, 3.0),
    v0=_log(-3.0, 3.0),
    eps0=st.one_of(st.just(0.0), _log(-4.0, -1.0)),
)
@settings(deadline=None, max_examples=300, derandomize=True)
def test_histories_start_exactly(model, loss, Lam, rho, m, k, v0, eps0):
    """``x = 0`` and ``xdot = v0`` at ``t = 0`` for every model; the series pair
    and the three-element solid also start at ``F = 0`` and ``xddot = g``."""
    if model == "sls":
        try:
            free = params_from_groups(Lam, rho, m=m, v0=v0)
        except DiscriminantError:
            assume(False)
        params = StandardSolidParams(m=m, k1=free.k1, k2=free.k2, b=free.b, v0=v0,
                                     g=eps0 * v0 / free.derived.tau_R)
    else:
        cls = KelvinVoigtParams if model == "kv" else MaxwellParams
        params = _pair(cls, loss, m, k, v0, eps0)
    run = {"kv": kv_trajectory, "maxwell": mx_trajectory, "sls": sls_trajectory}[model]
    try:
        traj = run(params, n_samples=3)
    except (PlasticImpactError, DiscriminantError):
        assume(False)
    assert traj.x[0] == 0.0
    assert traj.xdot[0] == v0
    if model != "kv":
        assert traj.F[0] == 0.0
        assert traj.xddot[0] == params.g


@given(loss=st.floats(0.01, 0.95))
@settings(deadline=None, max_examples=100, derandomize=True)
def test_pair_modes_give_the_closed_form_metrics(loss):
    """The layer's metrics on each pair's scaled modes, at unit m, k and v0,
    equal the paper's closed forms; from 1/2 on, kv's force peaks at t = 0."""
    for cls, module, closed in ((KelvinVoigtParams, kelvin_voigt, kv_metrics),
                                (MaxwellParams, maxwell, mx_metrics)):
        params = _pair(cls, loss, 1.0, 1.0, 1.0, 0.0)
        modes = module._scaled_solution(*_groups(params))
        got = ImpactMetrics(*_modal.scaled_metrics(*modes, module.first_force_zero))
        want = closed(params)
        for name in ("t_c", "e_star", "t_m", "x_m", "t_M", "F_M"):
            expected = pytest.approx(getattr(want, name), rel=1e-14, abs=0.0)
            assert getattr(got, name) == expected, name


# A drop of each model, weighted as in ``verify``'s analytic-vs-oracle suite.
WEIGHTED = {
    "kv": (KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0, g=0.1), kv_metrics, kv_trajectory),
    "maxwell": (MaxwellParams(m=1.0, k=1.0, b=0.5 / 0.3, v0=1.0, g=0.05), mx_metrics,
                mx_trajectory),
    "sls": (dataclasses.replace(params_from_groups(1.0, 0.5), g=0.1), sls_metrics,
            sls_trajectory),
}


@pytest.mark.parametrize("model", sorted(WEIGHTED))
def test_metrics_and_trajectory_take_the_weight(model):
    """The oracle under the same weight agrees to 1e-6, and the history ends at ``t_c``."""
    params, metrics, trajectory = WEIGHTED[model]
    met = metrics(params)
    kernel = RelaxationKernel.from_params(params)
    oracle = integrate_impact_with_gravity(kernel, params.m, params.v0, params.g)
    assert abs(met.e_star + oracle.xdot[-1] / params.v0) <= 1e-6
    assert params.derived.omega0 * abs(met.t_c - oracle.t_c) <= 1e-6
    traj = trajectory(params, n_samples=50)
    assert traj.t_c == met.t_c
    assert np.array_equal(traj.F, params.m * (params.g - traj.xddot))


@given(loss=st.floats(0.01, 0.95), m=_log(-3.0, 3.0), k=_log(-3.0, 3.0), v0=_log(-3.0, 3.0))
@settings(deadline=None, max_examples=100, derandomize=True)
def test_zero_gravity_metrics_are_the_closed_forms(loss, m, k, v0):
    """Without weight each pair's metrics are its closed form, field for field."""
    for cls, module, metrics in ((KelvinVoigtParams, kelvin_voigt, kv_metrics),
                                 (MaxwellParams, maxwell, mx_metrics)):
        params = _pair(cls, loss, m, k, v0, 0.0)
        d = params.derived
        scaled = module._scaled_metrics(d.eta if cls is KelvinVoigtParams else d.zeta)
        assert metrics(params) == _modal.dimensional(scaled, 1.0 / d.omega0, params)


def test_one_metrics_and_one_trajectory_name_per_model():
    """The drop trajectory names are the trajectory functions; the drop metrics are gone."""
    assert kelvin_voigt.kv_drop_trajectory is kv_trajectory
    assert maxwell.mx_drop_trajectory is mx_trajectory
    for name in ("kv_drop_metrics", "mx_drop_metrics", "sls_drop_metrics", "sls_drop_trajectory"):
        assert not hasattr(visco_impact, name), name


def test_zeros_early_in_the_period_keep_their_digits():
    """A zero early in its sine's period: the walk's phase there must not lose
    ulp(pi), as ``phi - pi`` would.  The references are 50-digit roots."""
    params = KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * (1.0 - 1e-7), v0=1.0, g=1e-6)
    assert kv_trajectory(params, n_samples=2).t_c == pytest.approx(
        2.0000084557921601105, rel=1e-15, abs=0.0)
    met = sls_metrics(params_from_groups(0.1793653, 0.05))
    assert met.t_c == pytest.approx(8.080828967198009962, rel=1e-15, abs=0.0)
    assert met.t_m == pytest.approx(4.1134336172011337226, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("perturb", [sls_perturb_kv, sls_perturb_maxwell])
@pytest.mark.parametrize("rho", [-5.0, -1e-300, 1.0, 7.0, math.nan, math.inf, -math.inf])
def test_expansions_refuse_rho_outside_zero_to_one(perturb, rho):
    with pytest.raises(DomainError, match=r"rho must lie in \[0, 1\)"):
        perturb(0.3, rho)


@pytest.mark.parametrize("perturb", [sls_perturb_kv, sls_perturb_maxwell])
def test_expansions_keep_the_pair_limit(perturb):
    assert perturb(0.3, 0.0) == perturb(0.3, -0.0)


@pytest.mark.parametrize(
    "params, run",
    [
        # A three-element fuzz input: v0 tau_R and m v0 / tau_R overflow.
        (StandardSolidParams(m=7.180750831670816e240, k1=2.8452084274228e58,
                             k2=1.0809254475856645e-08, b=3.2979756010946127e135,
                             v0=3.1790135901383877e295), sls_metrics),
        (StandardSolidParams(m=7.180750831670816e240, k1=2.8452084274228e58,
                             k2=1.0809254475856645e-08, b=3.2979756010946127e135,
                             v0=3.1790135901383877e295), sls_trajectory),
        # v0 / omega0 overflows.
        (KelvinVoigtParams(m=1e10, k=1e-10, b=0.6, v0=1e300), kv_trajectory),
        # The closed forms scale through the same check: x_m = inf before.
        (KelvinVoigtParams(m=1e10, k=1e-10, b=0.6, v0=1e300), kv_metrics),
        (KelvinVoigtParams(m=1e10, k=1e-10, b=0.6, v0=1e300), kv_drop_metrics_asymptotic),
        (MaxwellParams(m=1e10, k=1e-10, b=2.0, v0=1e300), mx_metrics),
        (MaxwellParams(m=1e10, k=1e-10, b=2.0, v0=1e300), mx_drop_metrics_asymptotic),
    ],
    ids=["sls-metrics", "sls-trajectory", "kv-trajectory", "kv-metrics", "kv-asymptotic",
         "mx-metrics", "mx-asymptotic"],
)
def test_scales_that_overflow_are_refused(params, run):
    """A length, speed or force scale that overflows would make every sample inf or NaN."""
    with pytest.raises(DomainError, match=r"^depth scale = v0 \* T leaves the float range at v0 = "):
        run(params)


# Two finite-scale inputs whose answers overflow: the three-element force
# coefficient 4.7e75 times v0 / tau_R = 3.05e240, and the parallel pair's metrics
# when eta underflows to 0 under eps0 = 2.1e245.
SLS_OVERFLOW = StandardSolidParams(m=7.4547670406883e-243, k1=4.302636000876517e20,
                                   k2=4.74087973088285e-267, b=8.493115740269468e-36,
                                   v0=6.012859747615757e184, g=9.81)
KV_OVERFLOW = KelvinVoigtParams(m=1.7231091728062788e228, k=1.522582502149621e-88,
                                b=2.273619399013645e-251, v0=4.856383134518119e-87, g=9.81)


def test_sampled_coefficients_that_overflow_are_refused():
    """NaN cells before; the metrics, each finite, still stand."""
    message = r"^a mode coefficient times its scale .* must be finite$"
    with pytest.raises(DomainError, match=message):
        sls_trajectory(SLS_OVERFLOW)
    assert all(map(math.isfinite, vars(sls_metrics(SLS_OVERFLOW)).values()))


def test_metrics_that_overflow_are_refused():
    """``e_star = 5.4e238`` and ``x_m = inf`` before."""
    with pytest.raises(DomainError, match=r"^the metric x_m = inf must be finite$"):
        kv_metrics(KV_OVERFLOW)


@pytest.mark.parametrize("module", [kelvin_voigt, maxwell], ids=["kelvin_voigt", "maxwell"])
def test_pair_closed_forms_read_only_derived_groups(module):
    """The pair modules work in omega0 units: only :mod:`._modal` reads the
    mass, stiffness, damping or speed, to scale its answers."""
    tree = ast.parse(Path(module.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & {"m", "k", "b", "v0"}


def test_oracle_reads_no_derived_groups():
    """The oracle's side of the cross-check reads the springs, dashpot and mass,
    never the groups the closed forms read."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "derived"]


@pytest.mark.parametrize("module", [models, _search], ids=["models", "_search"])
def test_lowest_layers_import_only_the_errors(module):
    """The parameter types and the walk sit below every model: of the package they
    import the errors alone."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("visco_impact")}
        elif isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("visco_impact"):
            imported.add(node.module.removeprefix("visco_impact."))
    assert imported == {"errors"}


def _file_openers(node, owner="<module>"):
    """The innermost function around each ``os.open`` call under ``node``, and
    around each ``open`` call whose mode is not a constant of r, b and t alone."""
    for child in ast.iter_child_nodes(node):
        callee = getattr(child, "func", None)
        if isinstance(callee, ast.Attribute) and callee.attr == "open":
            if getattr(callee.value, "id", None) == "os":
                yield owner
        elif isinstance(callee, ast.Name) and callee.id == "open":
            mode = ([k.value for k in child.keywords if k.arg == "mode"] + child.args[1:2]
                    or [ast.Constant("r")])
            if not (isinstance(mode[0], ast.Constant) and set(mode[0].value) <= set("rbt")):
                yield owner
        yield from _file_openers(child, getattr(child, "name", owner))


def test_one_opener_writes_every_file():
    """Every file the package writes is opened by ``models._open_output``:
    no other ``open`` with a write mode, and no other ``os.open``."""
    openers = {
        (path.stem, owner)
        for path in Path(visco_impact.__file__).parent.glob("*.py")
        for owner in _file_openers(ast.parse(path.read_text()))
    }
    assert openers == {("models", "_open_output")}


def _brent_callers(node, owner="<module>"):
    """The innermost function around each ``brentq`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        callee = getattr(child, "func", None)
        if isinstance(child, ast.Call) and "brentq" in (getattr(callee, "id", None),
                                                        getattr(callee, "attr", None)):
            yield owner
        yield from _brent_callers(child, getattr(child, "name", owner))


def test_brent_is_called_only_in_the_search_root():
    """Every Brent solve in the package goes through ``_search._root``, with its tolerances."""
    calls = {(path.name, owner) for path in Path(_modal.__file__).parent.glob("*.py")
             for owner in _brent_callers(ast.parse(path.read_text()))}
    assert calls == {("_search.py", "_root")}


@given(loss=st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.sampled_from((1e-300, 0.5, 1.0 - 2**-53))))
@settings(deadline=None, max_examples=200, derandomize=True)
def test_expansions_at_zero_rho_are_the_pair_closed_forms(loss):
    """The zeroth order of each expansion is its pair's closed form, bit for bit."""
    assert sls_perturb_kv(loss, 0.0) == kelvin_voigt._scaled_metrics(loss)[:2]
    assert sls_perturb_maxwell(loss, 0.0) == maxwell._scaled_metrics(loss)[:2]


@pytest.mark.parametrize("gamma", [0.0, 0.05], ids=["free", "weighted"])
@pytest.mark.parametrize(
    "module, params",
    [
        (kelvin_voigt, KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)),
        (maxwell, MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0)),
        (standard_solid, params_from_groups(0.5, 0.3)),
        # D <= 0: three real roots, so the modes are RealMode.
        (standard_solid, params_from_groups(0.2, 0.05)),
    ],
    ids=["kelvin_voigt", "maxwell", "sls", "sls-real-roots"],
)
def test_every_model_gives_the_force_as_weight_less_acceleration(module, params, gamma):
    """Each ``_scaled_solution`` hands the modal layer ``(xi, xi', f = gamma - xi'')``."""
    _, xi_d, f = module._scaled_solution(*_groups(params), gamma)
    xi_dd = xi_d.derivative()
    for tau in (0.0, 0.1, 0.7, 2.3):
        assert float(f(tau)) == pytest.approx(gamma - float(xi_dd(tau)), rel=1e-13, abs=1e-15)


_MODULES = {"kv": kelvin_voigt, "maxwell": maxwell, "sls": standard_solid}


def _count_walks(monkeypatch) -> dict:
    """Replace each model module's ``first_force_zero``, the name the traced pass wraps,
    with a copy that counts its calls."""
    calls = dict.fromkeys(_MODULES.values(), 0)
    for module in calls:
        def counted(*args, module=module, walk=module.first_force_zero):
            calls[module] += 1
            return walk(*args)
        monkeypatch.setattr(module, "first_force_zero", counted)
    return calls


@pytest.mark.parametrize("model", sorted(WEIGHTED))
def test_every_walk_goes_through_its_own_module(model, monkeypatch):
    """Weighted metrics and every trajectory walk through their own module's
    ``first_force_zero``, and through no other module's."""
    params, metrics, trajectory = WEIGHTED[model]
    module = _MODULES[model]
    calls = _count_walks(monkeypatch)
    for run, p in ((metrics, params), (trajectory, params),
                   (trajectory, dataclasses.replace(params, g=0.0))):
        before = dict(calls)
        run(p)
        assert {m for m in calls if calls[m] != before[m]} == {module}, run.__name__


def test_scaled_entries_walk_only_where_no_closed_form_exists(monkeypatch):
    """Without weight the pair entries are their closed forms, with no walk; the
    three-element entry walks through its own module at every weight."""
    calls = _count_walks(monkeypatch)
    for loss in (1e-9, 0.3, 0.5, 0.9):
        w = math.sqrt(1.0 - loss * loss)
        assert kelvin_voigt._scaled_metrics(loss, 0.0)[0] == 2.0 / w * math.atan2(w, loss)
        w = math.sqrt((1.0 - loss) * (1.0 + loss))
        assert maxwell._scaled_metrics(loss, 0.0)[0] == math.pi / w
    assert not any(calls.values())
    standard_solid._scaled_metrics(1.0, 0.5)
    assert calls[standard_solid] > 0
    assert calls[kelvin_voigt] == calls[maxwell] == 0


def _outcome(run):
    """``repr`` of what ``run()`` returns, or its error's class and text."""
    try:
        return repr(run())
    except ViscoImpactError as exc:
        return type(exc), str(exc)


@given(loss=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       eps0=st.one_of(st.just(0.0), _log(-8.0, 0.5)))
@settings(deadline=None, max_examples=300, derandomize=True)
def test_pair_metrics_are_their_scaled_entry(loss, eps0):
    """At unit m, k and v0 (so ``gamma = g``) each pair's metrics are its scaled
    entry at the params' loss factor, bit for bit, with and without weight."""
    for cls, module, metrics in ((KelvinVoigtParams, kelvin_voigt, kv_metrics),
                                 (MaxwellParams, maxwell, mx_metrics)):
        try:
            params = _pair(cls, loss, 1.0, 1.0, 1.0, eps0)
            groups = _groups(params)
        except DomainError:
            continue  # the loss factor's dashpot leaves the float range
        assert params.g == eps0
        assert _outcome(lambda: metrics(params)) == _outcome(
            lambda: ImpactMetrics(*module._scaled_metrics(*groups, params.g)))


@given(Lam=_log(-2.0, 2.0), rho=st.floats(0.01, 0.99), eps0=st.one_of(st.just(0.0), _log(-8.0, 0.5)))
@settings(deadline=None, max_examples=200, derandomize=True)
def test_sls_metrics_are_its_scaled_entry(Lam, rho, eps0):
    """At ``params_from_groups(Lambda, rho)`` (unit mass and speed), with and without
    weight, the metrics are the scaled entry rescaled by ``tau_R``, bit for bit."""
    assume(abs(Lam - 1.0 / 3.0) > 1e-2 or abs(rho - 1.0 / 9.0) > 1e-2)  # the triple root
    free = params_from_groups(Lam, rho)
    tau_R = free.derived.tau_R
    params = dataclasses.replace(free, g=eps0 / tau_R)
    gamma = params.g * tau_R / params.v0
    assert _outcome(lambda: sls_metrics(params)) == _outcome(lambda: ImpactMetrics(
        *_modal.rescaled(standard_solid._scaled_metrics(*_groups(params), gamma), tau_R)))



# Each model's params whose weight group gamma = g T / v0 overflows, though every
# group of the material is in range, and every call that reads the weight.
@pytest.mark.parametrize("cls, fields, calls", [
    (KelvinVoigtParams, {"m": 1.0, "k": 1.0, "b": 0.6},
     (kv_metrics, kv_trajectory, kv_drop_metrics_asymptotic)),
    (MaxwellParams, {"m": 1.0, "k": 1.0, "b": 2.0},
     (mx_metrics, mx_trajectory, mx_drop_metrics_asymptotic,
      lambda p: solve_e10(p, SampleGeometry(a=2.5e-3, h=1.5e-3)))),
    (StandardSolidParams, {"m": 1.0, "k1": 1.0, "k2": 0.3, "b": 0.5},
     (sls_metrics, sls_trajectory)),
], ids=["kv", "maxwell", "sls"])
def test_the_weight_group_is_refused_at_the_solve(cls, fields, calls):
    """Such params construct, and every drop and expansion on them refuses ``gamma``."""
    params = cls(**fields, v0=1e-10, g=1e300)
    for call in calls:
        with pytest.raises(DomainError, match=r"^gamma = g \* T / v0 leaves the float range at "
                                              r"g = 1e\+300, T = \S+, v0 = 1e-10$"):
            call(params)
