"""Model-independent numeric reference for hereditary impact problems.

Integrates the scaled equation of motion

    xi''(tau) + alpha * d/dtau [ integral_0^tau Psi(tau - s) xi(s) ds ] = gamma

written here in the equivalent velocity-convolution form
``xi'' + alpha * integral Psi(tau - s) xi'(s) ds = gamma`` with
``xi(0) = 0, xi'(0) = 1``, where ``tau = t / tau_R``,
``alpha = k0 tau_R**2 / m`` and ``gamma = g tau_R / v0``.  Contact ends at
the first zero of the hereditary force after its initial rise; restitution
is read off the velocity there.

Kernels built from sums of exponentials carry auxiliary convolution states
and integrate with classical fixed-step fourth-order Runge-Kutta, so the
global error falls by 16 per step halving.  A spring-dashpot parallel pair
has the singular kernel ``Psi = 1 + delta(tau)``, whose convolution is
``xi + xi'`` and needs no state.  The state equation is linear with
constant coefficients, ``y' = A y + c``, so one RK4 step is exactly the
affine map ``y <- y + (D y + q)`` with ``D = M + M^2/2 + M^3/6 + M^4/24``,
``M = dt A``: the same scheme, kept in increment form so that no step
rounds ``I + D``.  The powers of that map for a block of steps, and of the
block map for a batch of blocks, are built by doubling; a batch then
advances in two products, one for its block starts and one for the nodes
in every block.  The nodes are stored state-major, one row per state in
one array grown by doubling, and each node is written there once.
Tabulated kernels fall back to a second-order predictor-corrector with
trapezoid history summation.  Its steps are linear too, so a block of them
is one product with a matrix, itself built by doubling, once the history
over earlier nodes is known; that part comes from one convolution per
block, so the cost is O(n^2) multiply-adds in compiled code, not a
Python loop per step.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._search import MAX_SCAN_SAMPLES
from .errors import ConfigError, NoSeparationError
from .models import (
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
    Trajectory,
    _check_keys,
    _number,
    _read_json_object,
)

__all__ = [
    "RelaxationKernel",
    "integrate_impact",
    "integrate_impact_with_gravity",
    "restitution_invariance_probe",
]

# Default step and horizon, in units of the nominal half period pi / sqrt(alpha).
DEFAULT_DT_FRACTION = 1e-4
DEFAULT_HORIZON_HALF_PERIODS = 10.0

# Bisection width, as a fraction of one step, used when refining the
# interpolated force zero at contact end.
_REFINE_TOL = 1e-12

# Steps advanced at once: RK4 steps from precomputed powers of the step
# map, or table-kernel steps from one precomputed linear map.  A block end
# is reached from the block start in one product, so rounding in the powers
# grows with the block; 64 steps keep the default-step agreement with the
# closed forms below 1e-14, and longer blocks gain little speed.
_BLOCK = 64

# RK4 blocks advanced together: one product gives their starts, one more
# their nodes.  A batch of 4096 steps leaves little Python per step at the
# default 1e4-step contact and bounds the steps computed past its end.
_BATCH = 64

_KINDS = ("exp_sum", "kv_limit", "table")

# Kernel spec ``type`` -> (constructor, required keys, optional keys).
_SPEC_TYPES = {
    "elastic": ("elastic", frozenset({"k0"}), frozenset({"tau_R"})),
    "maxwell": ("maxwell", frozenset({"k0", "tau_R"}), frozenset()),
    "sls": ("sls", frozenset({"k0", "tau_R", "rho"}), frozenset()),
    "kv_limit": ("kv_limit", frozenset({"k", "b"}), frozenset()),
    "table": ("from_table", frozenset({"k0", "tau_R", "tau", "psi"}), frozenset()),
}


@dataclass(frozen=True, eq=False)
class RelaxationKernel:
    """Normalized stress-relaxation kernel ``Psi`` with its dimensional scale.

    The dimensional relaxation stiffness is ``k(t) = k0 * Psi(t / tau_R)``
    with ``Psi(0) = 1``.  Exponential-sum kernels store coefficients
    ``Psi(tau) = c_inf + sum_i cs[i] * exp(-tau / thetas[i])``; tabulated
    kernels interpolate linearly between samples and hold the last value
    beyond them.  The ``kv_limit`` kind marks a spring-dashpot parallel
    pair (``k0`` spring, ``k0 * tau_R`` dashpot), whose singular kernel is
    ``Psi(tau) = 1 + delta(tau)``; it has no finite ``Psi`` and keeps the
    default ``c_inf = 1`` with no exponentials.
    """

    k0: float
    tau_R: float
    kind: str = "exp_sum"
    c_inf: float = 1.0
    cs: tuple[float, ...] = ()
    thetas: tuple[float, ...] = ()
    table_tau: np.ndarray | None = field(default=None, repr=False)
    table_psi: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if not (self.k0 > 0.0) or not math.isfinite(self.k0):
            raise ConfigError(f"k0 must be positive, got {self.k0!r}")
        if not (self.tau_R > 0.0) or not math.isfinite(self.tau_R):
            raise ConfigError(f"tau_R must be positive, got {self.tau_R!r}")
        # Each test below fails on NaN.  An infinite time constant is valid:
        # its term is constant.
        if self.kind == "exp_sum":
            if len(self.cs) != len(self.thetas):
                raise ConfigError("cs and thetas must have matching lengths")
            if any(not th > 0.0 for th in self.thetas):
                raise ConfigError("exponential time constants must be positive")
            total = self.c_inf + sum(self.cs)
            if not abs(total - 1.0) <= 1e-9:
                raise ConfigError(f"Psi(0) = {total!r} must equal 1")
        elif self.kind == "table":
            tau = np.asarray(self.table_tau, dtype=float)
            psi = np.asarray(self.table_psi, dtype=float)
            if tau.ndim != 1 or tau.shape != psi.shape or tau.size < 2:
                raise ConfigError("kernel table needs matching 1-d tau and psi arrays")
            if tau[0] != 0.0 or not np.all(np.diff(tau) > 0.0):
                raise ConfigError("kernel table abscissae must increase from 0")
            if not np.all(np.isfinite(psi)):
                raise ConfigError("kernel table values must be finite")
            if abs(psi[0] - 1.0) > 1e-9:
                raise ConfigError(f"Psi(0) = {psi[0]!r} must equal 1")
            object.__setattr__(self, "table_tau", tau)
            object.__setattr__(self, "table_psi", psi)
        elif self.c_inf != 1.0 or self.cs or self.thetas:  # kv_limit
            raise ConfigError(
                "a kv_limit kernel is Psi = 1 + delta(tau); it takes no c_inf, cs or thetas"
            )
        # A sum of decaying exponentials with no negative coefficient cannot
        # increase, and rounding keeps it so; only tables and sums with a
        # negative term need the probe.
        if self.kind == "table" or any(c < 0.0 for c in self.cs):
            probe = self.psi(np.linspace(0.0, 10.0, 1001))
            if np.any(np.diff(probe) > 1e-12):
                warnings.warn(
                    "relaxation kernel increases somewhere on [0, 10]; "
                    "a physical stress-relaxation function is non-increasing",
                    stacklevel=3,
                )

    def psi(self, tau):
        """Evaluate the normalized kernel at scaled time ``tau`` (singular for ``kv_limit``)."""
        if self.kind == "kv_limit":
            raise ConfigError("a kv_limit kernel is singular; it has no finite Psi")
        tau = np.asarray(tau, dtype=float)
        if self.kind == "table":
            return np.interp(tau, self.table_tau, self.table_psi)
        out = np.full_like(tau, self.c_inf, dtype=float)
        for c, th in zip(self.cs, self.thetas):
            out = out + c * np.exp(-tau / th)
        return out

    @property
    def alpha_per_mass(self) -> float:
        """``alpha * m``, i.e. ``k0 * tau_R**2``."""
        return self.k0 * self.tau_R**2

    @classmethod
    def elastic(cls, k0: float, tau_R: float = 1.0) -> "RelaxationKernel":
        """Non-relaxing kernel ``Psi = 1`` (``tau_R`` only sets the time unit)."""
        return cls(k0=k0, tau_R=tau_R, c_inf=1.0)

    @classmethod
    def maxwell(cls, k0: float, tau_R: float) -> "RelaxationKernel":
        """Fully relaxing kernel ``Psi = exp(-tau)`` of a series pair."""
        return cls(k0=k0, tau_R=tau_R, c_inf=0.0, cs=(1.0,), thetas=(1.0,))

    @classmethod
    def sls(cls, k0: float, tau_R: float, rho: float) -> "RelaxationKernel":
        """Three-element kernel ``Psi = rho + (1 - rho) exp(-tau)``."""
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho must lie in (0, 1), got {rho!r}")
        return cls(k0=k0, tau_R=tau_R, c_inf=rho, cs=(1.0 - rho,), thetas=(1.0,))

    @classmethod
    def kv_limit(cls, k: float, b: float) -> "RelaxationKernel":
        """Spring-dashpot parallel pair, ``Psi = 1 + delta(tau)`` with ``tau_R = b / k``."""
        if not (b > 0.0):
            raise ConfigError("kv_limit needs b > 0; use elastic() for b = 0")
        return cls(k0=k, tau_R=b / k, kind="kv_limit")

    @classmethod
    def from_table(cls, tau, psi, k0: float, tau_R: float) -> "RelaxationKernel":
        """Tabulated kernel with linear interpolation between samples."""
        return cls(k0=k0, tau_R=tau_R, kind="table", table_tau=tau, table_psi=psi)

    @classmethod
    def from_params(
        cls, params: KelvinVoigtParams | MaxwellParams | StandardSolidParams
    ) -> "RelaxationKernel":
        """Kernel equivalent to a model parameter set."""
        if isinstance(params, KelvinVoigtParams):
            if params.b == 0.0:
                return cls.elastic(params.k, 1.0 / params.derived.omega0)
            return cls.kv_limit(params.k, params.b)
        if isinstance(params, MaxwellParams):
            return cls.maxwell(params.k, params.derived.tau_R)
        if isinstance(params, StandardSolidParams):
            d = params.derived
            return cls.sls(params.k0, d.tau_R, d.rho)
        raise ConfigError(f"no kernel mapping for {type(params).__name__}")

    @classmethod
    def from_json(cls, source) -> "RelaxationKernel":
        """Build a kernel from a JSON file path or an already-parsed mapping.

        The object must carry a ``type`` key out of ``elastic, maxwell,
        kv_limit, sls, table``; remaining keys are type-specific and
        unknown ones are rejected.  Values are numbers, and a table's
        ``tau`` and ``psi`` are lists of numbers.
        """
        if isinstance(source, (str, Path)):
            where, spec = source, _read_json_object(source)
        else:
            where, spec = "kernel spec", source
        if not isinstance(spec, Mapping) or "type" not in spec:
            raise ConfigError(f"{where} must be an object with a 'type' key")
        kind = spec["type"]
        if not isinstance(kind, str) or kind not in _SPEC_TYPES:
            raise ConfigError(f"{where}: unknown kernel type {kind!r}")
        name, required, optional = _SPEC_TYPES[kind]
        values = {key: value for key, value in spec.items() if key != "type"}
        _check_keys(where, values.keys(), required, optional)
        for key, value in values.items():
            if key in ("tau", "psi"):
                if not isinstance(value, list):
                    raise ConfigError(f"{where}: key {key!r} must be a list, got {value!r}")
                values[key] = [_number(where, key, v) for v in value]
            else:
                values[key] = _number(where, key, value)
        return getattr(cls, name)(**values)


def _rk4_increment(A: np.ndarray, c: np.ndarray, h: float):
    """One classical RK4 step of ``y' = A y + c`` as ``y <- y + (D y + q)``.

    ``D = M + M^2/2 + M^3/6 + M^4/24`` with ``M = h A`` is kept as the
    increment itself: storing ``I + D`` would round every step by an ulp of
    ``y``, which accumulates over thousands of steps.
    """
    M, eye = h * A, np.eye(len(c))
    phi = eye + M @ (eye / 2.0 + M @ (eye / 6.0 + M / 24.0))
    return M @ phi, h * (phi @ c)


def _hermite(s: float, f0: float, f1: float, d0: float, d1: float, dt: float) -> float:
    s2, s3 = s * s, s * s * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * f0
        + (s3 - 2.0 * s2 + s) * dt * d0
        + (-2.0 * s3 + 3.0 * s2) * f1
        + (s3 - s2) * dt * d1
    )


def _linear_system(kernel, m, v0, g):
    """State equation ``y' = A y + c`` of an exp-sum or spring-dashpot kernel.

    The state is ``[xi, xi', z_1, ...]`` in relaxation-time units, with one
    convolution state ``z_i' = xi' - z_i / theta_i`` per exponential; the
    scaled force is ``fvec @ y``, where the spring-dashpot pair's delta adds
    ``xi'``.  Returns ``A``, ``c`` and ``fvec`` of the scaled motion
    ``xi'' = gamma - alpha * (fvec @ y)``.
    """
    fvec = np.array([kernel.c_inf, float(kernel.kind == "kv_limit"), *kernel.cs])
    n = fvec.size
    A = np.zeros((n, n))
    A[0, 1] = 1.0
    A[1] = -kernel.alpha_per_mass / m * fvec
    A[2:, 1] = 1.0
    A[2:, 2:] = -np.diag([1.0 / th for th in kernel.thetas])
    c = np.zeros(n)
    c[1] = g * kernel.tau_R / v0
    return A, c, fvec


def _step_powers(D, q, count=_BLOCK):
    """``(D_j, S_j)`` for j = 1 .. ``count``: j steps from y give ``y + (D_j y + S_j)``.

    Built by doubling on the affine maps ``T_j = [[D_j, S_j], [0, 0]]``,
    ``T_{j+k} = T_j + T_k + T_k T_j``, which is ``D_{j+k} = D_j + D_k + D_k D_j``
    and ``S_{j+k} = S_j + S_k + D_k S_j``: one batched product per doubling.
    """
    n = q.size
    T = np.zeros((count, n + 1, n + 1))
    T[0, :n, :n] = D
    T[0, :n, n] = q
    h = 1
    while h < count:
        k = min(h, count - h)
        np.matmul(T[h - 1], T[:k], out=T[h : h + k])
        T[h : h + k] += T[:k] + T[h - 1]
        h += k
    return T[:, :n, :n], T[:, :n, n]


def _first_return(fs, started):
    """First index of ``fs`` where the force is back to ``<= 0`` after its rise.

    Returns that index, or None, and whether the force has risen by the
    end of ``fs``; ``started`` says whether it had risen before it.  A node
    with ``fs <= 0`` before the first positive one is not a return.
    """
    rise = 0
    if not started:
        rise = int((fs > 0.0).argmax())
        if not fs[rise] > 0.0:
            return None, False
    hit = fs[rise:] <= 0.0
    k = int(hit.argmax())
    return (rise + k if hit[k] else None), True


def _integrate_linear(kernel, m, v0, g, dt, horizon):
    """March RK4 until the force returns to zero after its initial rise.

    The step map's powers for 1 .. ``_BLOCK`` steps, and those of the
    block map for 1 .. ``_BATCH`` blocks, are both built by doubling.  The
    nodes go state-major into one ``(n, capacity)`` array, grown by
    doubling, and each is written once.  A batch takes two products: one
    gives its ``_BATCH`` block ends from the batch start, and one writes
    the increments of every node of every block in place from the block
    starts (``G`` holds each ``D_s`` with ``S_s`` as a last column, so the
    starts carry a trailing 1); the starts are then added and each block
    ends where the next one starts.  The zero is located on a cubic
    Hermite interpolant of the force over the bracketing step (endpoint
    values and rates), bisected to a fixed fraction of the step, and the
    terminal state comes from one partial Runge-Kutta step, preserving the
    scheme's order.
    """
    A, c, fvec = _linear_system(kernel, m, v0, g)
    n = c.size
    Ds, Ss = _step_powers(*_rk4_increment(A, c, dt), _BLOCK)
    # G[i, k, s] = D_s[i, k], with S_s as column k = n.
    G = np.ascontiguousarray(np.concatenate([Ds, Ss[:, :, None]], axis=2).transpose(1, 2, 0))
    P, R = _step_powers(Ds[-1], Ss[-1], _BATCH)
    P = P.reshape(-1, n)

    n_max = int(math.ceil(horizon / dt)) + 1
    size = _BLOCK * _BATCH  # nodes per batch
    full = 1 + size * -(-n_max // size)  # node 0, then every batch in whole
    # Three batches hold a default-step contact (about 1e4 steps); longer
    # ones double the array as they go.
    Y = np.empty((n, min(full, 1 + 3 * size)))
    y = Y[:, 0]
    y[:] = 0.0
    y[1] = 1.0
    f = fvec @ y
    started = f > 0.0
    starts = np.ones((_BATCH, n + 1))  # the block starts, each with a trailing 1
    i = 0  # node index of y
    while i < n_max:
        if Y.shape[1] < i + 1 + size:
            grown = np.empty((n, min(full, 2 * Y.shape[1])))
            grown[:, : i + 1] = Y[:, : i + 1]
            Y = grown
        ends = y + ((P @ y).reshape(_BATCH, n) + R)  # where each block of the batch ends
        starts[0, :n] = y
        starts[1:, :n] = ends[:-1]
        blocks = Y[:, i + 1 : i + 1 + size].reshape(n, _BATCH, _BLOCK)
        np.matmul(starts, G, out=blocks)
        blocks += starts[:, :n].T[:, :, None]
        blocks[:, :, -1] = ends.T
        k = min(size, n_max - i)
        fs = fvec @ Y[:, i + 1 : i + 1 + k]
        j, started = _first_return(fs, started)
        if j is not None:
            y0, f0 = Y[:, i + j], (fs[j - 1] if j else f)
            y1, f1 = Y[:, i + j + 1], fs[j]
            d0, d1 = fvec @ (A @ y0 + c), fvec @ (A @ y1 + c)
            lo, hi = 0.0, 1.0
            while hi - lo > _REFINE_TOL:
                mid = 0.5 * (lo + hi)
                if _hermite(mid, f0, f1, d0, d1, dt) > 0.0:
                    lo = mid
                else:
                    hi = mid
            s = 0.5 * (lo + hi)
            D_s, q_s = _rk4_increment(A, c, s * dt)
            Y[:, i + j + 1] = y0 + (D_s @ y0 + q_s)
            nodes = Y[:, : i + j + 2]
            tau = np.append(np.arange(i + j + 1) * dt, (i + j) * dt + s * dt)
            return _trajectory(kernel, m, v0, c[1], tau, nodes[0], nodes[1], fvec @ nodes)
        i += k
        y, f = Y[:, i], fs[-1]
    raise _no_separation(horizon)


def _heun_block_map(psi, dt, alpha):
    """``_BLOCK`` Heun steps of the table scheme as one linear map.

    The steps are linear in ``u = (v, acc, xi, gamma, lag_0 .. lag_{B-1})``:
    the start node's state, the gravity term and each target node's
    history sum over the nodes before the block.  The map is the
    ``(4B, B + 4)`` matrix whose product with ``u`` is the rows of v, acc,
    xi and F at the B target nodes.  It is the same for every block: within
    a block the trapezoid weights depend only on node offsets.

    It is built by doubling from the one-step map.  The first h targets of
    an h + k target map are the h-target map itself.  The next k are that
    map again, started from target h - 1 with the lags
    ``lag_{h+j} + sum_i psi[h + j - i] v_i``, which take in the first h
    targets' velocities through one Toeplitz product.
    """

    def step(v, acc, xi, gamma, hist):
        # ``hist`` is the trapezoid history without the new node's own term.
        # v and xi come back as increments, so that, as with RK4's ``D``,
        # no step rounds a coefficient near 1.
        v_pred = v + dt * acc
        acc_pred = gamma - alpha * (dt * (hist + 0.5 * psi[0] * v_pred))
        dv = 0.5 * dt * (acc + acc_pred)
        F = dt * (hist + 0.5 * psi[0] * (v + dv))
        return dv, gamma - alpha * F, 0.5 * dt * (v + v_pred), F

    B = _BLOCK
    maps = np.zeros((4, B, B + 4))
    maps[:, 0, :5] = step(*np.eye(5))
    maps[0, 0, 0] += 1.0
    maps[2, 0, 2] += 1.0
    h = 1
    while h < B:
        k = min(h, B - h)
        cols = h + k + 4  # the columns in use once the map has h + k targets
        # u of the next k targets, as rows over those columns.
        u = np.zeros((h + 4, cols))
        u[:3] = maps[:3, h - 1, :cols]
        u[3, 3] = 1.0
        toeplitz = psi[h + np.arange(k)[:, None] - np.arange(h)]
        u[4 : 4 + k] = np.eye(k, cols, h + 4) + toeplitz @ maps[0, :h, :cols]
        maps[:, h : h + k, :cols] = maps[:, :k, : h + 4] @ u
        h += k
    return maps.reshape(4 * B, B + 4)


def _integrate_table(kernel, m, v0, g, dt, horizon):
    """Heun predictor-corrector with trapezoid history convolution.

    Second-order accurate.  Each block of ``_BLOCK`` target nodes takes its
    lagged history, the part over earlier nodes, from one convolution, and
    advances by one product with :func:`_heun_block_map`; the history cost
    grows with the square of the step count.
    """
    alpha = kernel.alpha_per_mass / m
    gamma = g * kernel.tau_R / v0
    n_max = int(math.ceil(horizon / dt)) + 1
    B = _BLOCK
    size = 1 + B * -(-(n_max + 1) // B)  # node 0, then whole blocks over nodes 1 .. n_max + 1
    psi = np.asarray(kernel.psi(np.arange(size) * dt))
    step = _heun_block_map(psi, dt, alpha)

    Y = np.zeros((4, size))  # v, acc, xi and F at every node
    v, acc, xi, fs = Y
    v[0] = 1.0
    acc[0] = gamma
    u = np.empty(B + 4)
    u[3] = gamma
    started = False
    for K0 in range(1, n_max + 2, B):
        u[:3] = Y[:3, K0 - 1]
        # History of each target node over the nodes before the block,
        # with the trapezoid's half weight on the first node.
        u[4:] = np.convolve(v[:K0], psi[1 : K0 + B], "valid") - 0.5 * v[0] * psi[K0 : K0 + B]
        Y[:, K0 : K0 + B] = (step @ u).reshape(4, B)
        j, started = _first_return(fs[K0 : min(K0 + B, n_max + 2)], started)
        if j is not None:
            n = K0 + j
            f_prev, f_end = fs[n - 1], fs[n]
            s = f_prev / (f_prev - f_end) if f_end != f_prev else 1.0
            tau = np.append(np.arange(n) * dt, (n - 1 + s) * dt)

            def lerp(a):
                return np.append(a[:n], a[n - 1] + s * (a[n] - a[n - 1]))

            return _trajectory(kernel, m, v0, gamma, tau, lerp(xi), lerp(v),
                               np.append(fs[:n], 0.0))
    raise _no_separation(horizon)


def _trajectory(kernel, m, v0, gamma, tau, xi, dxi, f):
    """Dimensional trajectory from scaled nodes: time, ``xi``, ``xi'`` and force."""
    tau_R = kernel.tau_R
    return Trajectory(
        times=tau_R * tau,
        x=v0 * tau_R * xi,
        xdot=v0 * dxi,
        xddot=v0 / tau_R * (gamma - kernel.alpha_per_mass / m * f),
        F=kernel.k0 * v0 * tau_R * f,
    )


def _no_separation(horizon: float) -> NoSeparationError:
    return NoSeparationError(
        f"force never returned to zero within the horizon ({horizon:.6g} scaled time units)"
    )


def _resolve_grid(kernel, m, dt_scaled, horizon_scaled):
    half_period = math.pi / math.sqrt(kernel.alpha_per_mass / m)
    if dt_scaled is None:
        dt = DEFAULT_DT_FRACTION * half_period
        # Heavily damped kernels oscillate far slower than they relax;
        # keep the explicit stepper inside the decay scale then.
        if kernel.kind == "exp_sum" and kernel.thetas:
            dt = min(dt, 0.5 * min(kernel.thetas))
    else:
        dt = dt_scaled
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ConfigError(f"dt_scaled must be positive, got {dt!r}")
    if horizon_scaled is not None:
        horizon = horizon_scaled
    else:
        horizon = DEFAULT_HORIZON_HALF_PERIODS * half_period
        if kernel.kind != "table":
            # Near critical damping the contact outlasts the nominal half
            # periods; give it a whole period of the slowest oscillating mode,
            # or with none ten time constants of the slowest decay (a
            # three-element contact at D <= 0 ends within two), within the step cap.
            ev = np.linalg.eigvals(_linear_system(kernel, m, 1.0, 0.0)[0])
            osc = np.abs(ev.imag)
            reach = (2.0 * math.pi / np.min(osc, where=osc > 0.0, initial=np.inf) if osc.any()
                     else 10.0 / np.min(-ev.real, where=ev.real < 0.0, initial=np.inf))
            horizon = max(horizon, min(reach, (MAX_SCAN_SAMPLES - 1) * dt))
    if not (horizon > dt):
        raise ConfigError(f"horizon_scaled {horizon:.6g} must exceed the step size {dt:.6g}")
    steps = horizon / dt
    if not steps <= MAX_SCAN_SAMPLES:
        raise ConfigError(
            f"horizon {horizon:.6g} at step {dt:.6g} needs {steps:.3g} steps, "
            f"more than the {MAX_SCAN_SAMPLES:.3g} allowed"
        )
    return dt, horizon


def _integrate(kernel, m, v0, g, dt_scaled, horizon_scaled):
    if not isinstance(kernel, RelaxationKernel):
        raise ConfigError("kernel must be a RelaxationKernel")
    for name, value in (("m", m), ("v0", v0)):
        if not (value > 0.0) or not math.isfinite(value):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if not (g >= 0.0) or not math.isfinite(g):
        raise ConfigError(f"g must be nonnegative and finite, got {g!r}")
    dt, horizon = _resolve_grid(kernel, m, dt_scaled, horizon_scaled)
    if kernel.kind == "table":
        return _integrate_table(kernel, m, v0, g, dt, horizon)
    return _integrate_linear(kernel, m, v0, g, dt, horizon)


def integrate_impact(
    kernel: RelaxationKernel,
    m: float,
    v0: float,
    dt_scaled: float | None = None,
    horizon_scaled: float | None = None,
) -> Trajectory:
    """Integrate a zero-gravity impact against a relaxation kernel.

    Parameters
    ----------
    kernel : RelaxationKernel
        Normalized kernel with its dimensional scales.
    m, v0 : float
        Impactor mass and incoming velocity.
    dt_scaled : float, optional
        Fixed step in scaled time ``t / tau_R``, for every kernel kind.
        Defaults to 1e-4 of the nominal half period ``pi / sqrt(alpha)``.
    horizon_scaled : float, optional
        Give up and raise :class:`NoSeparationError` past this scaled time.
        Defaults to ten nominal half periods.  For exponential-sum and
        spring-dashpot kernels it stretches to one period of the slowest
        oscillating mode of the state equation, as far as
        ``_search.MAX_SCAN_SAMPLES`` steps allow.

    Returns
    -------
    Trajectory
        Node samples up to contact end, including the refined final instant.

    Raises
    ------
    ConfigError
        For a non-finite or non-positive ``m`` or ``v0``, or when
        ``horizon_scaled / dt_scaled`` is not finite or exceeds
        ``_search.MAX_SCAN_SAMPLES`` steps.
    """
    return _integrate(kernel, m, v0, 0.0, dt_scaled, horizon_scaled)


def integrate_impact_with_gravity(
    kernel: RelaxationKernel,
    m: float,
    v0: float,
    g: float,
    dt_scaled: float | None = None,
    horizon_scaled: float | None = None,
) -> Trajectory:
    """Same as :func:`integrate_impact` with gravity acting during contact.

    With ``g = 0`` the result is identical bit for bit to the zero-gravity
    entry point.
    """
    return _integrate(kernel, m, v0, g, dt_scaled, horizon_scaled)


def restitution_invariance_probe(
    kernel: RelaxationKernel,
    m: float,
    velocities,
) -> dict:
    """Check that scaled outcomes do not depend on the incoming velocity.

    Runs the integrator once per velocity and reports the spread of the
    restitution coefficient and scaled duration, plus the worst relative
    deviation of the indentation peak from exact linear scaling.
    """
    velocities = [float(v) for v in velocities]
    if len(velocities) < 2:
        raise ConfigError("need at least two velocities to probe invariance")
    omega0 = math.sqrt(kernel.k0 / m)
    e_stars, tcs, xms = [], [], []
    for v0 in velocities:
        traj = integrate_impact(kernel, m, v0)
        e_stars.append(-traj.xdot[-1] / v0)
        tcs.append(omega0 * traj.t_c)
        xms.append(float(np.max(traj.x)))
    ref_v, ref_xm = velocities[0], xms[0]
    xm_dev = max(
        abs(xm / ref_xm - v / ref_v) / (v / ref_v)
        for v, xm in zip(velocities, xms)
    )
    return {
        "velocities": velocities,
        "e_star": e_stars,
        "omega0_tc": tcs,
        "x_m": xms,
        "max_delta_e": max(e_stars) - min(e_stars),
        "max_delta_tc": max(tcs) - min(tcs),
        "max_xm_linearity_error": xm_dev,
    }
