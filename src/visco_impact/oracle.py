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
constant coefficients, ``y' = A y + c``, so one RK4 step is exactly an
affine map, advanced many steps per product (:func:`_integrate_linear`),
and the fastest rate of ``A`` bounds the step (:func:`_resolve_grid`).  A
partial RK4 step is a polynomial in its length, so the contact end is
one Brent solve of the step's own quartic force, and the last force is
zero to rounding at every step size.
Tabulated kernels fall back to a second-order predictor-corrector with
trapezoid history summation, a block of steps per product
(:func:`_integrate_table`).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._search import _root
from .errors import ConfigError, NoSeparationError
from .models import (
    MAX_SCAN_SAMPLES,
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
    Trajectory,
)

__all__ = [
    "RelaxationKernel",
    "integrate_impact",
    "integrate_impact_with_gravity",
]

# Default step and the horizon, in units of the nominal half period pi / sqrt(alpha).
DEFAULT_DT_FRACTION = 1e-4
HORIZON_HALF_PERIODS = 10.0

# Steps in units of 1 / rho(A), the state matrix's fastest rate: the default
# step is at most 0.5 and a longer explicit step than 2.5 is refused.  RK4's
# growth factor is at most 0.87 on the left half circle |z| = 2.5, 1.11 at 2.7.
_DEFAULT_STEP_RATE, _MAX_STEP_RATE = 0.5, 2.5

# The accepted alpha = k0 tau_R**2 / m.  A step's RK4 force polynomial
# (:func:`_step_zero`) forms A^4, of size alpha**2, and the step's fourth
# power, near 1 / alpha**2 at the default step.
ALPHA_RANGE = (1e-150, 1e150)

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
        # Each kind reads its own fields only; any other would go unread.
        if self.kind != "exp_sum" and (self.c_inf != 1.0 or self.cs or self.thetas):
            raise ConfigError(f"a kernel of kind {self.kind!r} takes no c_inf, cs or thetas")
        if self.kind != "table" and (self.table_tau is not None or self.table_psi is not None):
            raise ConfigError(f"a kernel of kind {self.kind!r} takes no table_tau or table_psi")
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
            # Interpolating toward an infinite abscissa never reaches its value.
            if not np.all(np.isfinite(tau)):
                raise ConfigError("kernel table abscissae must be finite")
            if not np.all(np.isfinite(psi)):
                raise ConfigError("kernel table values must be finite")
            if abs(psi[0] - 1.0) > 1e-9:
                raise ConfigError(f"Psi(0) = {psi[0]!r} must equal 1")
            object.__setattr__(self, "table_tau", tau)
            object.__setattr__(self, "table_psi", psi)
        # A sum of decaying exponentials with no negative coefficient cannot
        # increase, and rounding keeps it so; only tables and sums with a
        # negative term are checked.  A table's interpolant rises exactly
        # where its samples do.  A sum is probed at 0 and on one geometric
        # grid from a tenth of its fastest finite time constant to ten of its
        # slowest; a term with an infinite time constant is constant.
        finite = [th for th in self.thetas if math.isfinite(th)]
        if self.kind == "table":
            tau, psi = self.table_tau, self.table_psi
        elif finite and any(c < 0.0 for c in self.cs):
            # A tenth of a subnormal time constant underflows to 0.
            lo = max(0.1 * min(finite), sys.float_info.min)
            hi = min(10.0 * max(finite), sys.float_info.max)
            # Where tau / theta overflows, that term is exp(-inf) = 0.
            with np.errstate(over="ignore"):
                tau = np.append(0.0, np.geomspace(lo, hi, 1001))
                psi = self.psi(tau)
        else:
            return
        rise = np.diff(psi) > 1e-12
        if rise.any():
            warnings.warn(
                f"relaxation kernel increases after tau = {tau[rise.argmax()]:.6g}; "
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
        """``alpha * m``, ``k0 * tau_R**2``, or ``(k0 tau_R) tau_R`` where the square overflows."""
        try:
            return self.k0 * self.tau_R**2
        except OverflowError:
            return self.k0 * self.tau_R * self.tau_R

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
        """Spring-dashpot parallel pair, ``Psi = 1 + delta(tau)`` with ``tau_R = b / k``.

        Any ``b > 0`` is accepted, overdamped pairs (``b > 2 sqrt(k m)``) included.
        """
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
        """Kernel equivalent to a model parameter set, read from its springs, dashpot and
        mass, not the derived groups it checks; an elastic pair's ``alpha`` is 1 to rounding."""
        if isinstance(params, KelvinVoigtParams):
            if params.b == 0.0:
                return cls.elastic(params.k, math.sqrt(params.m) / math.sqrt(params.k))
            return cls.kv_limit(params.k, params.b)
        if isinstance(params, MaxwellParams):
            return cls.maxwell(params.k, params.b / params.k)
        if isinstance(params, StandardSolidParams):
            k1, k2 = params.k1, params.k2
            return cls.sls(k1, params.b / (k1 + k2), k2 / (k1 + k2))
        raise ConfigError(f"no kernel mapping for {type(params).__name__}")


def _rk4_increment(A: np.ndarray, c: np.ndarray, h: float):
    """One classical RK4 step of ``y' = A y + c`` as ``y <- y + (D y + q)``.

    ``D = M + M^2/2 + M^3/6 + M^4/24`` with ``M = h A`` is kept as the
    increment itself: storing ``I + D`` would round every step by an ulp of
    ``y``, which accumulates over thousands of steps.
    """
    M, eye = h * A, np.eye(len(c))
    phi = eye + M @ (eye / 2.0 + M @ (eye / 6.0 + M / 24.0))
    return M @ phi, h * (phi @ c)


def _step_zero(A, c, fvec, y, dt: float) -> float:
    """Fraction ``s`` of an RK4 step from ``y`` at which the step's force is zero.

    The step over ``h`` adds ``sum_{k=1..4} h^k / k! A^(k-1) (A y + c)`` to
    ``y`` (:func:`_rk4_increment`), so the force ``fvec @`` the state after
    ``s dt`` is a quartic in ``s``, solved by Brent on ``[0, 1]``.  A force
    that is not positive at ``s = 0`` ends the contact there, and one still
    positive at ``s = 1`` ends it at the step's end.
    """
    f0 = float(fvec @ y)
    if not f0 > 0.0:
        return 0.0
    us = [A @ y + c]  # A^(k-1) (A y + c) for k = 1 .. 4, and no unused A^5 to overflow
    for _ in range(3):
        us.append(A @ us[-1])
    a1, a2, a3, a4 = (float(fvec @ u) * dt**k / math.factorial(k) for k, u in enumerate(us, 1))

    def force(s: float) -> float:
        return f0 + s * (a1 + s * (a2 + s * (a3 + s * a4)))

    f1 = force(1.0)
    return 1.0 if f1 > 0.0 else _root(force, 0.0, 1.0, f1)


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


def _integrate_linear(kernel, m, v0, system, dt, horizon):
    """March RK4 on ``system = (A, c, fvec)`` until the force returns to zero after its rise.

    The step map's powers for 1 .. ``_BLOCK`` steps, ``[D_s, S_s]``, and
    those of the block map for 1 .. ``_BATCH`` blocks, ``(P_b, R_b)``, are
    both built by doubling.  A batch's block starts are exact
    increment-form states, ``y + (P_b y + R_b)`` from the batch start, in
    one product.  Its nodes are not kept as states: ``W`` maps an
    augmented state ``[y, 1]`` to the dimensional columns x, x', x'' and
    F, and ``G[:, :, s] = W [[I + D_s, S_s], [0, 1]]``, so the block
    starts times ``G`` give every node of the batch.  A first pass keeps
    each batch's block starts and forms only its F column, with ``G[3]``;
    once the contact end is found, a second writes each node once into
    columns of the contact's exact size by the same products.

    The bracketing step is the first whose F column entry is ``<= 0``
    after the rise: it comes from the sign of the folded column, not of
    ``fvec @ y``.  The state at its start is rebuilt from its block start,
    ``y + (D_t y + S_t)``, and :func:`_step_zero` finds the fraction of
    the step where that step's own force polynomial is zero; the terminal
    state is the partial Runge-Kutta step there, so its force is zero to
    rounding.  The folded column and the rebuilt force round differently,
    so at a step end whose force is within rounding of zero the two may
    disagree in sign.  That end is then the contact end: the trajectory
    stops at it with no repeated time, and ``t_c`` can differ by one step
    from a march that took the sign from ``fvec @ y``.
    """
    A, c, fvec = system
    n = c.size
    Ds, Ss = _step_powers(*_rk4_increment(A, c, dt), _BLOCK)
    DS = np.concatenate([Ds, Ss[:, :, None]], axis=2)  # DS[s] = [D_s, S_s]
    P, R = _step_powers(Ds[-1], Ss[-1], _BATCH)
    P = P.reshape(-1, n)
    # The dimensional columns of an augmented state [y, 1].
    sx, sv, sa, alpha, sF = _column_scales(kernel, m, v0)
    W = np.zeros((4, n + 1))
    W[0, 0] = sx
    W[1, 1] = sv
    W[2, :n] = -(sa * alpha) * fvec
    W[2, n] = sa * c[1]
    W[3, :n] = sF * fvec
    G = np.ascontiguousarray((W + W[:, :n] @ DS).transpose(1, 2, 0))

    n_max = int(math.ceil(horizon / dt)) + 1
    size = _BLOCK * _BATCH  # nodes per batch
    # The batch start, then the end of each of its blocks, each with a trailing 1.
    bounds = np.ones((_BATCH + 1, n + 1))
    bounds[0, :n] = 0.0
    bounds[0, 1] = 1.0
    node0 = W @ bounds[0]
    started = node0[3] > 0.0
    batches, fs = [], np.empty(size)
    i = 0  # node index of the batch start
    while i < n_max:
        batches.append(bounds)
        y = bounds[0, :n]
        bounds[1:, :n] = y + ((P @ y).reshape(_BATCH, n) + R)
        np.matmul(bounds[:-1], G[3], out=fs.reshape(_BATCH, _BLOCK))
        k = min(size, n_max - i)
        j, started = _first_return(fs[:k], started)
        if j is not None:
            break
        i += k
        bounds = np.ones_like(bounds)
        bounds[0] = batches[-1][-1]
    else:
        raise _no_separation(horizon)

    # The last node with a positive F column, t steps into block b.
    b, t = divmod(j, _BLOCK)
    y0 = bounds[b, :n] + DS[t - 1] @ bounds[b] if t else bounds[b, :n]
    s = _step_zero(A, c, fvec, y0, dt)
    end = kernel.tau_R * ((i + j) * dt + s * dt)
    # An end that rounds onto node i + j takes that node's place.
    N = i + j + 1 + (end > kernel.tau_R * ((i + j) * dt))
    cols = np.empty((4, N))
    cols[:, 0] = node0
    for lo, starts in zip(range(1, i + 1, size), batches[:-1]):
        np.matmul(starts[:-1], G, out=cols[:, lo : lo + size].reshape(4, _BATCH, _BLOCK))
    cols[:, i + 1 :] = np.matmul(bounds[:-1], G).reshape(4, size)[:, : N - 1 - i]
    D_s, q_s = _rk4_increment(A, c, s * dt)
    cols[:, N - 1] = W @ np.append(y0 + (D_s @ y0 + q_s), 1.0)
    times = np.arange(N, dtype=float)
    times *= dt
    times *= kernel.tau_R
    times[-1] = end
    x, xdot, xddot, F = cols
    return Trajectory(times=times, x=x, xdot=xdot, xddot=xddot, F=F)


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


def _column_scales(kernel, m, v0):
    """Factors from scaled nodes to the dimensional columns.

    Returns ``(sx, sv, sa, alpha, sF)``: ``x = sx xi``, ``xdot = sv xi'``,
    ``xddot = sa (gamma - alpha f)`` and ``F = sF f`` for the scaled force f.
    """
    tau_R = kernel.tau_R
    return v0 * tau_R, v0, v0 / tau_R, kernel.alpha_per_mass / m, kernel.k0 * v0 * tau_R


def _trajectory(kernel, m, v0, gamma, tau, xi, dxi, f):
    """Dimensional trajectory from scaled nodes: time, ``xi``, ``xi'`` and force."""
    sx, sv, sa, alpha, sF = _column_scales(kernel, m, v0)
    return Trajectory(
        times=kernel.tau_R * tau,
        x=sx * xi,
        xdot=sv * dxi,
        xddot=sa * (gamma - alpha * f),
        F=sF * f,
    )


def _no_separation(horizon: float) -> NoSeparationError:
    return NoSeparationError(
        f"force never returned to zero within the horizon ({horizon:.6g} scaled time units)"
    )


def _resolve_grid(kernel, m, dt_scaled, A):
    """Step and horizon in scaled time; ``A`` is the state matrix, None for a table."""
    half_period = math.pi / math.sqrt(kernel.alpha_per_mass / m)
    dt = DEFAULT_DT_FRACTION * half_period if dt_scaled is None else dt_scaled
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ConfigError(f"dt_scaled must be positive, got {dt!r}")
    horizon, rate = HORIZON_HALF_PERIODS * half_period, 0.0  # a table keeps the nominal step
    if A is not None:
        if not np.isfinite(A).all():
            raise ConfigError("the kernel's state equation has a rate beyond the float range")
        ev = np.linalg.eigvals(A)
        rate = max(map(abs, ev.tolist()))
        dt = min(dt, _DEFAULT_STEP_RATE / rate) if dt_scaled is None else dt
        # Near critical damping the contact outlasts the nominal half
        # periods; give it a whole period of the slowest oscillating mode,
        # or with none ten time constants of the slowest decay (a
        # three-element contact at D <= 0 ends within two), within the step cap.
        osc = np.abs(ev.imag)
        reach = (2.0 * math.pi / np.min(osc, where=osc > 0.0, initial=np.inf) if osc.any()
                 else 10.0 / np.min(-ev.real, where=ev.real < 0.0, initial=np.inf))
        horizon = max(horizon, min(reach, (MAX_SCAN_SAMPLES - 1) * dt))
    if not (horizon > dt):
        raise ConfigError(f"the horizon {horizon:.6g} must exceed the step size {dt:.6g}")
    if not rate * dt <= _MAX_STEP_RATE:
        raise ConfigError(f"step {dt:.6g} at the state equation's fastest rate {rate:.6g} "
                          f"is past the {_MAX_STEP_RATE} / rate that RK4 keeps stable")
    steps = horizon / dt
    if not steps <= MAX_SCAN_SAMPLES:
        raise ConfigError(
            f"horizon {horizon:.6g} at step {dt:.6g} needs {steps:.3g} steps, "
            f"more than the {MAX_SCAN_SAMPLES:.3g} allowed"
        )
    return dt, horizon


def _integrate(kernel, m, v0, g, dt_scaled):
    if not isinstance(kernel, RelaxationKernel):
        raise ConfigError("kernel must be a RelaxationKernel")
    for name, value in (("m", m), ("v0", v0)):
        if not (value > 0.0) or not math.isfinite(value):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if not (g >= 0.0) or not math.isfinite(g):
        raise ConfigError(f"g must be nonnegative and finite, got {g!r}")
    alpha = kernel.alpha_per_mass / m
    if not ALPHA_RANGE[0] <= alpha <= ALPHA_RANGE[1]:
        raise ConfigError(f"alpha = k0 tau_R**2 / m = {alpha!r} lies outside {ALPHA_RANGE}")
    if kernel.kind == "table":
        dt, horizon = _resolve_grid(kernel, m, dt_scaled, None)
        return _integrate_table(kernel, m, v0, g, dt, horizon)
    system = _linear_system(kernel, m, v0, g)
    dt, horizon = _resolve_grid(kernel, m, dt_scaled, system[0])
    return _integrate_linear(kernel, m, v0, system, dt, horizon)


def integrate_impact(
    kernel: RelaxationKernel,
    m: float,
    v0: float,
    dt_scaled: float | None = None,
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
        Defaults to 1e-4 of the nominal half period ``pi / sqrt(alpha)``,
        capped for exponential-sum and spring-dashpot kernels at
        ``0.5 / rho(A)``, the spectral radius of the state matrix; a step
        with ``rho(A) dt_scaled > 2.5`` is refused, past RK4's stability.

    The horizon, past which the call gives up, is ten nominal half periods.
    For exponential-sum and spring-dashpot kernels it stretches to one
    period of the slowest oscillating mode of the state equation, or with
    none to ten time constants of its slowest decay, as far as
    ``models.MAX_SCAN_SAMPLES`` steps allow.

    Returns
    -------
    Trajectory
        Node samples up to contact end, including the refined final instant.

    Raises
    ------
    ConfigError
        For a ``kernel`` that is not a :class:`RelaxationKernel`, a
        non-finite or non-positive ``m``, ``v0`` or ``dt_scaled``, a ``g``
        (given to :func:`integrate_impact_with_gravity`) that is negative or
        not finite, an ``alpha`` outside ``ALPHA_RANGE`` (1e-150 to 1e150),
        a state matrix that is not finite, a horizon that does
        not exceed the step, a step past ``2.5 / rho(A)``, or a horizon that
        needs more than ``models.MAX_SCAN_SAMPLES`` steps of ``dt_scaled``.
    NoSeparationError
        When the force has not returned to zero by the end of the horizon.
    """
    return _integrate(kernel, m, v0, 0.0, dt_scaled)


def integrate_impact_with_gravity(
    kernel: RelaxationKernel,
    m: float,
    v0: float,
    g: float,
    dt_scaled: float | None = None,
) -> Trajectory:
    """Same as :func:`integrate_impact` with gravity acting during contact.

    With ``g = 0`` the result is identical bit for bit to the zero-gravity
    entry point.
    """
    return _integrate(kernel, m, v0, g, dt_scaled)
