"""Parameter types, derived nondimensional groups, and shared result types.

Three lumped-parameter contact models are supported: a spring in parallel
with a dashpot (Kelvin-Voigt), a spring in series with a dashpot (Maxwell),
and a three-element standard solid that interpolates between the two.
Every model-specific module consumes the types defined here.

Scaling conventions used throughout the package: durations are compared as
``omega0 * t``, displacements as ``x * omega0 / v0``, and forces as
``F / (m * v0 * omega0)``, where ``omega0`` is the relevant undamped
frequency and ``v0`` the incoming velocity.  Each model solves its impact
in one time unit ``T``: ``1 / omega0`` for the pairs, whose closed forms
then read the loss factor alone, and ``tau_R`` for the three-element
solid.  ``_modal.dimensional`` alone scales the answers back, times by
``T``, depths by ``v0 T`` and forces by ``m v0 / T``, and refuses an answer
that is not finite.  :func:`_formula` alone forms every group and scale.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import functools
import json
import math
import operator
import os
import stat
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ParseError

__all__ = [
    "DEFAULT_SAMPLES",
    "DerivedGroups",
    "KelvinVoigtParams",
    "MaxwellParams",
    "StandardSolidParams",
    "Trajectory",
    "ImpactMetrics",
    "derive_kv",
    "derive_maxwell",
    "derive_sls",
    "convert_configurations",
    "load_kv_params",
    "load_maxwell_params",
    "load_sls_params",
    "load_flat_json",
    "read_numeric_csv",
    "write_csv_rows",
]

DEFAULT_SAMPLES = 1000

TRAJECTORY_HEADER = ("t", "x", "xdot", "xddot", "F")

# 17 significant digits round-trip an IEEE double exactly.
_FLOAT_FMT = "%.17g"
# Rows formatted per write: bounds the text and scratch arrays held at once.
_CSV_BLOCK_ROWS = 512


@dataclass(frozen=True)
class DerivedGroups:
    """Nondimensional groups derived from a parameter set.

    Fields that do not apply to a given model are ``None`` rather than NaN
    so that accidental use fails loudly.

    Attributes
    ----------
    omega0 : float
        Undamped angular frequency.  For the standard solid this is the
        instantaneous-stiffness frequency ``sqrt(k0 / m)``.
    eta : float or None
        Kelvin-Voigt loss factor ``b / (2 sqrt(k m))``.
    zeta : float or None
        Maxwell loss factor ``k / (2 omega0 b)``.
    rho : float or None
        Stiffness ratio ``k_inf / k0`` of the standard solid.
    Lambda : float or None
        Stiffness-relaxation group ``(k0 / m) * tau_R**2``.
    tau_R : float or None
        Relaxation time ``b / (k1 + k2)`` of the standard solid.

    The drop's weight is no group here: ``_modal.scaled_weight`` forms
    ``gamma = g T / v0``, for the pairs the paper's ``eps0 = g / (omega0 v0)``.
    """

    omega0: float
    eta: float | None = None
    zeta: float | None = None
    rho: float | None = None
    Lambda: float | None = None
    tau_R: float | None = None


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if value < 0.0 or not math.isfinite(value):
        raise DomainError(f"{name} must be nonnegative and finite, got {value!r}")


@functools.cache
def _formula(text: str):
    """The one checked evaluator, compiled once, of ``"name = expression"`` over names,
    integer constants and ``pi`` by ``+``, ``*``, ``/``, ``**`` and an outermost ``sqrt``:
    the float evaluation bit for bit where every intermediate is normal or a zero of a zero
    operand, else the exact value correctly rounded; :class:`DomainError` naming the text
    where that passes the largest float.  A group read by another is its rounded float."""
    tree = ast.parse(text.rpartition(" = ")[2], mode="eval").body
    radicand = tree.args[0] if isinstance(tree, ast.Call) else tree
    code = compile(ast.Expression(radicand), text, "eval")
    names, steps, checks = {}, [], []

    def emit(node) -> str:
        if isinstance(node, ast.Name) and node.id != "pi":
            names.setdefault(node.id)
        if not isinstance(node, ast.BinOp):
            return ast.unparse(node)
        a, b, step = emit(node.left), emit(node.right), f"_{len(steps)}"
        node.left, node.right = ast.Name(a), ast.Name(b)  # compiled already
        steps.append(f"        {step} = {ast.unparse(node)}\n")
        checks.append(f"({sys.float_info.min!r} <= {step} <= {sys.float_info.max!r}"
                      f" or {step} == 0 in ({a}, {b}))")
        return step

    result, args = emit(radicand), ", ".join(names)

    def exact(*values: float) -> float:
        try:
            q = eval(code, dict(zip(names, map(Fraction, values)), pi=Fraction(math.pi)))
            if radicand is not tree:
                # Floats' rounding boundaries are multiples of 2**-1075, so none lies strictly
                # between r = floor(sqrt(q) 2**1075) and r + 1: r + 1/2 rounds as the root.
                n, d = q.numerator << 2150, q.denominator
                r = math.isqrt(n // d)
                q = Fraction(2 * r + (r * r * d != n), 1 << 1076)
            return float(q)
        except ArithmeticError:  # past the largest float, a division by 0, Fraction(inf)
            at = ", ".join(f"{name} = {v!r}" for name, v in zip(names, values))
            raise DomainError(f"{text} leaves the float range at {at}") from None

    namespace = {"pi": math.pi, "sqrt": math.sqrt, "exact": exact}
    exec(f"def evaluate({args}):\n    try:\n{''.join(steps)}        if {' and '.join(checks)}:\n"
         f"            return {'' if radicand is tree else 'sqrt'}({result})\n"
         f"    except ArithmeticError:\n        pass\n    return exact({args})\n", namespace)
    return namespace["evaluate"]


# The one domain of each nondimensional group: (test that fails on NaN, words).
_GROUP_DOMAINS = {
    "eta": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "zeta": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "rho": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "Lambda": (lambda v: 0.0 < v < math.inf, "be positive and finite"),
    "eps0": (lambda v: 0.0 <= v < math.inf, "be nonnegative and finite"),
}


def _check_groups(where: str = "", **groups: float) -> None:
    """Raise :class:`DomainError` for the first of ``groups`` outside its domain,
    naming ``where`` when given and the group otherwise."""
    for name, value in groups.items():
        inside, words = _GROUP_DOMAINS[name]
        if not inside(value):
            raise DomainError(f"{where or name} must {words}, got {value!r}")


def _check_sls_groups(Lambda: float, rho: float) -> None:
    _check_groups(rho=rho, Lambda=Lambda)
    if not Lambda * rho > 0.0:
        raise DomainError(f"Lambda * rho underflows to 0 (Lambda = {Lambda!r}, rho = {rho!r})")


# Largest sampled grid, in samples, for the CLI's trajectories and the
# oracle's steps; longer ones would allocate hundreds of megabytes or more.
MAX_SCAN_SAMPLES = 10_000_000


def _uniform_grid(lo: float, hi: float, n_samples: int) -> np.ndarray:
    """``n_samples`` equally spaced values from ``lo`` to ``hi``, both included.

    Bit for bit ``np.linspace(lo, hi, n_samples)`` for finite ``0 <= lo < hi``,
    by its own arithmetic without its call overhead, its rule where the step
    underflows to 0 included; but ``hi`` is stored, never formed as ``(n - 1)
    step``, which can overflow.  Raises :class:`ConfigError` unless
    ``n_samples`` is an integer from 2 to ``MAX_SCAN_SAMPLES``.
    """
    try:
        n = operator.index(n_samples)
    except TypeError:
        raise ConfigError(f"n_samples must be an integer, got {n_samples!r}") from None
    if not 2 <= n <= MAX_SCAN_SAMPLES:
        raise ConfigError(f"n_samples must lie in [2, {MAX_SCAN_SAMPLES:.3g}], got {n}")
    grid = np.arange(n, dtype=float)
    head = grid[:-1]
    step = (hi - lo) / (n - 1)
    if step:
        head *= step
    else:  # np.linspace's order where the step underflows to 0
        head /= n - 1
        head *= hi - lo
    if lo:
        head += lo
    grid[-1] = hi
    return grid


@dataclass(frozen=True)
class KelvinVoigtParams:
    """Spring-dashpot pair in parallel, impacted by a rigid mass.

    Parameters
    ----------
    m : float
        Impactor mass.
    k : float
        Spring stiffness.
    b : float
        Dashpot coefficient.  ``b = 0`` is the elastic limit.
    v0 : float
        Incoming velocity at first contact.
    g : float, optional
        Gravitational acceleration acting during contact.  Zero by default.

    Notes
    -----
    Derived groups are computed eagerly at construction and cached on the
    ``derived`` attribute.  Construction fails with :class:`DomainError`
    for overdamped pairs (loss factor at or above one).
    """

    m: float
    k: float
    b: float
    v0: float
    g: float = 0.0
    derived: DerivedGroups = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_positive("m", self.m)
        _require_positive("k", self.k)
        _require_nonnegative("b", self.b)
        _require_positive("v0", self.v0)
        _require_nonnegative("g", self.g)
        object.__setattr__(self, "derived", derive_kv(self))


@dataclass(frozen=True)
class MaxwellParams:
    """Spring and dashpot in series, impacted by a rigid mass.

    Any loss factor ``zeta = k / (2 omega0 b)`` in the float range constructs; from 1
    on the impactor never separates, and every solution raises :class:`PlasticImpactError`.
    """

    m: float
    k: float
    b: float
    v0: float
    g: float = 0.0
    derived: DerivedGroups = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_positive("m", self.m)
        _require_positive("k", self.k)
        _require_positive("b", self.b)
        _require_positive("v0", self.v0)
        _require_nonnegative("g", self.g)
        object.__setattr__(self, "derived", derive_maxwell(self))


@dataclass(frozen=True)
class StandardSolidParams:
    """Three-element solid: spring ``k1`` in series with a parallel
    spring-dashpot pair ``(k2, b)``.

    The instantaneous stiffness is ``k0 = k1`` and the long-time stiffness
    is ``k_inf = k1 k2 / (k1 + k2)``.  The equivalent parallel configuration
    (spring ``kappa1`` in parallel with a spring ``kappa2`` in series with a
    dashpot ``beta_dashpot``) maps onto these fields through
    :func:`convert_configurations`.  ``g`` is the gravitational
    acceleration of a drop, zero by default.
    """

    m: float
    k1: float
    k2: float
    b: float
    v0: float
    g: float = 0.0
    derived: DerivedGroups = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_positive("m", self.m)
        _require_positive("k1", self.k1)
        _require_positive("k2", self.k2)
        _require_positive("b", self.b)
        _require_positive("v0", self.v0)
        _require_nonnegative("g", self.g)
        object.__setattr__(self, "derived", derive_sls(self))

    @property
    def k0(self) -> float:
        """Instantaneous stiffness."""
        return self.k1

    @property
    def k_inf(self) -> float:
        """Long-time (relaxed) stiffness."""
        return _formula("k_inf = k1 * k2 / (k1 + k2)")(k1=self.k1, k2=self.k2)


def derive_kv(params: KelvinVoigtParams) -> DerivedGroups:
    """Derive the nondimensional groups of a spring-dashpot parallel pair.

    Returns
    -------
    DerivedGroups
        With ``omega0 = sqrt(k/m)`` and loss factor ``eta = b / (2m) / omega0``.

    Raises
    ------
    DomainError
        If ``eta >= 1`` (no oscillatory rebound), or if ``omega0`` or ``eta``
        passes the largest float (:func:`_formula`).
    """
    omega0 = _formula("omega0 = sqrt(k / m)")(k=params.k, m=params.m)
    eta = _formula("loss factor eta = b / (2 * m) / omega0")(b=params.b, m=params.m, omega0=omega0)
    if not eta < 1.0:
        raise DomainError(
            f"loss factor eta = {eta:.6g} is >= 1: the pair is overdamped "
            "and the oscillatory solution does not apply"
        )
    return DerivedGroups(omega0=omega0, eta=eta)


def derive_maxwell(params: MaxwellParams) -> DerivedGroups:
    """Derive the nondimensional groups of a spring-dashpot series pair: ``omega0`` and the
    loss factor ``zeta = k / (2 omega0 b)``, 1 and above kept, for :mod:`.maxwell` to prove
    plastic.  :class:`DomainError` where either passes the largest float."""
    omega0 = _formula("omega0 = sqrt(k / m)")(k=params.k, m=params.m)
    zeta = _formula("loss factor zeta = k / (2 * omega0 * b)")(
        k=params.k, omega0=omega0, b=params.b)
    return DerivedGroups(omega0=omega0, zeta=zeta)


def derive_sls(params: StandardSolidParams) -> DerivedGroups:
    """Derive the groups of the three-element solid.

    ``omega0 = sqrt(k0/m)`` uses the instantaneous stiffness, matching
    ``Lambda = (k0/m) * tau_R**2 = (omega0 * tau_R)**2``.  The stiffness
    ratio ``rho = k_inf / k0`` lies strictly inside (0, 1) for positive
    springs.  Raises :class:`DomainError` where a group passes the largest
    float, when ``tau_R`` rounds to 0, when ``rho`` or ``Lambda`` leaves its
    domain, or when ``Lambda * rho`` underflows.
    """
    omega0 = _formula("omega0 = sqrt(k1 / m)")(k1=params.k1, m=params.m)
    tau_R = _formula("tau_R = b / (k1 + k2)")(b=params.b, k1=params.k1, k2=params.k2)
    _require_positive("tau_R = b / (k1 + k2)", tau_R)
    rho = _formula("rho = k1 * k2 / (k1 + k2) / k1")(k1=params.k1, k2=params.k2)
    Lambda = _formula("Lambda = k1 / m * tau_R * tau_R")(k1=params.k1, m=params.m, tau_R=tau_R)
    _check_sls_groups(Lambda, rho)
    return DerivedGroups(omega0=omega0, rho=rho, Lambda=Lambda, tau_R=tau_R)


def convert_configurations(
    kappa1: float, kappa2: float, beta_dashpot: float
) -> tuple[float, float, float]:
    """Map the parallel three-element configuration onto the series one.

    The configuration with spring ``kappa1`` in parallel with a Maxwell arm
    (spring ``kappa2`` in series with dashpot ``beta_dashpot``) responds
    identically to the series configuration returned here: both share the
    instantaneous stiffness ``kappa1 + kappa2``, the long-time stiffness
    ``kappa1`` and the relaxation time ``beta_dashpot / kappa2``.

    Returns
    -------
    tuple of float
        ``(k1, k2, b)`` of the equivalent series configuration.

    Raises
    ------
    DomainError
        When an input is not positive and finite, or a result passes the largest float.
    """
    _require_positive("kappa1", kappa1)
    _require_positive("kappa2", kappa2)
    _require_positive("beta_dashpot", beta_dashpot)
    return (_formula("k1 = kappa1 + kappa2")(kappa1=kappa1, kappa2=kappa2),
            _formula("k2 = (kappa1 + kappa2) * kappa1 / kappa2")(kappa1=kappa1, kappa2=kappa2),
            _formula("b = beta * (kappa1 + kappa2) ** 2 / kappa2 ** 2")(
                beta=beta_dashpot, kappa1=kappa1, kappa2=kappa2))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled contact history.

    Attributes
    ----------
    times : ndarray
        Sample instants, starting at exactly zero and ending at the contact
        duration.
    x, xdot, xddot : ndarray
        Indentation depth and its first two time derivatives.
    F : ndarray
        Contact force carried by the element at each sample.
    """

    times: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    xddot: np.ndarray
    F: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "x", "xdot", "xddot", "F"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.times.size
        if n < 2:
            raise ConfigError("a trajectory needs at least two samples")
        for name in ("x", "xdot", "xddot", "F"):
            if getattr(self, name).size != n:
                raise ConfigError(f"array {name!r} length differs from times")
        if self.times[0] != 0.0:
            raise ConfigError("trajectory must start at t = 0")

    @property
    def t_c(self) -> float:
        """Contact duration (the final sample instant)."""
        return float(self.times[-1])

    def to_csv(self, path: str | Path) -> None:
        """Write the samples to ``path`` with a fixed five-column header.

        Values carry 17 significant digits, enough to round-trip doubles
        bit-exactly through :meth:`from_csv`.  An existing file is overwritten in
        place and cut to length; a process killed mid-write can leave its old tail.
        """
        with _open_output(path) as fh:
            _write_csv_columns(
                fh, TRAJECTORY_HEADER, (self.times, self.x, self.xdot, self.xddot, self.F)
            )

    @classmethod
    def from_csv(cls, path: str | Path) -> "Trajectory":
        """Read a trajectory written by :meth:`to_csv`."""
        return cls(*read_numeric_csv(path, TRAJECTORY_HEADER).T)


@contextlib.contextmanager
def _open_output(path: str | Path):
    """Open ``path`` to write text in place: every ``--out`` and :meth:`Trajectory.to_csv`.

    An existing file is not truncated at open, which on some file systems
    (ext4) frees its blocks and starts writeback at close: 0.4-1.7 ms a write.
    On close a regular file (not the null device, a FIFO or a terminal) is
    cut to the written length, keeping its inode, links and mode.  A process
    killed mid-write can leave the old file's tail after the new head.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline="") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()  # flushes, then cuts at the written length


def write_csv_rows(stream, header, rows) -> None:
    """Write ``header`` and then ``rows`` to an open text stream as CSV.

    ``rows`` is either a 2-D float array, written as its columns are, with
    the digits found by the array a block of rows at a time (see
    :func:`_write_csv_columns`), or an iterable of rows whose cells may be
    text, with each float formatted by its own ``%``.  Floats carry 17
    significant digits (``"%.17g"``), so :func:`read_numeric_csv` reads them
    back bit-exactly; other values are written as they are.  Both forms
    give the bytes ``csv.writer`` gives over ``"%.17g" % v`` cells.
    """
    if isinstance(rows, np.ndarray):
        _write_csv_columns(stream, header, rows.T)
        return
    writer = csv.writer(stream)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_FLOAT_FMT % v if isinstance(v, float) else v for v in row])


def _write_csv_columns(stream, header, columns) -> None:
    """Write ``header`` and then equal-length float ``columns`` as CSV rows.

    Rows are stacked ``_CSV_BLOCK_ROWS`` at a time, and :func:`_format_cells`
    writes each block's ``"%.17g"`` text with NumPy operations on the whole
    block, so no copy of the whole table is made.
    """
    csv.writer(stream).writerow(header)
    # "%.17g" never yields a delimiter, quote or line break, so no cell
    # needs quoting and the writer's "\r\n" ends every row.
    n_rows = len(columns[0]) if len(columns) else 0
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
        stream.write(_format_cells(block))


# Decimal exponents X of the tables: every double's (-324 to 308), with one
# to spare on each side for a first guess that is corrected.
_X_MIN, _X_MAX = -325, 309
# Veltkamp's splitting constant 2**27 + 1: halves a double's 53-bit significand.
_SPLIT = 134217729.0
# A scaled value whose fraction lies this close to 1/2 may be an exact tie.
_TIE_WIDTH = 1e-9
# Cell classes: 0..20 fixed notation with exponent X = class - 4, then a two-
# and a three-digit exponent, zero, and a cell that "%" formats.
_EXP2, _EXP3, _ZERO, _MARK = 21, 22, 23, 24
_N_CLASSES = 25


@functools.cache
def _csv_tables() -> dict[str, np.ndarray]:
    """Lookup tables of :func:`_format_cells`, built once on its first use.

    Indexed by ``X - _X_MIN``: ``10**(16 - X) = (h + low) * 2**shift`` from
    exact integers, with ``h`` in [1, 2] correctly rounded and ``low`` the
    rounded rest; the word ``e±EEE``; the cell class.  The other words are
    8-byte pieces of the 48-byte cell template, in native byte order.
    """
    xs = np.arange(_X_MIN, _X_MAX + 1)
    h, low, shift = np.empty(xs.size), np.empty(xs.size), np.empty(xs.size, np.int32)
    for i, x in enumerate(xs.tolist()):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num < den:
            num, e = num << 1, e - 1
        h[i] = num / den  # int division rounds correctly
        low[i] = (num * 2**52 - int(h[i] * 2**52) * den) / (den * 2**52)
        shift[i] = e
    c = h * _SPLIT
    h_hi = c - (c - h)

    digits = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    quad = np.full((10_000, 8), ord("."), np.uint8)
    quad[:, 0::2] = digits + ord("0")
    # Place in the 17 digits of the last nonzero digit of each four-digit
    # group g1..g4 (digits 2-5, ..., 14-17), or at most 1 for "0000".
    last = np.where(digits != 0, np.arange(1, 5, dtype=np.int8), np.int8(-20)).max(axis=1)
    last = last + np.array([[1], [5], [9], [13]], np.int8)
    last[0, 0] = 1

    # keep[sign, class, significant digits, byte] of the cell template.
    b = np.arange(48)
    sign = np.arange(2)[:, None, None, None]
    cls = np.arange(_N_CLASSES)[None, :, None, None]
    sig = np.arange(18)[None, None, :, None]
    x = cls - 4
    fixed = cls <= 20
    numeric = cls <= _EXP3
    place = (b - 6) // 2 + 1  # digit place of bytes 6..39 and of the dot slot after it
    shown = np.where(fixed, np.maximum(sig, x + 1), sig)
    point = np.where(fixed, x + 1, 1)
    keep = (
        (b == 0) & ((sign == 1) | (cls == _MARK))
        | (b >= 1) & (b <= 1 - x) & fixed & (x < 0)
        | (b == 1) & (cls == _ZERO)
        | (b >= 6) & (b < 40) & (b % 2 == 0) & (place <= shown) & numeric
        | (b >= 7) & (b < 40) & (b % 2 == 1) & (place == point) & (shown > point) & numeric
        | np.isin(b, (40, 41, 43, 44)) & ((cls == _EXP2) | (cls == _EXP3))
        | (b == 42) & (cls == _EXP3)
        | (b == 45) | (b == 46)
    )

    def words(data: bytes) -> np.ndarray:
        return np.frombuffer(data, np.uint64)

    tables = {
        "h": h, "h_hi": h_hi, "h_lo": h - h_hi, "low": low, "shift": shift,
        "expo": words(b"".join(b"e%+04d\0\0\0" % x for x in xs.tolist())),
        "x_class": np.where(
            (xs >= -4) & (xs <= 16), xs + 4, np.where(np.abs(xs) < 100, _EXP2, _EXP3)
        ),
        "lead": words(b"".join(b"-0.000%d." % d for d in range(10))),
        "quad": quad.view(np.uint64).ravel(),
        "last": last,
        "mask": (keep.astype(np.uint8) * np.uint8(255)).view(np.uint64).reshape(-1, 6),
        "comma": words(b"\0\0\0\0\0,\0\0"),
        "crlf": words(b"\0\0\0\0\0\r\n\0"),
        "mark": words(b"\1\0\0\0\0\0\0\0"),
    }
    for table in tables.values():
        table.flags.writeable = False  # shared by every write in the process
    return tables


def _scaled(m, e, x, t):
    """``m * 2**e * 10**(16 - x)`` as an unevaluated sum ``hi + lo``.

    ``m * h`` is Dekker's exact product of Veltkamp halves; with ``m * low``
    added, the sum is within about 2**-47 of the exact value where that
    lies in [1e16, 1e17).
    """
    i = x - _X_MIN
    h, h_hi, h_lo = t["h"][i], t["h_hi"][i], t["h_lo"][i]
    c = m * _SPLIT
    m_hi = c - (c - m)
    m_lo = m - m_hi
    hi = m * h
    lo = ((m_hi * h_hi - hi) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo + m * t["low"][i]
    shift = t["shift"][i] + e
    np.ldexp(hi, shift, out=hi)
    np.ldexp(lo, shift, out=lo)
    total = hi + lo
    lo -= total - hi
    return total, lo


def _decimal(a, t):
    """17 significant digits of each finite positive ``a``, correctly rounded.

    Returns ``(D, X, decided)``: ``a`` rounds to ``D * 10**(X - 16)`` with
    ``D`` in [1e16, 1e17), except where ``decided`` is False.  The exponent
    is first guessed by ``log10`` and then corrected on the unrounded scaled
    value ``S = a * 10**(16 - X)``: its floor must lie in [1e16, 1e17).  ``D``
    is the nearest integer to ``S``, and a rounding up to 1e17 becomes 1e16
    with ``X + 1``.  ``S`` is known to about 2**-47, so where its fraction
    lies within ``_TIE_WIDTH`` of 1/2, which in practice only an exact tie
    of the 18th digit does, ``decided`` is False.
    """
    m, e = np.frexp(a)
    x = np.log10(a)
    x = np.floor(x, out=x).astype(np.intp)
    hi, lo = _scaled(m, e, x, t)
    below = (hi - 1e16) + lo < 0.0
    above = (hi - 1e17) + lo >= 0.0
    redo = np.flatnonzero(below | above)
    decided = np.ones(a.size, bool)
    if redo.size:
        x[redo] += above[redo].astype(np.intp) - below[redo]
        hi[redo], lo[redo] = _scaled(m[redo], e[redo], x[redo], t)
        lost = redo[((hi[redo] - 1e16) + lo[redo] < 0.0) | ((hi[redo] - 1e17) + lo[redo] >= 0.0)]
        decided[lost] = False  # never seen
        hi[lost], lo[lost] = 1e16, 0.0
    rounded = np.rint(lo)
    lo -= rounded
    decided &= np.abs(lo, out=lo) < 0.5 - _TIE_WIDTH
    d = hi.astype(np.int64)
    d += rounded.astype(np.int64)
    top = np.flatnonzero(d == 10**17)
    d[top] = 10**16
    x[top] += 1
    return d, x, decided


def _format_cells(block: np.ndarray) -> str:
    """The rows of a 2-D float ``block`` as CSV text, each cell ``"%.17g" % v``.

    The same bytes as ``%``, with the digits found by the array (after
    Adams, "Ryu revisited", OOPSLA 2019) by :func:`_decimal`.  Its powers of
    ten come from exact integers and span the decimal exponents -325 to 309,
    one past each end of the doubles' -324 to 308.  Tie rule: ``%`` rounds
    an exact tie of the 18th digit to even, and the scaled value is known to
    about 2**-47, so a cell whose scaled value lies within ``_TIE_WIDTH``
    (1e-9) of a half is formatted by ``"%.17g" % v`` itself, as are NaN and
    the infinities.  Zeros take the template.

    Each cell is cut from one 48-byte template: ``-``, ``0.000``, the 17
    digits each followed by a dot slot, ``e±EEE`` and the terminator (``,``
    or ``\r\n``).  A mask looked up by sign, exponent class and number of
    significant digits zeroes the bytes the cell does not show, and the
    zero bytes are then deleted in one pass.
    """
    t = _csv_tables()
    rows, cols = block.shape
    v = np.asarray(block, dtype=float).ravel()
    a = np.abs(v)
    zero = a == 0.0
    mark = ~np.isfinite(a)
    a[zero | mark] = 1.0
    d, x, decided = _decimal(a, t)
    mark |= ~decided

    lead = d // 10**16
    d -= lead * 10**16
    g1 = d // 10**12
    d -= g1 * 10**12
    g2 = d // 10**8
    d -= g2 * 10**8
    g3 = d // 10**4
    g4 = d - g3 * 10**4
    last = t["last"]
    sig = np.maximum(last[0][g1], last[1][g2])
    np.maximum(sig, last[2][g3], out=sig)
    np.maximum(sig, last[3][g4], out=sig)

    x -= _X_MIN
    cls = t["x_class"][x]
    cls[zero] = _ZERO
    cls[mark] = _MARK
    # Row of the mask table: (sign, class, significant digits 0..17).
    cls += np.signbit(v) * _N_CLASSES
    cls *= 18
    cls += sig

    cell = np.empty((v.size, 6), np.uint64)
    np.take(t["lead"], lead, out=cell[:, 0], mode="clip")
    for j, g in enumerate((g1, g2, g3, g4), start=1):
        np.take(t["quad"], g, out=cell[:, j], mode="clip")
    np.take(t["expo"], x, out=cell[:, 5], mode="clip")
    ends = np.full(cols, t["comma"][0])
    ends[-1] = t["crlf"][0]
    cell.reshape(rows, cols, 6)[:, :, 5] |= ends
    marked = np.flatnonzero(mark)
    cell[marked, 0] = t["mark"][0]
    cell &= np.take(t["mask"], cls, axis=0, mode="clip")
    text = cell.tobytes().translate(None, b"\0").decode("ascii")
    if not marked.size:
        return text
    pieces = [""] * (2 * marked.size + 1)
    pieces[0::2] = text.split("\1")
    pieces[1::2] = [_FLOAT_FMT % c for c in v[marked].tolist()]
    return "".join(pieces)


def read_numeric_csv(path: str | Path, header: tuple[str, ...]) -> np.ndarray:
    """Read a CSV file whose first line is ``header`` and whose cells are numbers.

    Blank lines are skipped.  The body is parsed by one ``np.loadtxt``
    call.  Only a body it rejects is read again row by row: that pass
    accepts what ``csv`` and ``float`` accept (quoted cells, ``1_0``) or
    reports the first bad row.

    Returns
    -------
    ndarray
        Shape ``(rows, len(header))``, also when the file holds only the
        header.

    Raises
    ------
    ParseError
        On text that is not UTF-8, an empty file, a header other than
        ``header``, a row with the wrong number of fields (with its row),
        or a cell that is not a number (with its row and column).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                found = tuple(next(reader))
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            if found != header:
                parts = [f"missing column {name!r}" for name in sorted(set(header) - set(found))]
                parts += [f"unknown column {name!r}" for name in sorted(set(found) - set(header))]
                if not parts:
                    # Same names: a permutation when the lengths agree, repeats otherwise.
                    same_length = len(found) == len(header)
                    parts.append(
                        "columns are out of order" if same_length else "columns are repeated"
                    )
                raise ParseError(
                    f"{path}: expected header {','.join(header)!r}, got {','.join(found)!r}: "
                    + "; ".join(parts)
                )
            try:
                with warnings.catch_warnings():
                    # A header-only file is valid: no rows, no warning.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if data.size == 0 or data.shape[1] == len(header):
                    return data.reshape(-1, len(header))
            # The diagnostic path: the same body again, row by row.
            fh.seek(0)
            next(reader)
            values: list[float] = []
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}: expected {len(header)} fields", row=i)
                try:
                    values.extend(map(float, row))
                except ValueError:
                    for name, cell in zip(header, row):
                        try:
                            float(cell)
                        except ValueError:
                            raise ParseError(
                                f"{path}: non-numeric value {cell!r}", row=i, column=name
                            ) from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    return np.array(values, dtype=float).reshape(-1, len(header))


@dataclass(frozen=True)
class ImpactMetrics:
    """Scalar outcomes of a single impact.

    Attributes
    ----------
    t_c : float
        Contact duration.
    e_star : float
        Coefficient of restitution (rebound speed over incoming speed).
    t_m, x_m : float
        Instant and value of the maximum indentation.
    t_M, F_M : float
        Instant and value of the maximum contact force.
    x_M : float
        Indentation at the force maximum.
    F_m : float
        Force at the indentation maximum.
    """

    t_c: float
    e_star: float
    t_m: float
    x_m: float
    t_M: float
    F_M: float
    x_M: float
    F_m: float


_PAIR_REQUIRED = frozenset({"m", "k", "b", "v0"})
_SLS_SERIES_REQUIRED = frozenset({"m", "k1", "k2", "b", "v0"})
_SLS_PARALLEL_REQUIRED = frozenset({"m", "kappa1", "kappa2", "beta", "v0"})
_GRAVITY = frozenset({"g"})


def _read_json_object(path: str | Path) -> dict:
    """The JSON object in the UTF-8 file ``path``, its keys each given once.

    Raises :class:`ConfigError` on text that is not UTF-8 or not JSON, on
    a repeated key, and on a top-level value that is not an object.
    """

    def no_repeats(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [key for key, _ in pairs]
            repeated = sorted({key for key in keys if keys.count(key) > 1})
            raise ConfigError(f"{path}: repeated keys {repeated}")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=no_repeats)
    except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a flat JSON object")
    return raw


def _number(where, key: str, value) -> float:
    """``value`` as a float if it is a JSON number (not a bool), else :class:`ConfigError`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ConfigError(f"{where}: key {key!r} must be a number, got {value!r}")


def _check_keys(where, present, required: frozenset[str], optional: frozenset[str]) -> None:
    """Refuse keys in ``present`` that are unknown, then keys missing from it."""
    unknown = present - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - present
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def load_flat_json(
    path: str | Path, required: frozenset[str], optional: frozenset[str] = frozenset()
) -> dict[str, float]:
    """Load a flat JSON object of numbers and check its keys.

    Parameters
    ----------
    path : str or Path
        UTF-8 JSON file holding one object whose values are all numbers.
    required : frozenset of str
        Keys that must be present.
    optional : frozenset of str, optional
        Keys that may be present.

    Raises
    ------
    ConfigError
        On text that is not UTF-8 or not JSON, a repeated key, a value that
        is not a number, or a key that is unknown or missing.
    """
    data = {key: _number(path, key, value) for key, value in _read_json_object(path).items()}
    _check_keys(path, data.keys(), required, optional)
    return data


def _load_pair(path: str | Path, cls):
    return cls(**load_flat_json(path, _PAIR_REQUIRED, _GRAVITY))


def load_kv_params(path: str | Path) -> KelvinVoigtParams:
    """Load spring-dashpot parallel parameters from a flat JSON object.

    Required keys are ``m, k, b, v0``; ``g`` is optional and defaults to
    zero.  Unknown keys are rejected.
    """
    return _load_pair(path, KelvinVoigtParams)


def load_maxwell_params(path: str | Path) -> MaxwellParams:
    """Load spring-dashpot series parameters from a flat JSON object.

    Same key set as :func:`load_kv_params`.
    """
    return _load_pair(path, MaxwellParams)


def load_sls_params(path: str | Path) -> StandardSolidParams:
    """Load three-element solid parameters from a flat JSON object.

    Two key sets are accepted: ``m, k1, k2, b, v0`` for the series
    configuration, or ``m, kappa1, kappa2, beta, v0`` for the parallel one
    (converted on load).  A file holding ``k1`` or ``k2`` is read in the
    first.  Either may add ``g``, which defaults to zero.  Unknown keys
    are rejected.
    """
    data = {key: _number(path, key, value) for key, value in _read_json_object(path).items()}
    series = "k1" in data or "k2" in data
    _check_keys(
        path, data.keys(), _SLS_SERIES_REQUIRED if series else _SLS_PARALLEL_REQUIRED, _GRAVITY
    )
    if not series:
        data["k1"], data["k2"], data["b"] = convert_configurations(
            data.pop("kappa1"), data.pop("kappa2"), data.pop("beta")
        )
    return StandardSolidParams(**data)
