"""In-memory spans around calls into the package's layers.

A span is ``(name, start, end, parent, op_id)``; the layer is the part of
the name before the first dot.  Spans are kept in a list and written out
once, when the run ends.  Untraced runs use :data:`NULL_TRACER`, whose
``span`` is a shared no-op context, so both modes run the same op code.

In traced mode only, :func:`wrapped` replaces a fixed set of module-level
names (:data:`WRAPPED_NAMES`) with thin span-recording wrappers and puts
the originals back afterwards.  Nothing in the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time

import visco_impact.cli as vi_cli
import visco_impact._search as vi_search
import visco_impact.kelvin_voigt as vi_kv
import visco_impact.maxwell as vi_mx
import visco_impact.models as vi_models
import visco_impact.standard_solid as vi_sls

# (module, attribute) pairs the traced run may replace; nothing else.
WRAPPED_NAMES = (
    ("kelvin_voigt", "first_force_zero"),
    ("maxwell", "first_force_zero"),
    ("standard_solid", "first_force_zero"),
    ("standard_solid", "golden"),
    ("_search", "minimize_scalar"),
    ("models.Trajectory", "to_csv"),
    ("cli", "_write_rows"),
)

# The seed's contact-end scan takes this many samples per oscillation
# period (``_search._SAMPLES_PER_PERIOD``); grid counts are derived from the
# ``period`` and ``horizon`` each call receives.
SEARCH_SAMPLES_PER_PERIOD = 400

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name, **counts):
        return _NULL

    def op(self, op_id):
        return _NULL


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans and per-span counts for one traced pass."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id, counts]
        self._local = threading.local()
        self._op_id = None
        self._op_root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, **counts):
        stack = self._stack()
        # Worker threads (the sweep pool) start with an empty stack; their
        # spans hang off the op that started them.
        parent = stack[-1] if stack else self._op_root
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self._op_id, counts]
        self.spans.append(rec)
        stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        self._op_id = op_id
        with self.span("op") as rec:
            self._op_root = len(self.spans) - 1
            try:
                yield rec
            finally:
                self._op_root = None
                self._op_id = None


def _search_wrapper(tr, orig):
    @functools.wraps(orig)
    def first_force_zero(force, period, horizon):
        n = max(int(round(SEARCH_SAMPLES_PER_PERIOD * horizon / period)),
                SEARCH_SAMPLES_PER_PERIOD) + 1
        with tr.span("_search.first_force_zero", grid_points=n) as rec:
            out = orig(force, period, horizon)
        rec[5]["returned"] = True
        return out

    return first_force_zero


def _plain_wrapper(tr, orig, name):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tr.span(name):
            return orig(*args, **kwargs)

    return wrapper


def _to_csv_wrapper(tr, orig):
    @functools.wraps(orig)
    def to_csv(self, path):
        with tr.span("models.to_csv", rows=int(self.times.size)) as rec:
            orig(self, path)
        rec[5]["bytes"] = os.path.getsize(path)

    return to_csv


@contextlib.contextmanager
def wrapped(tr):
    """Install the span wrappers for the duration of a traced pass."""
    targets = [
        (vi_kv, "first_force_zero", _search_wrapper(tr, vi_kv.first_force_zero)),
        (vi_mx, "first_force_zero", _search_wrapper(tr, vi_mx.first_force_zero)),
        (vi_sls, "first_force_zero", _search_wrapper(tr, vi_sls.first_force_zero)),
        (vi_sls, "golden", _plain_wrapper(tr, vi_sls.golden, "standard_solid.golden")),
        (vi_search, "minimize_scalar",
         _plain_wrapper(tr, vi_search.minimize_scalar, "_search.minimize_scalar")),
        (vi_models.Trajectory, "to_csv", _to_csv_wrapper(tr, vi_models.Trajectory.to_csv)),
        (vi_cli, "_write_rows", _plain_wrapper(tr, vi_cli._write_rows, "cli.write_rows")),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, fn in targets:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, orig in saved:
            setattr(obj, attr, orig)


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time per layer: span duration minus the part its children cover."""
    children = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = {}
    for idx, rec in enumerate(spans):
        if rec[0] == "op":
            continue
        covered = _union_length(
            (max(a, rec[1]), min(b, rec[2])) for a, b in children.get(idx, ()) if b > rec[1]
        )
        layer = rec[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (rec[2] - rec[1]) - covered
    return out


def coverage(spans):
    """Share of op wall time covered by the ops' direct layer spans."""
    op_time = covered = 0.0
    kids = {}
    for rec in spans:
        if rec[3] is not None and spans[rec[3]][0] == "op":
            kids.setdefault(rec[3], []).append((rec[1], rec[2]))
    for idx, rec in enumerate(spans):
        if rec[0] == "op":
            op_time += rec[2] - rec[1]
            covered += _union_length(kids.get(idx, ()))
    return covered / op_time if op_time else 0.0
