"""Span tracing of maglogic's public functions, installed from outside.

:func:`install` replaces the listed functions on their modules with
wrappers, so calls made inside a module (which look the name up in the
module's globals) are seen as well as calls from other modules. Each
call records one span (id, parent id, name, start, end, work) in memory;
:meth:`Tracer.dump` writes them out once at the end. Self time is a
span's duration minus the durations of its direct child spans.

``work`` is the number of field points x source dipoles for the dipole
kernels, computed from the argument shapes, and the number of items for
the candidate generator. ``unit_decision`` calls are also keyed by the
exact (topology, unit, key vector, samples, mover positions) cell they
decide, so the share of distinct cells measures repeated decisions.

``LAYER_METRICS`` is the one list of traced functions, with the fields
the driver reports for each; ``TRACED`` adds the ``configio`` loaders.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYER_METRICS = (  # traced function, fields reported per round
    ("magnetics.dipole_field", ("calls", "pairs", "self_s")),
    ("magnetics.dipole_forces", ("calls", "pairs", "self_s")),
    ("magnetics.assembly_energy", ("calls", "self_s")),
    ("landscape.equilibrate_orientations", ("calls", "self_s")),
    ("landscape.sample_profile", ("calls", "self_s")),
    ("landscape.refine_equilibria", ("calls", "self_s")),
    ("landscape.decide", ("calls", "self_s")),
    ("landscape.unit_decision", ("calls",)),
    ("design.enumerate_candidates", ("yielded", "self_s")),
    ("design.selectivity_filter", ("calls", "self_s")),
    ("design.control_entropy", ("self_s",)),
    ("design.evaluate_candidate", ("calls", "self_s")),
    ("design.sensitivity_sweep", ("self_s",)),
    ("fsm.decode_pulse", ("calls", "self_s")),
    ("fsm.run", ("self_s",)),
    ("netbus.execute_command", ("calls", "self_s")),
    ("netbus.master_field_at", ("calls", "self_s")),
    ("netbus.decode_node", ("calls", "self_s")),
    ("netbus.endurance_campaign", ("self_s",)),
)
# the configio loaders are traced only for configio.load_s
TRACED = tuple(name for name, _ in LAYER_METRICS) + tuple(
    f"configio.{f}" for f in ("load_topology", "load_design", "load_machine",
                              "load_campaign", "load_document", "validate_document"))
_GENERATORS = {"design.enumerate_candidates"}


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return 1 if len(shape) == 1 else shape[0]


def _kernel_pairs(args) -> int:
    # dipole_field(src_pos, src_m, points) and
    # dipole_forces(src_pos, src_m, points, moments): sources x points
    return _rows(args[0]) * _rows(args[2])


def _vec(v) -> tuple:
    return tuple(float(c) for c in v)


def _topology_cell(units) -> tuple:
    return tuple(
        (u.id,
         tuple((_vec(s.dipole_positions().ravel()), _vec(s.dipole_moments().ravel()))
               for s in u.stators),
         u.track.axis, u.track.origin, u.track.stroke, u.track.mover,
         u.track.mass, u.track.friction_force)
        for u in units
    )


def _decision_cell(args, kwargs, default_samples) -> tuple:
    names = ("topology", "unit_id", "key", "n_samples", "mover_positions")
    bound = dict(zip(names, args))
    bound.update((k, v) for k, v in kwargs.items() if k in names)
    key = bound.get("key")
    positions = bound.get("mover_positions")
    return (
        _topology_cell(bound["topology"]),
        bound["unit_id"],
        None if key is None else _vec(key.vector),
        bound.get("n_samples", default_samples),
        None if not positions else tuple(sorted(positions.items())),
    )


class Tracer:
    """Spans kept in memory; one tracer per traced phase."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0_ns, t1_ns, work]
        self._stack = []
        self.cells = set()
        self._originals = []

    def _open(self, name):
        span = [len(self.spans), self._stack[-1][0] if self._stack else -1,
                name, time.perf_counter_ns(), 0, 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        if name in _GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    span[5] = 1
                    yield item
            return gen_wrapper

        kernel = name in ("magnetics.dipole_field", "magnetics.dipole_forces")
        decision = name == "landscape.unit_decision"
        default_samples = importlib.import_module("maglogic.landscape").DEFAULT_SAMPLES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                if kernel:
                    span[5] = _kernel_pairs(args)
                elif decision:
                    self.cells.add(repr(_decision_cell(args, kwargs, default_samples)))
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def install(self):
        for name in TRACED:
            mod_name, func = name.split(".")
            module = importlib.import_module(f"maglogic.{mod_name}")
            original = getattr(module, func)
            self._originals.append((module, func, original))
            setattr(module, func, self._wrap(name, original))
        return self

    def uninstall(self):
        for module, func, original in reversed(self._originals):
            setattr(module, func, original)
        self._originals.clear()

    def summary(self) -> dict:
        """name -> {"calls", "work", "self_s"} over every recorded span."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {}
        for sid, _, name, t0, t1, work in self.spans:
            row = out.setdefault(name, {"calls": 0, "work": 0, "self_s": 0.0})
            row["calls"] += 1
            row["work"] += work
            row["self_s"] += (t1 - t0 - child_ns[sid]) * 1e-9
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "summary": self.summary(),
                       "cells": sorted(self.cells)}, fh, separators=(",", ":"))
