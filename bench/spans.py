"""In-memory spans around calls into coordsim's public functions.

``install`` replaces every module-level name binding (and class attribute)
that refers to a listed function with a wrapper that records one span per
call: name, start, end, parent span and scenario id.  Spans live in flat
arrays until ``Recorder.save`` writes them once, at the end of a run.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so children never overlap and the
cover is the sum of the children's durations.  The self times of all spans
under one root therefore sum exactly (in integer nanoseconds) to the root's
duration.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute path, span name) of every wrapped function.  Methods
# are patched on their class, so every instance and every caller sees the
# wrapper.
TRACED = (
    ("coordsim.cli", "main", "cli.main"),
    ("coordsim.simharness", "load_config", "simharness.load_config"),
    ("coordsim.simharness", "validation_report", "simharness.validation_report"),
    ("coordsim.simharness", "ScenarioConfig.validate", "simharness.ScenarioConfig.validate"),
    ("coordsim.simharness", "init_world", "simharness.init_world"),
    ("coordsim.simharness", "run_scenario", "simharness.run_scenario"),
    ("coordsim.simharness", "step", "simharness.step"),
    ("coordsim.simharness", "pe_connectivity", "simharness.pe_connectivity"),
    ("coordsim.simharness", "write_outputs", "simharness.write_outputs"),
    ("coordsim.coordctrl", "MissionRateProfile.validate", "coordctrl.MissionRateProfile.validate"),
    ("coordsim.coordctrl", "path_error_feedback_all", "coordctrl.path_error_feedback_all"),
    ("coordsim.coordctrl", "coordination_accel_matrix", "coordctrl.coordination_accel_matrix"),
    ("coordsim.coordctrl", "feasibility_check", "coordctrl.feasibility_check"),
    ("coordsim.vehicle", "LaneSweepFamily.pos_vel_all", "vehicle.pos_vel_all"),
    ("coordsim.vehicle", "LaneSweepFamily.velocity_all", "vehicle.velocity_all"),
    ("coordsim.vehicle", "pf_control_all", "vehicle.pf_control_all"),
    ("coordsim.vehicle", "apply_disturbance", "vehicle.apply_disturbance"),
    ("coordsim.switchlaw", "advance", "switchlaw.advance"),
    ("coordsim.coordalg", "build_certificate", "coordalg.build_certificate"),
    ("coordsim.coordalg", "solve_lyapunov", "coordalg.solve_lyapunov"),
    ("coordsim.digraph", "jointly_connected", "digraph.jointly_connected"),
)


class Recorder:
    """Flat span storage; ``scenario`` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.scenario_id = array("i")
        self.scenario = -1
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        stack = self._stack
        name_id, start, end, parent, scen = (
            self.name_id, self.start, self.end, self.parent, self.scenario_id,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            scen.append(self.scenario)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "scenario": np.frombuffer(self.scenario_id, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(wrapper_for, targets=TRACED) -> list[tuple[object, str, object]]:
    """Replace every binding of each target function by ``wrapper_for(fn,
    name)``.  Returns ``(owner, attribute, original)`` triples for
    :func:`uninstall`.

    Functions (not methods) are also re-bound wherever another coordsim
    module imported them by name, e.g. ``simharness.build_certificate``
    next to ``coordalg.build_certificate``.
    """
    modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "coordsim"]
    patched = []
    for module, path, name in targets:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapped = wrapper_for(original, name)
        bindings = [(owner, attr)]
        if isinstance(owner, type(sys)):
            bindings += [
                (m, k)
                for m in modules
                for k, v in list(vars(m).items())
                if v is original and (m, k) != (owner, attr)
            ]
        for o, k in bindings:
            setattr(o, k, wrapped)
            patched.append((o, k, original))
    return patched


def uninstall(patched) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def self_times(names, name_id, start_ns, end_ns, parent) -> dict[str, dict]:
    """Per-name ``calls``, total ``self_ns`` and per-call ``dur_ns``.

    ``self = duration - sum(child durations)``, computed over the whole
    span tree at once.
    """
    dur = np.asarray(end_ns, dtype=np.int64) - np.asarray(start_ns, dtype=np.int64)
    parent = np.asarray(parent)
    name_id = np.asarray(name_id)
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    out = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        out[name] = {
            "calls": int(sel.sum()),
            "self_ns": int(self_ns[sel].sum()),
            "dur_ns": dur[sel],
        }
    return out
