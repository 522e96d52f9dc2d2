"""Per-layer spans and counters, wrapped around ``qgspectra`` from outside.

``Tracer.install`` replaces selected functions of the package by timing
wrappers.  A function is replaced under every module global that names it,
so calls through ``from .edge import transition_matrix`` in another module
are seen as well as calls inside its own module.  Nothing under ``src/``
changes; the wrappers live only in the traced worker process.

Each wrapped call is a span (name, start, end, parent).  A layer's self time
is the duration of its spans minus the part their child spans cover.  The
determinant evaluations of a scan are attributed to the stage that asked
for them by looking at the caller's function name in ``spectrum.py``.

Counts made inside pool workers stay in the workers: in a parallel scan
only the parent's spans and counts are seen.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from typing import Dict, List

# (module, function, layer).  Layers are the package's modules.
WRAPPED = (
    ("graph", "build_graph", "graph"),
    ("edge", "transition_matrix", "edge"),
    ("edge", "transition_matrix_dk", "edge"),
    ("edge", "subunitarity_threshold", "edge"),
    ("edge", "solve_ivp", "edge"),
    ("scattering", "assemble_T", "scattering"),
    ("scattering", "assemble_S", "scattering"),
    ("scattering", "secular", "scattering"),
    ("scattering", "theta_prime", "scattering"),
    ("spectrum", "scan_spectrum", "spectrum"),
    ("spectrum", "multiplicity", "spectrum"),
    ("spectrum", "_scan_window", "spectrum"),
    ("spectrum", "_sweep", "spectrum"),
    ("orbits", "trace_check", "orbits"),
    ("orbits", "enumerate_orbits", "orbits"),
    ("orbits", "orbit_weight", "orbits"),
    ("cli", "main", "cli"),
    ("cli", "_write_csv", "cli"),
    ("cli", "_write_json", "cli"),
)

LAYERS = ("graph", "edge", "scattering", "spectrum", "orbits", "cli")

# Function in spectrum.py that evaluated det(I - S) -> scan stage.
_STAGE_OF_CALLER = {
    "_sweep": "sweep",
    "h": "bisect",
    "<lambda>": "dip",
    "scan_spectrum": "curvature",
    "w": "winding",
    "emit_root": "emit",
}
STAGES = ("sweep", "bisect", "dip", "curvature", "winding", "emit")

# Only det(I - S) entry points are attributed; assemble_T runs under both.
_DET_ENTRY = ("scattering.assemble_S", "scattering.secular")


class Tracer:
    """Spans and counters of one traced run; one instance per process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self._layer_of: List[str] = []
        self.recording = False
        self.reset()

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.det_evals: Dict[str, int] = {s: 0 for s in STAGES}
        self.ode_rhs_evals = 0
        self.threshold_ode_solves = 0
        self.winding_failures = 0
        self.phase_retries = 0
        self.pool_s = 0.0
        self.classes = 0
        self.bytes_written = 0
        # open spans: [name_id, start, child_time, span_id, parent_span_id]
        self._stack: List[list] = []
        self._threshold_depth = 0
        self._span_budget = 0
        self._next_span = 0
        self._t0 = time.perf_counter()
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(layer)
        return self._name_id[name]

    # -- wrapping ------------------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        for mod_name, fn_name, layer in WRAPPED:
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", layer)
            for mod in modules + [package]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        nid = self._intern(name, layer)
        is_det = name in _DET_ENTRY
        is_threshold = name == "edge.subunitarity_threshold"

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if is_det:
                tracer._attribute_det(sys._getframe(1))
            tracer._threshold_depth += is_threshold
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, time.perf_counter(), name, args, kwargs, None, exc)
                tracer._threshold_depth -= is_threshold
                raise
            tracer._close(frame, time.perf_counter(), name, args, kwargs, result, None)
            tracer._threshold_depth -= is_threshold
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__module__ = getattr(fn, "__module__", None)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _attribute_det(self, frame) -> None:
        # frame is the caller of assemble_S / secular; _det_w adds one level.
        if frame.f_code.co_name == "_det_w":
            frame = frame.f_back
        if frame is not None and frame.f_code.co_filename.endswith("spectrum.py"):
            stage = _STAGE_OF_CALLER.get(frame.f_code.co_name)
            if stage is not None:
                self.det_evals[stage] += 1

    def _open(self, nid: int) -> list:
        span_id = -1
        if self._span_budget > 0:
            self._span_budget -= 1
            span_id = self._next_span
            self._next_span += 1
        parent = self._stack[-1][3] if self._stack else -1
        frame = [nid, 0.0, 0.0, span_id, parent]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame, end, name, args, kwargs, result, exc) -> None:
        self._stack.pop()
        nid, start, child_time, span_id, parent_id = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
        self.self_time[self._layer_of[nid]] += dur - child_time
        if self._stack:
            self._stack[-1][2] += dur
        if span_id >= 0:
            self.span_id.append(span_id)
            self.span_name.append(nid)
            self.span_start.append(start - self._t0)
            self.span_end.append(end - self._t0)
            self.span_parent.append(parent_id)
        if name == "edge.solve_ivp":
            if result is not None:
                self.ode_rhs_evals += int(getattr(result, "nfev", 0))
            if self._threshold_depth > 0:
                self.threshold_ode_solves += 1
        elif name == "spectrum.multiplicity":
            # scan_spectrum halves the contour radius after a NumericalError
            if type(exc).__name__ == "NumericalError":
                self.winding_failures += 1
        elif name == "spectrum._sweep":
            if type(exc).__name__ == "PhaseTrackingError":
                self.phase_retries += 1
        elif name == "spectrum.scan_spectrum":
            cfg = args[3] if len(args) > 3 else kwargs.get("config")
            if cfg is not None and getattr(cfg, "workers", 1) > 1:
                self.pool_s += dur
        elif name == "orbits.enumerate_orbits" and result is not None:
            self.classes += len(result)
        elif name in ("cli._write_csv", "cli._write_json"):
            self._count_bytes(args)

    def _count_bytes(self, args) -> None:
        # cli.main rewrites the report once more to add its wall time; that
        # rewrite is left out, because the width of the float varies.
        caller = sys._getframe(3).f_code.co_name  # _close <- wrapper <- caller
        if caller == "main":
            return
        self.bytes_written += os.path.getsize(args[0])

    # -- one traced stretch ----------------------------------------------------

    def start(self, span_budget: int) -> None:
        self.reset()
        self._span_budget = span_budget
        self._t0 = time.perf_counter()
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def spans(self) -> List[tuple]:
        """(id, name, start, end, parent id) of the recorded spans, by id."""
        rows = [(self.span_id[i], self.names[self.span_name[i]], self.span_start[i],
                 self.span_end[i], self.span_parent[i]) for i in range(len(self.span_id))]
        rows.sort()
        return rows

    def summary(self) -> Dict[str, float]:
        c, t = self.calls, self.inclusive
        det_total = sum(self.det_evals.values())
        out: Dict[str, float] = {
            "edge.transition_calls": c.get("edge.transition_matrix", 0),
            "edge.transition_dk_calls": c.get("edge.transition_matrix_dk", 0),
            "edge.ode_solves": c.get("edge.solve_ivp", 0),
            "edge.ode_rhs_evals": self.ode_rhs_evals,
            "edge.time_s": t.get("edge.transition_matrix", 0.0)
            + t.get("edge.transition_matrix_dk", 0.0),
            "edge.threshold_s": t.get("edge.subunitarity_threshold", 0.0),
            "edge.threshold_ode_solves": self.threshold_ode_solves,
            "scattering.assemble_calls": c.get("scattering.assemble_T", 0),
            "scattering.self_s": self.self_time["scattering"],
            "spectrum.det_evals_total": det_total,
            "spectrum.windings": c.get("spectrum.multiplicity", 0),
            "spectrum.winding_halvings": self.winding_failures,
            "spectrum.phase_retries": self.phase_retries,
            "spectrum.windows": c.get("spectrum._scan_window", 0),
            "spectrum.self_s": self.self_time["spectrum"],
            "spectrum.pool_s": self.pool_s,
            "orbits.classes": self.classes,
            "orbits.enumerate_calls": c.get("orbits.enumerate_orbits", 0),
            "orbits.enumerate_s": t.get("orbits.enumerate_orbits", 0.0),
            "orbits.theta_prime_calls": c.get("scattering.theta_prime", 0),
            "orbits.theta_prime_s": t.get("scattering.theta_prime", 0.0),
            "orbits.weight_calls": c.get("orbits.orbit_weight", 0),
            "orbits.self_s": self.self_time["orbits"],
            "cli.self_s": self.self_time["cli"],
            "cli.bytes_written": self.bytes_written,
            "graph.build_s": t.get("graph.build_graph", 0.0),
        }
        for stage in STAGES:
            out[f"spectrum.det_evals.{stage}"] = self.det_evals[stage]
        return out


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("id,name,start_s,end_s,parent\n")
        for span_id, name, start, end, parent in spans:
            f.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent}\n")
