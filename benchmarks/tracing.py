"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span, and rebinds the same name wherever another
module imported it (``universal.escape_probability_aligned`` is survival's
function, so its span belongs to the survival layer).  ``uninstall`` puts the
originals back.  No file of the package is changed.

Spans stay in memory until the run ends.  Work counts come from the call
arguments alone, so they repeat exactly for a given job list.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

#: layer name -> module; the layers of the per-layer metrics
LAYERS = {
    "spectral": "wellquench.spectral",
    "survival": "wellquench.survival",
    "oscillatory": "wellquench._oscillatory",
    "universal": "wellquench.universal",
    "fractal": "wellquench.fractal",
    "oracle": "wellquench.oracle",
    "cli": "wellquench.cli",
}

#: modules whose attributes may hold a layer function imported by name
_NAMESPACES = ["wellquench"] + list(LAYERS.values())

@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top of a job
    job: str
    error: bool = False
    counts: dict = dataclasses.field(default_factory=dict)


def on_uniform_grid(xi) -> bool:
    """True when the points are j/K for consecutive integers j and one integer K."""
    xs = np.atleast_1d(np.asarray(xi, dtype=float))
    if xs.size < 2:
        return False
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    if not step > 0.0:
        return False
    intervals = round(1.0 / step)
    if abs(1.0 / step - intervals) > 1e-9 * intervals:
        return False
    numerators = xs * intervals
    return bool(np.allclose(numerators, np.round(numerators), rtol=0.0, atol=1e-6)
                and np.all(np.round(np.diff(numerators)) == 1.0))


def _sized(value) -> int:
    return int(np.size(value))


def _universal_counts(a):
    points = _sized(a["xi"])
    return {"universal.mode_points": (a["n_modes"] - 1) * points,
            "universal.xi_points": points,
            "universal.grid_points": points if on_uniform_grid(a["xi"]) else 0}


def _curve_counts(a):
    points = a["intervals"] + 1 + a["extra_points"]
    return {"universal.mode_points": (a["n_modes"] - 1) * points,
            "universal.xi_points": points, "universal.grid_points": points}


def _scaled_counts(a):
    # its mode sums are counted by the survival call it makes
    points = _sized(a["xi_grid"])
    return {"universal.xi_points": points,
            "universal.grid_points": points if on_uniform_grid(a["xi_grid"]) else 0}


def _phase_sum_counts(a):
    # integer 1/eps is the property a residue-FFT route needs
    inverse = 1.0 / a["epsilon"]
    fft = abs(inverse - round(inverse)) < 1e-9 * inverse
    return {"fractal.phase_sum_calls": 1, "fractal.fft_calls": int(fft)}


def _mode_times(a):
    return {"survival.mode_times": a["n_modes"] * _sized(a["t"])}


#: qualified function name -> work counts from its bound arguments
COUNTERS = {
    "survival.survival_amplitude": _mode_times,
    "survival.escape_probability_exact": _mode_times,
    "survival.escape_probability_aligned": _mode_times,
    "survival.escape_small_delta": _mode_times,
    "universal.universal_function": _universal_counts,
    "universal.universal_curve": _curve_counts,
    "universal.scaled_escape_limit": _scaled_counts,
    "spectral.wavefunction": lambda a: {
        "spectral.mode_points": a["coeffs"].truncation * _sized(a["x"])},
    "spectral.density_field": lambda a: {
        "spectral.mode_points":
            a["coeffs"].truncation * _sized(a["x_grid"]) * _sized(a["t_grid"])},
    "oracle.propagate": lambda a: {
        "oracle.point_steps": (_sized(a["state"].amplitudes) - 2) * a["steps"]},
    "fractal.phase_sum_samples": _phase_sum_counts,
}


class Tracer:
    """Records spans of calls into the layer modules while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer, module_name in LAYERS.items():
            module = importlib.import_module(module_name)
            for name, func in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(func)
                        and func.__module__ == module_name):
                    qualname = f"{module_name.rsplit('.', 1)[1].lstrip('_')}.{name}"
                    wrappers[func] = self._wrap(layer, qualname, func)
        for module_name in _NAMESPACES:
            module = importlib.import_module(module_name)
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def _wrap(self, layer, qualname, func):
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            counts = {}
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments)
                except Exception:
                    # arguments the function itself rejects: let it raise its own error
                    counts = {}
            parent = self._stack[-1] if self._stack else -1
            span = Span(qualname, layer, 0.0, 0.0, parent, self.job, counts=counts)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced


def self_times(spans: list[Span], scale: dict | None = None) -> dict[str, float]:
    """Per-layer time with the time of every child span removed.

    A span's own time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.  Children in the
    same layer are therefore counted once, in the child, and the layers'
    self times add up to the time covered by top-level spans.  ``scale``
    maps a job id to the factor its span times are multiplied by.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for span, inner in zip(spans, children):
        factor = scale[span.job] if scale else 1.0
        out[span.layer] += ((span.end - span.start) - inner) * factor
    return dict(out)


def layer_metrics(spans: list[Span], scale: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one pass over the job list.

    ``scale`` is as for ``self_times``.  Shares and medians of layers that
    were not called read 0.
    """
    selfs = self_times(spans, scale)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        for key, value in span.counts.items():
            totals[key] += value
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        out[f"{layer}.errors"] = sum(s.error for s in mine)
    for key in ("survival.mode_times", "universal.mode_points",
                "spectral.mode_points", "oracle.point_steps"):
        out[key] = totals[key]
    kernel = [(s.end - s.start) * (scale[s.job] if scale else 1.0)
              for s in spans if s.name == "oscillatory.kernel_integral"]
    out["oscillatory.call_p50_s"] = statistics.median(kernel) if kernel else 0.0
    out["universal.grid_share"] = _share(totals["universal.grid_points"],
                                         totals["universal.xi_points"])
    out["fractal.fft_share"] = _share(totals["fractal.fft_calls"],
                                      totals["fractal.phase_sum_calls"])
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_records(spans: list[Span]) -> list[dict]:
    return [dataclasses.asdict(span) for span in spans]
