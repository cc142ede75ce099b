import numpy as np
import pytest

from benchmarks.tracing import Span, Tracer, layer_metrics, on_uniform_grid, self_times
from wellquench import universal


def _tree():
    # cli [0, 10] -> survival [1, 7] -> (survival [2, 3], oscillatory [3.5, 6.5])
    #             -> spectral [8, 9]
    return [
        Span("cli.main", "cli", 0.0, 10.0, -1, "0:0"),
        Span("survival.regime_report", "survival", 1.0, 7.0, 0, "0:0"),
        Span("survival.escape_probability_exact", "survival", 2.0, 3.0, 1, "0:0",
             counts={"survival.mode_times": 40}),
        Span("oscillatory.kernel_integral", "oscillatory", 3.5, 6.5, 1, "0:0",
             error=True),
        Span("spectral.mode_coefficients", "spectral", 8.0, 9.0, 0, "0:0"),
    ]


def test_self_time_removes_child_spans():
    selfs = self_times(_tree())
    assert selfs == pytest.approx({"cli": 3.0, "survival": 3.0, "oscillatory": 3.0,
                                   "spectral": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_metrics_of_a_synthetic_pass():
    metrics = layer_metrics(_tree())
    assert metrics["survival.calls"] == 2
    assert metrics["survival.self_s"] == pytest.approx(3.0)
    assert metrics["oscillatory.errors"] == 1
    assert metrics["oscillatory.call_p50_s"] == pytest.approx(3.0)
    assert metrics["survival.mode_times"] == 40
    assert metrics["universal.grid_share"] == 0.0
    assert metrics["fractal.fft_share"] == 0.0
    assert metrics["oracle.calls"] == 0


def test_uniform_grid_detection():
    assert on_uniform_grid(np.linspace(0.0, 1.0, 512))
    assert on_uniform_grid(np.linspace(0.2, 0.3, 101))
    assert not on_uniform_grid(np.linspace(0.2493, 0.2507, 257))
    assert not on_uniform_grid(np.array([0.0, 0.25, 0.75]))
    assert not on_uniform_grid(0.5)


def test_installed_wrappers_record_nested_spans_and_are_removed():
    original = universal.scaled_escape_limit
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "0:0"
        universal.scaled_escape_limit(1e-3, np.linspace(0.0, 1.0, 5), 50)
    finally:
        tracer.uninstall()
    assert universal.scaled_escape_limit is original
    spans = tracer.spans
    assert spans[0].name == "universal.scaled_escape_limit" and spans[0].parent == -1
    # survival's function, reached through the name universal imported
    aligned = [s for s in spans if s.name == "survival.escape_probability_aligned"]
    assert len(aligned) == 1 and aligned[0].parent == 0
    assert aligned[0].layer == "survival"
    assert aligned[0].counts == {"survival.mode_times": 250}
    metrics = layer_metrics(spans)
    assert metrics["universal.grid_share"] == 1.0
    assert metrics["spectral.calls"] >= 1
    assert all(s.job == "0:0" and s.end >= s.start for s in spans)


def test_a_raising_call_is_an_error_span():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            universal.universal_function(0.5, 1)
    finally:
        tracer.uninstall()
    assert [s.error for s in tracer.spans] == [True]
    assert layer_metrics(tracer.spans)["universal.errors"] == 1
