"""Tests of the span tracer: self-time arithmetic, transparency, tolerance."""

import sys
import types
import warnings

import numpy as np
import pytest

import tracer as tr
from spqm import dists, fock, group, moments, paths, povm


class FakeClock:
    """Returns the queued readings in order."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def span(layer, name, parent, start, end):
    s = tr.Span(layer, name, parent, start)
    s.end = end
    return s


def test_self_times_of_nested_tree():
    #  root [0, 10]
    #    a [1, 4]      b [5, 9]
    #      a1 [2, 3]     b1 [5, 6]  b2 [7, 9]
    spans = [span("bench", "root", None, 0.0, 10.0),
             span("fock", "a", 0, 1.0, 4.0),
             span("fock", "a1", 1, 2.0, 3.0),
             span("group", "b", 0, 5.0, 9.0),
             span("paths", "b1", 3, 5.0, 6.0),
             span("paths", "b2", 3, 7.0, 9.0)]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    assert sum(tr.self_times(spans)) == 10.0


def test_self_times_merge_overlapping_and_clip_children():
    spans = [span("bench", "root", None, 0.0, 10.0),
             span("fock", "x", 0, 2.0, 6.0),
             span("fock", "y", 0, 4.0, 8.0),
             span("fock", "z", 0, 9.0, 12.0)]
    # Children cover [2, 8] and [9, 10] of the root: 7 of its 10.
    assert tr.self_times(spans)[0] == pytest.approx(3.0)


def test_summarize_adds_up_to_root_span():
    module = types.ModuleType("fakepkg.fock")
    module.__all__ = ["outer", "inner"]
    module.inner = lambda: None

    def inner():
        return 1

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    pkg = types.ModuleType("fakepkg")
    sys.modules.update({"fakepkg": pkg, "fakepkg.fock": module})
    try:
        # root opens at 0; outer [1, 9]; inner [2, 4] and [5, 6]; root closes at 10
        tracer = tr.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
        tracer.install(package="fakepkg", layers=("fock",))
        with tracer.span(tr.BENCH, "pass") as root:
            assert module.outer() == 2
        tracer.uninstall()
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.fock"]
    metrics = tr.summarize(tracer)
    assert metrics["fock.outer.calls"] == 1
    assert metrics["fock.inner.calls"] == 2
    assert metrics["fock.outer.self_s"] == 5
    assert metrics["fock.inner.self_s"] == 3
    assert metrics["fock.self_s"] == 8
    assert metrics["bench.self_s"] == 2
    layers = sum(metrics[f"{layer}.self_s"] for layer in tr.LAYERS)
    assert layers + metrics["bench.self_s"] == root.end - root.start
    assert module.outer is outer


def _small_outputs():
    """One small call per layer, flattened to arrays."""
    x = group.HCCoords(nu=0.2 + 0.1j, r=0.5, z=0.1j, mu=-0.1 + 0.3j)
    end = paths.closed_form_hc(paths.sample_wiener(50, 1e-3, 1.0, 3,
                                                   n_paths=4))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    report = povm.channel_monte_carlo(rho, 0.01, 20, 1e-3, 4, 2)
    return {
        "fock": fock.displacement_operator(6, 0.3 + 0.2j),
        "group": np.concatenate([group.represent(x, 8).ravel(), group.represent(
            group.hc_to_cartan(x), 8).ravel()]),
        "paths": np.concatenate([end.nu, end.mu, end.z]),
        "moments": np.array(moments.direct_moments(
            moments.build_kernel(50, 1e-2, 1.0))),
        "dists": np.array(dists.feynman_kac_estimate(
            "plain", "exp_neg_2s", "nu_abs2", 1000, 20, 1e-2, 1.0, 5)),
        "povm": np.array([report.trace_distance, report.trace_mean,
                          report.trace_stderr, povm.completeness_quadrature(
                              1.0, 4, radial_nodes=8, angular_nodes=8)]),
    }


def test_wrappers_are_transparent():
    plain = _small_outputs()
    tracer = tr.Tracer()
    tracer.install()
    try:
        wrapped = _small_outputs()
    finally:
        tracer.uninstall()
    metrics = tr.summarize(tracer)
    for layer in tr.LAYERS:
        assert np.array_equal(plain[layer], wrapped[layer]), layer
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert not hasattr(fock.matrix_exponential, "__wrapped__")


def test_missing_functions_and_layers_are_skipped():
    module = types.ModuleType("fakepkg.paths")
    module.__all__ = ["sample_wiener", "deleted", "Record", "CONSTANT"]
    module.Record = type("Record", (), {})
    module.CONSTANT = 3
    module.sample_wiener = lambda: object()  # result lacks .increments
    sys.modules.update({"fakepkg": types.ModuleType("fakepkg"),
                        "fakepkg.paths": module})
    try:
        tracer = tr.Tracer()
        tracer.install(package="fakepkg", layers=("paths", "fock"))
        assert tracer.functions == [("paths", "sample_wiener")]
        assert module.Record.__name__ == "Record"
        module.sample_wiener()
        tracer.uninstall()
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.paths"]
    metrics = tr.summarize(tracer)
    assert metrics["paths.sample_wiener.calls"] == 1
    assert metrics["paths.increments"] == 0
    assert not any(".deleted." in key or ".Record." in key for key in metrics)
    assert {f"{layer}.self_s" for layer in tr.LAYERS} <= set(metrics)


def test_errors_count_once_and_warnings_go_to_innermost_layer():
    tracer = tr.Tracer()
    tracer.install()
    try:
        with pytest.raises(fock.NumericalDomainError):
            group.represent(group.HCCoords(nu=np.nan, r=0.5, z=0j, mu=0j), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda *a, **k: tracer.record_warning()
            paths.sample_modified(10, 0.2, 1.0, 0)
    finally:
        tracer.uninstall()
    metrics = tr.summarize(tracer)
    assert metrics["fock.errors"] == 1
    assert metrics["group.errors"] == 0
    assert metrics["moments.warnings"] == 1
    assert metrics["paths.warnings"] == 0
