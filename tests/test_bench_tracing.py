"""The benchmark's per-layer tracer (bench/tracing.py) on one small call per
traced layer: every per_layer metric of BENCHMARK.json comes out, finite and
strict JSON, as the CI check of a traced bench run requires."""

import importlib.util
import json
import math
import pathlib
import sys

import numpy as np

import bandlim
import bandlim.cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tracing():
    """bench/tracing.py as a module, leaving no bytecode under bench/."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_calls_give_every_per_layer_metric():
    inverse = bandlim.transform.inverse_transform
    tracer = load_tracing().Tracer(bandlim)
    tracer.install()
    try:
        # through module attributes, which the tracer's wrappers replace
        tr = bandlim.transform
        config = tr.TransformConfig()
        tr.inverse_transform(tr.BesselSeries([2.0, 0.5j]), np.array([0.3, -0.3, 0.6]),
                             config)
        tr.orthogonality_matrix_j(3)
        tr.bessel_projection(tr.BesselSeries([0.5, -0.3j, 0.9]), 2, config)
        tr.calibrate_normalization(config, 2)
        assert bandlim.cli.main(["calibrate"]) == 0
    finally:
        tracer.uninstall()
    assert bandlim.transform.inverse_transform is inverse

    metrics = tracer.metrics()
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in per_layer}
    assert all(math.isfinite(m["value"]) for m in metrics.values()), metrics
    json.dumps(metrics, allow_nan=False)
    for name in ("transform.inverse.calls", "transform.gram.calls",
                 "transform.bessel_projection.calls", "transform.calibrate.calls",
                 "cli.commands", "cli.bytes_out"):
        assert metrics[name]["value"] >= 1, name
    # only the two explicit calibrations count: an inverse reads its divisor
    # from the cached moments without calibrating
    assert metrics["transform.calibrate.calls"]["value"] == 2


def test_traced_line_integral_keeps_its_value():
    # the tracer reads _segment_integral's ends as scalars: at t = 0.3 the
    # core is two pairs of mirror chunks and a middle chunk, and only the
    # middle one goes through _segment_integral
    j0 = bandlim.transform.BesselSeries([1.0])
    want = bandlim.quadrature.integrate_oscillatory_line(j0, 0.3)
    tracer = load_tracing().Tracer(bandlim)
    tracer.install()
    try:
        got = bandlim.quadrature.integrate_oscillatory_line(j0, 0.3)
    finally:
        tracer.uninstall()
    assert type(got) is complex
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert tracer.metrics()["quadrature.line.integrals"]["value"] == 1
