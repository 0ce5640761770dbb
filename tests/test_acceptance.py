"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report lines on the terminal.
"""

import json
import math

import numpy as np
import pytest

from bandlim import (BesselSeries, DifferentialOperator, LineIntegralParams,
                     TransformConfig, bauer_partial_sum,
                     calibrate_normalization, gauss_legendre_rule,
                     half_integer_bessel_via_poisson, legendre_all,
                     orthogonality_matrix_j, roundtrip, solve, spherical_j)
from bandlim.cli import main as cli_main
from bandlim.transform import PAPER_QUARTER


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def config():
    return TransformConfig()


def test_criterion_1_single_mode_transform():
    # int_-1^1 e^{izt} P_n(t) dt = 2 i^n j_n(z)
    rule = gauss_legendre_rule(64)
    worst = 0.0
    for n in range(11):
        p = legendre_all(n, rule.nodes)[n]
        for z in np.arange(0.0, 20.5, 0.5):
            val = complex(np.sum(rule.weights * p *
                                 np.exp(1j * z * rule.nodes)))
            want = 2.0 * 1j ** n * spherical_j(n, float(z))
            worst = max(worst, abs(val - want))
    report(1, "single-mode transform identity", worst < 1e-11,
           f"max error {worst:.3e}, tol 1e-11")


def test_criterion_2_plane_wave_expansion():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        z = float(rng.uniform(-10.0, 10.0))
        t = float(rng.uniform(-1.0, 1.0))
        s = bauer_partial_sum(z, t, 60)
        worst = max(worst, abs(s - np.exp(1j * z * t)))
    report(2, "plane-wave partial sums", worst < 1e-10,
           f"max error {worst:.3e} over 200 samples, tol 1e-10")


def test_criterion_3_legendre_orthogonality():
    rule = gauss_legendre_rule(32)
    p = legendre_all(20, rule.nodes)
    gram = (p * rule.weights) @ p.T
    want = np.diag(2.0 / (2 * np.arange(21) + 1))
    worst = float(np.max(np.abs(gram - want)))
    report(3, "Legendre orthogonality", worst < 1e-12,
           f"max entry error {worst:.3e}, tol 1e-12")


def test_criterion_4_parity():
    worst = 0.0
    zs = np.linspace(0.1, 30.0, 90)
    for n in range(33):
        for z in zs:
            worst = max(worst, abs(spherical_j(n, float(-z))
                                   - (-1.0) ** n * spherical_j(n, float(z))))
    report(4, "spherical Bessel parity", worst < 1e-14,
           f"max violation {worst:.3e}, tol 1e-14")


def test_criterion_5_poisson_representation():
    rule = gauss_legendre_rule(80)
    worst = 0.0
    for n in range(11):
        for z in np.linspace(0.5, 20.0, 14):
            lhs = math.sqrt(math.pi / (2.0 * z)) * \
                half_integer_bessel_via_poisson(n, float(z), rule)
            worst = max(worst, abs(lhs - spherical_j(n, float(z))))
    report(5, "Poisson half-integer representation", worst < 1e-10,
           f"max error {worst:.3e}, tol 1e-10")


def test_criterion_6_measured_bessel_orthogonality():
    gram = orthogonality_matrix_j(6, LineIntegralParams(tol=1e-8))
    off = gram - np.diag(gram.diagonal())
    max_off = float(np.max(np.abs(off)))
    n = np.arange(7)
    scaled = gram.diagonal() * (2 * n + 1)
    const = float(np.mean(scaled))
    diag_rel = float(np.max(np.abs(scaled - const)) / abs(const))
    ok = max_off < 1e-6 and diag_rel < 1e-4
    report(6, "measured j_n orthogonality",
           ok,
           f"max offdiag {max_off:.3e} (tol 1e-6); K_n(2n+1) = {const:.8f} "
           f"measured vs printed 2 (source discrepancy), "
           f"rel spread {diag_rel:.3e} (tol 1e-4)")


def test_criterion_7_roundtrip(config):
    rng = np.random.default_rng(77)
    worst = 0.0
    series = []
    for _ in range(5):
        length = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        series.append(BesselSeries(coeffs))
    zs = np.array([0.0, 2.0, 7.0])
    for g in series:
        for z, got in zip(zs, roundtrip(g, zs, config)):
            want = complex(g(z))
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    c_star = calibrate_normalization(config)
    cfg_paper = TransformConfig(normalization=PAPER_QUARTER)
    worst_scale = 0.0
    g = series[0]
    for cal, pap in zip(roundtrip(g, zs, config), roundtrip(g, zs, cfg_paper)):
        want = cal * c_star / 4.0
        worst_scale = max(worst_scale,
                          abs(pap - want) / max(abs(want), 1e-12))
    ok = worst < 1e-5 and worst_scale < 1e-4
    report(7, "transform round trip",
           ok,
           f"calibrated rel err {worst:.3e} (tol 1e-5); paper-C outputs "
           f"scale by C*/4 = {c_star / 4.0:.6f} within {worst_scale:.3e} "
           f"(tol 1e-4) - printed 1/4 is not an exact inverse")


def test_criterion_8_calibration_stability(config):
    c0 = calibrate_normalization(config)
    c2 = calibrate_normalization(config, mode=2)
    mode_rel = abs(c2 - c0) / c0
    base = config.line_params
    doubled = TransformConfig(line_params=LineIntegralParams(
        tol=base.tol, max_segments=2 * base.max_segments))
    cd = calibrate_normalization(doubled)
    seg_rel = abs(cd - c0) / c0
    ok = mode_rel < 1e-4 and seg_rel < 1e-6
    report(8, "calibration stability", ok,
           f"C* = {c0:.10f}; mode-0/2 rel diff {mode_rel:.3e} (tol 1e-4); "
           f"doubled-segments rel diff {seg_rel:.3e} (tol 1e-6)")


def test_criterion_9_ode_solver(config):
    op = DifferentialOperator([1.0, 0.0, -1.0])
    sol = solve(op, BesselSeries([2.0]), 16, config)
    g0_err = abs(sol.g_at(0.0) - math.pi / 2)
    ident = solve(DifferentialOperator([1.0]), BesselSeries([2.0]), 8, config)
    ident_err = max(abs(ident.g_at(float(z)) - 2.0 * spherical_j(0, float(z)))
                    for z in np.arange(-10.0, 10.5, 0.5))
    ok = g0_err < 1e-9 and sol.residual_report < 1e-8 and ident_err < 1e-10
    report(9, "transform-domain ODE solve", ok,
           f"g(0) err {g0_err:.3e} (tol 1e-9); residual "
           f"{sol.residual_report:.3e} (tol 1e-8); identity err "
           f"{ident_err:.3e} (tol 1e-10)")


def test_criterion_10_gauss_rules():
    worst = 0.0
    for npoints in range(1, 65):
        rule = gauss_legendre_rule(npoints)
        for d in range(2 * npoints):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            val = float(np.sum(rule.weights * rule.nodes ** d))
            worst = max(worst, abs(val - exact))
    two = gauss_legendre_rule(2)
    node_err = float(np.max(np.abs(np.abs(two.nodes) - 1 / math.sqrt(3.0))))
    ok = worst < 1e-13 and node_err < 1e-15
    report(10, "Gauss-Legendre correctness", ok,
           f"max monomial error {worst:.3e} (tol 1e-13); 2-point node err "
           f"{node_err:.3e} (tol 1e-15)")


def test_criterion_11_cli_gates(tmp_path, capsys):
    checks = []
    # gates pass at honest tolerances, fail when tolerances are tightened
    checks.append(("bauer gate passes", cli_main(
        ["bauer-check", "--z", "1", "--t", "1", "--nmax", "40",
         "--out", str(tmp_path / "b1.json")]) == 0))
    checks.append(("bauer gate trips", cli_main(
        ["bauer-check", "--z", "9", "--t", "0.8", "--nmax", "3",
         "--out", str(tmp_path / "b2.json")]) == 2))
    checks.append(("ortho gate passes", cli_main(
        ["ortho-check", "--nmax", "3",
         "--out", str(tmp_path / "o1.json")]) == 0))
    checks.append(("ortho gate trips", cli_main(
        ["ortho-check", "--nmax", "3", "--tol", "1e-15",
         "--out", str(tmp_path / "o2.json")]) == 2))
    for run in ("r1", "r2"):
        assert cli_main(["ortho-check", "--nmax", "3",
                         "--out", str(tmp_path / f"{run}.json")]) == 0
    byte_equal = (tmp_path / "r1.json").read_bytes() == \
        (tmp_path / "r2.json").read_bytes()
    checks.append(("byte-identical reruns", byte_equal))
    report_doc = json.loads((tmp_path / "o1.json").read_text())
    checks.append(("report structure", report_doc["pass"] is True
                   and report_doc["printed_diag_constant"] == 2.0))
    capsys.readouterr()  # drop gate output from the test's own stream
    failed = [name for name, ok in checks if not ok]
    report(11, "CLI determinism and CI gates", not failed,
           "all gate/determinism checks ok" if not failed
           else f"failed: {', '.join(failed)}")
