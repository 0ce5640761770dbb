import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bandlim.odesolve
from bandlim import (BesselSeries, ConvergenceError, DifferentialOperator,
                     DomainError, LegendreSeries, SingularSymbolError,
                     TransformConfig, apply_operator, coeff_bar,
                     forward_transform, gauss_legendre_rule,
                     operator_from_json, operator_to_json, solve, symbol_eval)

REF_RULE = gauss_legendre_rule(1500)
REF_Z = np.array([0.0, 10.0, 60.0, 200.0])


@pytest.fixture(scope="module")
def config():
    return TransformConfig()


def reference_g(op, h):
    """g(z) = int_-1^1 hhat(t) / F(it) e^{izt} dt at REF_Z, by a 1500-point
    Gauss sum."""
    t, w = REF_RULE.nodes, REF_RULE.weights
    f = coeff_bar(h)(t) / op.symbol(t)
    return np.array([np.sum(w * f * np.exp(1j * z * t)) for z in REF_Z])


def operator_with_roots(scale, roots):
    """The second-order L whose symbol is F(it) = scale (t - r0)(t - r1)."""
    r0, r1 = roots
    return DifferentialOperator([scale * r0 * r1, 1j * scale * (r0 + r1), -scale])


class TestOperator:
    def test_validation(self):
        with pytest.raises(DomainError):
            DifferentialOperator([])
        with pytest.raises(DomainError):
            DifferentialOperator([1.0, 0.0])
        with pytest.raises(DomainError):
            DifferentialOperator([math.inf])

    def test_order(self):
        assert DifferentialOperator([1.0]).order == 0
        assert DifferentialOperator([1.0, 0.0, -1.0]).order == 2


class TestSymbol:
    def test_identity(self):
        op = DifferentialOperator([1.0])
        assert symbol_eval(op, 0.5) == 1.0

    def test_first_derivative(self):
        op = DifferentialOperator([0.0, 1.0])
        assert symbol_eval(op, 0.5) == pytest.approx(0.5j, abs=1e-16)

    def test_one_minus_second_derivative(self):
        op = DifferentialOperator([1.0, 0.0, -1.0])
        for t, want in [(0.0, 1.0), (0.5, 1.25), (1.0, 2.0)]:
            assert symbol_eval(op, t) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_refused(self, t):
        op = DifferentialOperator([1.0, 0.0, -1.0])
        with pytest.raises(DomainError, match="t must be finite"):
            symbol_eval(op, t)
        with pytest.raises(DomainError, match="t must be finite"):
            op.symbol(np.array([0.5, t]))


class TestApplyOperator:
    def test_identity_matches_forward(self, config):
        op = DifferentialOperator([1.0])
        f = LegendreSeries([1.0, 0.5])
        for z in [0.0, 1.0, 4.0]:
            assert apply_operator(op, f, z, config) == pytest.approx(
                forward_transform(f, z, config), abs=1e-15)

    def test_derivative_of_constant_at_zero(self, config):
        op = DifferentialOperator([0.0, 1.0])
        f = LegendreSeries([1.0])
        assert abs(apply_operator(op, f, 0.0, config)) < 1e-14

    def test_symbol_cancellation(self, config):
        op = DifferentialOperator([1.0, 0.0, -1.0])
        val = apply_operator(op, lambda t: 1.0 / (1.0 + t * t), 0.0, config)
        assert abs(val - 2.0) < 1e-12

    @pytest.mark.parametrize("z", [0.0, 5.0, 40.0])
    def test_series_applied_exactly(self, config, z):
        # the op101 solve output has nonzero Legendre coefficients up to
        # degree 128, so f F reaches degree 130, past MAX_ORDER and far past
        # what 32 interpolation nodes resolve (1.6e-8 at z = 0 through them)
        op, h = DifferentialOperator([1.0201, 0.0, 1.0]), BesselSeries([2.0])
        f = solve(op, h, 128, config).f_series
        assert len(f) == 129 and f.coeffs[128] != 0
        assert abs(apply_operator(op, f, z, config) - h(z)) <= 1e-14

    def test_series_nonfinite_z_refused(self, config):
        f = LegendreSeries([1.0, 2.0])
        op = DifferentialOperator([1.0, 0.0, 1.0])
        for z in (math.nan, np.array([0.0, math.inf])):
            with pytest.raises(DomainError, match="z must be finite"):
                apply_operator(op, f, z, config)

    def test_series_past_order_149(self, config):
        # deg f + order = 158: the j_n table runs past the order where
        # (2n+1)!! overflows, with no warning and no loss against a Gauss sum
        rng = np.random.default_rng(158)
        f = LegendreSeries(rng.normal(size=129))
        op = DifferentialOperator(rng.normal(size=31) / np.arange(1, 32))
        t, w = REF_RULE.nodes, REF_RULE.weights
        for z in [0.0, 0.1, 3.0, 200.0]:
            want = np.sum(w * f(t) * op.symbol(t) * np.exp(1j * z * t))
            scale = np.sum(w * np.abs(f(t) * op.symbol(t)))
            assert abs(apply_operator(op, f, z, config) - want) <= 1e-13 * scale


def _ref_symbol_section(op, n):
    """Columns 0..n of F(iJ) on n + 1 + order rows, by Horner on the dense
    Jacobi matrix J (t P_m = ((m+1) P_{m+1} + m P_{m-1})/(2m+1))."""
    m = np.arange(1.0, n + 1 + op.order)
    jacobi = np.diag(m / (2 * m - 1), -1) + np.diag(m / (2 * m + 1), 1)
    eye = np.eye(len(m) + 1, n + 1)
    out = 0 * eye
    for a in op.coeffs[::-1]:
        out = 1j * jacobi @ out + a * eye
    return out


class TestApplySymbol:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_dense_product(self, n):
        # the three-term recurrence gives the dense Horner product's section
        # to rounding, for random operators of order 0 to 3
        rng = np.random.default_rng(n)
        for order in range(4):
            coeffs = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
            op = DifferentialOperator(coeffs)
            want = _ref_symbol_section(op, n)
            got = bandlim.odesolve._apply_symbol(op, np.eye(n + 1))
            assert got.shape == want.shape == (n + 1 + order, n + 1)
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


class TestSolve:
    def test_identity(self, config):
        h = BesselSeries([2.0])
        sol = solve(DifferentialOperator([1.0]), h, 4, config)
        assert abs(sol.g_at(1.0) - 1.6829420) < 1e-7
        assert abs(sol.g_at(1.0) - complex(h(1.0))) < 1e-10
        assert sol.residual_report < 1e-10

    def test_helmholtz_like(self, config):
        # (1 - d^2/dz^2) g = 2 j_0 has g(0) = pi/2
        op = DifferentialOperator([1.0, 0.0, -1.0])
        sol = solve(op, BesselSeries([2.0]), 16, config)
        assert abs(sol.g_at(0.0) - math.pi / 2) < 1e-9
        assert sol.residual_report < 1e-8

    @pytest.mark.parametrize("z", [60.0, 200.0])
    def test_helmholtz_like_far_out(self, config, z):
        # g(z) = int_-1^1 e^{izt} / (1 + t^2) dt, by a 1500-point Gauss sum
        rule = gauss_legendre_rule(1500)
        want = np.sum(rule.weights * np.exp(1j * z * rule.nodes) / (1.0 + rule.nodes ** 2))
        sol = solve(DifferentialOperator([1.0, 0.0, -1.0]), BesselSeries([2.0]), 16, config)
        assert isinstance(sol.g_at, BesselSeries)
        assert abs(sol.g_at(z) - want) < 1e-13

    def test_odd_right_hand_side(self, config):
        op = DifferentialOperator([1.0, 0.0, -1.0])
        sol = solve(op, BesselSeries([0.0, 2j]), 16, config)
        assert abs(sol.g_at(0.0)) < 1e-10
        assert sol.residual_report < 1e-8

    def test_linearity(self, config):
        op = DifferentialOperator([1.0, 0.0, -1.0])
        h1 = BesselSeries([2.0, 0.0])
        h2 = BesselSeries([0.0, 2j])
        a, b = 0.7, -1.3
        hsum = BesselSeries(a * h1.coeffs + b * h2.coeffs)
        s1 = solve(op, h1, 16, config)
        s2 = solve(op, h2, 16, config)
        ssum = solve(op, hsum, 16, config)
        for z in [-3.0, 0.0, 2.5]:
            combo = a * s1.g_at(z) + b * s2.g_at(z)
            assert abs(ssum.g_at(z) - combo) < 1e-8

    def test_degree_stability(self, config):
        op = DifferentialOperator([1.0, 0.0, -1.0])
        h = BesselSeries([2.0])
        s16 = solve(op, h, 16, config)
        s32 = solve(op, h, 32, config)
        for z in np.arange(-10.0, 10.5, 2.5):
            assert abs(s16.g_at(z) - s32.g_at(z)) < 1e-8

    def test_singular_symbol_refused(self, config):
        # F(it) = 1/4 - t^2 vanishes at t = +/- 1/2
        op = DifferentialOperator([0.25, 0.0, 1.0])
        with pytest.raises(SingularSymbolError) as info:
            solve(op, BesselSeries([2.0]), 8, config)
        assert abs(abs(info.value.t_zero) - 0.5) < 1e-6

    def test_residual_threshold(self, config):
        op = DifferentialOperator([1.0])
        with pytest.raises(ConvergenceError):
            solve(op, BesselSeries([2.0]), 4, config,
                  residual_threshold=1e-30)
        # a gate that could never trip, or always would, is refused
        for threshold in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="residual_threshold"):
                solve(op, BesselSeries([2.0]), 4, config,
                      residual_threshold=threshold)

    def test_f_series_projection(self, config):
        # identity solve of h = 2 j_0: f(t) = 1, so cbar = [1, 0, ...]
        sol = solve(DifferentialOperator([1.0]), BesselSeries([2.0]), 4,
                    config)
        want = np.zeros(5, dtype=complex)
        want[0] = 1.0
        np.testing.assert_allclose(sol.f_series.coeffs, want, atol=1e-13)

    @pytest.mark.parametrize("nmax", [0, 7, 31])
    def test_f_series_is_g_at_coefficients(self, config, nmax):
        op = DifferentialOperator([1.5, 0.3 - 0.2j, -0.6])
        sol = solve(op, BesselSeries([0.5 + 0.25j, -1.0 + 0.75j, 0.3 - 0.1j]), nmax, config)
        want = coeff_bar(sol.g_at).coeffs[:nmax + 1]
        assert sol.f_series.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nmax", [32, 100, 128])
    def test_nmax_up_to_128_zero_padded(self, config, nmax):
        # 2 - t^2 resolves at N = 64; coefficients beyond it are zeros
        sol = solve(DifferentialOperator([2.0, 0.0, 1.0]), BesselSeries([2.0]), nmax, config)
        c = coeff_bar(sol.g_at).coeffs
        assert c.size == 65 and len(sol.f_series) == nmax + 1
        assert np.array_equal(sol.f_series.coeffs, np.pad(c, (0, 64))[:nmax + 1])

    @pytest.mark.parametrize("coeffs", [[2.0, 0.0, 1.0], [1.21, 0.0, 1.0], [1.0, 0.0, -1.0]],
                             ids=["2-t^2", "1.21-t^2", "1+t^2"])
    def test_g_matches_reference_far_out(self, coeffs):
        op, h = DifferentialOperator(coeffs), BesselSeries([2.0])
        want = reference_g(op, h)
        sol = solve(op, h, 16, None)
        err = np.max(np.abs(sol.g_at(REF_Z) - want))
        assert err <= 1e-13 * np.max(np.abs(want))
        assert sol.residual_report >= err

    def test_poles_near_band_edge(self):
        # F(it) = 1.0201 - t^2 has roots at +/- 1.01; g(0) = ln(201) / 1.01
        op, h = DifferentialOperator([1.0201, 0.0, 1.0]), BesselSeries([2.0])
        sol = solve(op, h, 16, None)
        err = np.max(np.abs(sol.g_at(REF_Z) - reference_g(op, h)))
        assert err < sol.residual_report < 1e-4
        assert abs(sol.g_at(0.0) - math.log(201.0) / 1.01) <= sol.residual_report
        with pytest.raises(ConvergenceError, match="exceeds threshold 1.000e-10"):
            solve(op, h, 16, None, residual_threshold=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.25, 4.0), st.floats(-math.pi, math.pi),
           st.lists(st.complex_numbers(max_magnitude=3.0).filter(  # 0.01 off [-1, 1]
               lambda r: abs(r - np.clip(r.real, -1.0, 1.0)) >= 0.01), min_size=2, max_size=2),
           st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=4))
    # a double root 0.0101 from the band: the error of g is 3.5 sum 2|r_n|
    @example(1.0, 0.0, [0.4 + 0.0101j, 0.4 + 0.0101j], [2.0])
    def test_residual_bounds_error(self, modulus, phase, roots, h_coeffs):
        op = operator_with_roots(modulus * np.exp(1j * phase), roots)
        h = BesselSeries(h_coeffs)
        sol = solve(op, h, 8, None)
        assert sol.residual_report >= np.max(np.abs(sol.g_at(REF_Z) - reference_g(op, h)))

    def test_h_type_checked(self, config):
        with pytest.raises(DomainError):
            solve(DifferentialOperator([1.0]), LegendreSeries([1.0]), 4,
                  config)


class TestOperatorJson:
    def test_roundtrip(self):
        op = DifferentialOperator([1.0, 2j, -1.0])
        back = operator_from_json(operator_to_json(op))
        np.testing.assert_allclose(back.coeffs, op.coeffs, atol=0)

    def test_malformed(self):
        for doc in ({}, {"op": [[1.0]]}, {"op": "x"}):
            with pytest.raises(DomainError):
                operator_from_json(doc)
