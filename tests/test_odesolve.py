import math

import numpy as np
import pytest

from bandlim import (BesselSeries, ConvergenceError, DifferentialOperator,
                     DomainError, LegendreSeries, SingularSymbolError,
                     TransformConfig, apply_operator, forward_transform,
                     gauss_legendre_rule, operator_from_json,
                     operator_to_json, solve, symbol_eval)


@pytest.fixture(scope="module")
def config():
    return TransformConfig()


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

    def test_degree_stability(self):
        cfg = TransformConfig(compact_rule=gauss_legendre_rule(48))
        op = DifferentialOperator([1.0, 0.0, -1.0])
        h = BesselSeries([2.0])
        s16 = solve(op, h, 16, cfg)
        s32 = solve(op, h, 32, cfg)
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

    def test_f_series_projection(self, config):
        # identity solve of h = 2 j_0: f(t) = 1, so cbar = [1, 0, ...]
        sol = solve(DifferentialOperator([1.0]), BesselSeries([2.0]), 4,
                    config)
        want = np.zeros(5, dtype=complex)
        want[0] = 1.0
        np.testing.assert_allclose(sol.f_series.coeffs, want, atol=1e-13)

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
