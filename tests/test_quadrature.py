import math

import numpy as np
import pytest

from bandlim import (ConvergenceError, EvaluationError, InvalidRuleError,
                     LineIntegralParams, QuadratureRule, TransformConfig,
                     forward_transform, gauss_legendre_rule,
                     integrate_compact, integrate_oscillatory_line)

# callables that do not map an array to an array of the same shape
NOT_VECTORIZED = {
    "scalar": lambda x: 1.0,
    "truncated": lambda x: x[:1],
    "stacked": lambda x: np.stack([x, x]),
}
not_vectorized = pytest.mark.parametrize(
    "fn", NOT_VECTORIZED.values(), ids=NOT_VECTORIZED.keys())


def assert_refused_after_one_call(run, fn):
    """run(f) raises EvaluationError after one call of f, on an array:
    never a point-by-point retry."""
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return fn(x)

    with pytest.raises(EvaluationError):
        run(counted)
    assert len(shapes) == 1 and shapes[0] != ()


class TestGaussLegendre:
    def test_one_point(self):
        rule = gauss_legendre_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=0)
        np.testing.assert_allclose(rule.weights, [2.0], atol=0)

    def test_two_point(self):
        rule = gauss_legendre_rule(2)
        c = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(rule.nodes, [-c, c], rtol=0, atol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=0,
                                   atol=1e-15)

    def test_sixteen_point_monomial(self):
        rule = gauss_legendre_rule(16)
        val = float(np.sum(rule.weights * rule.nodes ** 30))
        assert abs(val - 2.0 / 31.0) < 1e-14

    def test_polynomial_exactness(self):
        for npoints in range(1, 65):
            rule = gauss_legendre_rule(npoints)
            for d in range(0, 2 * npoints, 2):
                exact = 2.0 / (d + 1)
                val = float(np.sum(rule.weights * rule.nodes ** d))
                assert abs(val - exact) < 1e-13
            # odd degrees vanish by symmetry
            val = float(np.sum(rule.weights * rule.nodes ** (2 * npoints - 1)))
            assert abs(val) < 1e-13

    def test_symmetry_invariants(self):
        for npoints in [3, 8, 33, 100]:
            rule = gauss_legendre_rule(npoints)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-15
            assert np.max(np.abs(rule.weights - rule.weights[::-1])) <= 1e-14
            assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-14
            assert np.all(rule.weights > 0)

    def test_invalid_sizes(self):
        for bad in [0, -3, 5000, 2.5, "8"]:
            with pytest.raises(InvalidRuleError):
                gauss_legendre_rule(bad)

    def test_rule_validation(self):
        with pytest.raises(InvalidRuleError):
            QuadratureRule(np.array([0.5, -0.5]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidRuleError):
            QuadratureRule(np.array([-0.5, 0.5]), np.array([1.0, -1.0]))
        with pytest.raises(InvalidRuleError):
            QuadratureRule(np.array([-0.5, 0.5]), np.array([1.0, 1.5]))


class TestIntegrateCompact:
    def test_constant(self):
        rule = gauss_legendre_rule(8)
        assert integrate_compact(lambda t: np.ones_like(t), rule) == \
            pytest.approx(2.0, abs=1e-15)

    def test_odd(self):
        rule = gauss_legendre_rule(8)
        assert abs(integrate_compact(lambda t: t, rule)) < 1e-15

    def test_complex_exponential(self):
        rule = gauss_legendre_rule(32)
        val = integrate_compact(lambda t: np.exp(1j * math.pi * t), rule)
        assert abs(val) < 1e-14

    def test_nonfinite_integrand(self):
        rule = gauss_legendre_rule(4)
        with pytest.raises(EvaluationError):
            integrate_compact(lambda t: np.where(t > 0, np.nan, 1.0), rule)

    @not_vectorized
    @pytest.mark.parametrize("run", [
        lambda f: integrate_compact(f, gauss_legendre_rule(8)),
        lambda f: forward_transform(f, 1.0, TransformConfig()),
    ], ids=["integrate_compact", "forward_transform"])
    def test_wrong_shape(self, run, fn):
        assert_refused_after_one_call(run, fn)

    def test_forward_transform_nonfinite(self):
        with pytest.raises(EvaluationError):
            forward_transform(lambda t: np.where(t > 0, np.nan, 1.0), 1.0,
                              TransformConfig())


class TestLineIntegralParams:
    def test_defaults_valid(self):
        p = LineIntegralParams()
        assert p.tol > 0
        assert p.max_segments >= p.acceleration_terms >= 4

    def test_invalid(self):
        with pytest.raises(InvalidRuleError):
            LineIntegralParams(tol=0.0)
        with pytest.raises(InvalidRuleError):
            LineIntegralParams(initial_halfwidth=-1.0)
        with pytest.raises(InvalidRuleError):
            LineIntegralParams(acceleration_terms=2)
        with pytest.raises(InvalidRuleError):
            LineIntegralParams(max_segments=5, acceleration_terms=10)


def j0_env(y):
    y = np.asarray(y, dtype=float)
    return np.sin(y) / y


def _j1(y):
    y = np.asarray(y, dtype=float)
    return np.sin(y) / y ** 2 - np.cos(y) / y


class TestOscillatoryLine:
    def test_j0_integral(self):
        val = integrate_oscillatory_line(j0_env, 0.0)
        assert abs(val - math.pi) < 1e-6

    def test_gaussian(self):
        val = integrate_oscillatory_line(
            lambda y: np.exp(-np.asarray(y, dtype=float) ** 2), 0.0)
        assert abs(val - math.sqrt(math.pi)) < 1e-9

    def test_j1_odd(self):
        val = integrate_oscillatory_line(_j1, 0.0)
        assert abs(val) < 1e-8

    def test_consistency_under_refinement(self):
        base = LineIntegralParams()
        fine = LineIntegralParams(tol=base.tol / 2,
                                  max_segments=2 * base.max_segments)
        for t in [0.0, 0.4]:
            a = integrate_oscillatory_line(j0_env, t, base)
            b = integrate_oscillatory_line(j0_env, t, fine)
            assert abs(a - b) <= 5 * base.tol * max(1.0, abs(a))

    def test_conjugation(self):
        for t in [0.0, 0.3, 0.7]:
            a = integrate_oscillatory_line(j0_env, t)
            b = integrate_oscillatory_line(
                lambda y: np.conj(j0_env(y)), -t)
            assert abs(b - np.conj(a)) < 1e-8

    def test_nonconvergence_carries_last_values(self):
        params = LineIntegralParams(tol=1e-16, max_segments=24,
                                    acceleration_terms=8)
        with pytest.raises(ConvergenceError) as info:
            integrate_oscillatory_line(j0_env, 0.97, params)
        assert info.value.last_values
        assert all(np.isfinite(complex(v).real)
                   for v in info.value.last_values)

    def test_nonfinite_t(self):
        with pytest.raises(EvaluationError):
            integrate_oscillatory_line(j0_env, math.nan)

    @not_vectorized
    def test_wrong_shape(self, fn):
        assert_refused_after_one_call(
            lambda f: integrate_oscillatory_line(f, 0.0), fn)
