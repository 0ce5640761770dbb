import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bandlim.quadrature
import bandlim.transform
from bandlim import (PAPER_QUARTER, BesselSeries, ConvergenceError,
                     DifferentialOperator, DomainError, EvaluationError, InvalidOrderError,
                     InvalidRuleError, LegendreSeries, LineIntegralParams,
                     RuleTooSmallError, TransformConfig, apply_operator,
                     bauer_partial_sum, bessel_projection,
                     calibrate_normalization, coeff_bar, coeff_unbar,
                     forward_transform, gauss_legendre_rule,
                     half_integer_bessel_via_poisson,
                     integrate_oscillatory_line, inverse_transform,
                     legendre_all, legendre_projection, orthogonality_matrix_j, roundtrip,
                     series_from_json, series_to_json, solve, spherical_j,
                     spherical_j_all, symbol_eval)
from bandlim.specfun import MAX_ORDER, _jn_table


@pytest.fixture(scope="module")
def config():
    return TransformConfig()


def pointwise(fn, grid):
    """fn at each element of grid as a Python float, in the grid's shape."""
    values = [fn(float(x)) for x in grid.flat]
    return np.array(values, dtype=complex).reshape(grid.shape)


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSeriesTypes:
    def test_legendre_eval(self):
        f = LegendreSeries([1.0, 2.0, 3.0])
        t = 0.4
        expected = 1.0 + 2.0 * t + 3.0 * (3 * t * t - 1) / 2
        assert complex(f(t)) == pytest.approx(expected, abs=1e-14)

    def test_bessel_eval(self):
        g = BesselSeries([0.0, 1.0])
        assert complex(g(1.0)) == pytest.approx(spherical_j(1, 1.0),
                                                abs=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            LegendreSeries([])
        with pytest.raises(DomainError):
            BesselSeries([1.0, math.nan])

    @pytest.mark.parametrize("cls", [LegendreSeries, BesselSeries])
    def test_order_above_max_refused(self, cls):
        assert len(cls(np.ones(MAX_ORDER + 1))) == MAX_ORDER + 1
        with pytest.raises(InvalidOrderError, match="order 129"):
            cls(np.ones(MAX_ORDER + 2))

    def test_scalar_in_scalar_out(self):
        assert isinstance(BesselSeries([2.0])(1.0), complex)
        assert isinstance(LegendreSeries([2.0])(0.5), complex)

    @pytest.mark.parametrize("degree", [0, 1, 3, 8, 16, 31])
    def test_bessel_values_independent_of_grid_shape(self, degree):
        # summed term by term: a point gets the same bits in a grid of 768,
        # in a chunk of about 110 and alone
        rng = np.random.default_rng(degree)
        g = BesselSeries(rng.standard_normal(degree + 1)
                         + 1j * rng.standard_normal(degree + 1))
        z = np.linspace(-60.0, 60.0, 768) + rng.uniform(-0.05, 0.05, 768)
        whole = g(z)
        chunks = np.concatenate([g(part) for part in np.array_split(z, 7)])
        alone = np.array([g(float(s)) for s in z])
        assert same_bits(chunks, whole) and same_bits(alone, whole)

    @pytest.mark.parametrize("degree", [0, 8, 31, 64, 128])
    def test_legendre_values_independent_of_grid_shape(self, degree):
        # the same ordered sum as BesselSeries: a point gets the same bits in
        # a grid of 257, in a 2-d block and alone
        rng = np.random.default_rng(degree)
        f = LegendreSeries(rng.standard_normal(degree + 1)
                           + 1j * rng.standard_normal(degree + 1))
        t = np.linspace(-1.0, 1.0, 257)
        whole = f(t)
        block = f(t[:256].reshape(16, 16)).ravel()
        alone = np.array([f(float(s)) for s in t])
        assert same_bits(block, whole[:256]) and same_bits(alone, whole)

    def test_bar_unbar_roundtrip(self):
        g = BesselSeries([1 + 1j, 2.0, -3j, 0.5])
        back = coeff_unbar(coeff_bar(g))
        np.testing.assert_allclose(back.coeffs, g.coeffs, atol=1e-15)

    def test_bar_values(self):
        g = BesselSeries([2.0, 2j])
        f = coeff_bar(g)
        np.testing.assert_allclose(f.coeffs, [1.0, 1.0], atol=1e-15)


class TestForward:
    def test_p0_at_pi(self, config):
        f = LegendreSeries([1.0])
        assert abs(forward_transform(f, math.pi, config)) < 1e-13

    def test_single_modes(self, config):
        # forward of P_n is 2 i^n j_n
        for n in range(11):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            f = LegendreSeries(coeffs)
            for z in [0.5, 1.0, 5.0, 10.0]:
                got = forward_transform(f, z, config)
                want = 2.0 * 1j ** n * spherical_j(n, z)
                assert abs(got - want) < 1e-12

    def test_rational_function(self, config):
        val = forward_transform(lambda t: 1.0 / (1.0 + t * t), 0.0, config)
        assert abs(val - math.pi / 2) < 1e-12

    @pytest.mark.parametrize("z", [35.0, 60.0, 200.0, 1000.0])
    def test_p0_beyond_the_compact_rule(self, config, z):
        # a Legendre series maps exactly, at any z: forward of P_0 is 2 sin z / z
        got = forward_transform(LegendreSeries([1.0]), z, config)
        assert abs(got - 2.0 * math.sin(z) / z) <= 1e-16

    @pytest.mark.parametrize("z", [1.0, 35.0, 60.0, 200.0, 1000.0])
    def test_exp_beyond_the_compact_rule(self, config, z):
        # int_-1^1 e^t e^{izt} dt = (e^{1+iz} - e^{-1-iz}) / (1+iz); the
        # degree-31 interpolant of e^t at the 32 nodes is exact to rounding
        a = 1.0 + 1j * z
        want = (np.exp(a) - np.exp(-a)) / a
        assert abs(forward_transform(np.exp, z, config) - want) <= 1e-15


class TestInverse:
    def test_recovers_p0(self, config):
        g = BesselSeries([2.0])
        assert abs(inverse_transform(g, 0.0, config) - 1.0) < 1e-6

    def test_paper_quarter_value(self):
        cfg = TransformConfig(normalization=PAPER_QUARTER)
        g = BesselSeries([2.0])
        val = inverse_transform(g, 0.0, cfg)
        assert abs(val - 2 * math.pi / 4) < 1e-6

    def test_odd_mode_vanishes_at_zero(self, config):
        g = BesselSeries([0.0, 2j])
        assert abs(inverse_transform(g, 0.0, config)) < 1e-8

    def test_domain(self, config):
        g = BesselSeries([1.0])
        for t in [1.0, -1.0, 1.5]:
            with pytest.raises(DomainError):
                inverse_transform(g, t, config)

    def test_interior_values(self, config):
        # inverse of 2 j_0 is the constant 1 on (-1, 1)
        g = BesselSeries([2.0])
        for t in [-0.9, -0.25, 0.5, 0.95]:
            assert abs(inverse_transform(g, t, config) - 1.0) < 1e-6

    def test_overflowing_series_refused_at_once(self, config):
        # 1.7e308 (j_0 + j_1) overflows near y = 0, in the middle core
        # chunk: the core raises, before any tail segment is integrated
        g = BesselSeries([1.7e308, 1.7e308])
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError,
                               match=r"integrand not finite at node\(s\) \[0\.30352602 "):
                inverse_transform(g, 0.3, config)


class TestCalibration:
    def test_value(self, config):
        c = calibrate_normalization(config)
        assert abs(c - 6.2831853) < 1e-5

    def test_mode_two_consistency(self, config):
        c0 = calibrate_normalization(config)
        c2 = calibrate_normalization(config, mode=2)
        assert abs(c2 - c0) < 1e-5

    def test_odd_mode_rejected(self, config):
        with pytest.raises(DomainError):
            calibrate_normalization(config, mode=1)

    def test_divisor_conventions(self, config):
        assert config.divisor() == calibrate_normalization(config)
        assert TransformConfig().divisor() == 2 * math.pi
        assert TransformConfig(PAPER_QUARTER).divisor() == 4.0

    def test_bad_normalization(self):
        with pytest.raises(DomainError):
            TransformConfig(normalization="whatever")

    @pytest.mark.parametrize("params", ["1e-9", (1e-9, 400), 1e-9])
    def test_line_params_must_be_line_integral_params(self, params):
        with pytest.raises(InvalidRuleError, match="LineIntegralParams"):
            TransformConfig(line_params=params)

    def test_config_keeps_no_computed_state(self):
        # inverses and calibrations at every even mode leave a config
        # attribute for attribute equal to a fresh one
        cfg = TransformConfig()
        inverse_transform(BesselSeries([2.0, 0.5j]), np.array([0.3, -0.3, 0.6]), cfg)
        for mode in range(0, 129, 2):
            calibrate_normalization(cfg, mode)
        fresh = TransformConfig()
        names = [f.name for f in dataclasses.fields(TransformConfig)]
        assert names == ["normalization", "line_params"]
        assert set(vars(cfg)) == set(vars(fresh)) == set(names)
        assert cfg.normalization == fresh.normalization
        assert cfg.line_params == fresh.line_params
        assert cfg.divisor() == fresh.divisor() == calibrate_normalization(fresh)

    @pytest.mark.parametrize("field", ["normalization", "line_params"])
    def test_config_is_frozen(self, field):
        cfg = TransformConfig()
        with pytest.raises(AttributeError):
            setattr(cfg, field, getattr(cfg, field))
        with pytest.raises(AttributeError):
            cfg._cache = 1.0


class TestProjections:
    def test_legendre_projection_of_mode(self):
        rule = gauss_legendre_rule(32)
        f = LegendreSeries([0.0, 0.0, 0.0, 1.0])
        proj = legendre_projection(f, 5, rule)
        want = np.array([0, 0, 0, 1, 0, 0], dtype=complex)
        np.testing.assert_allclose(proj.coeffs, want, atol=1e-13)

    @pytest.mark.parametrize("npoints", [1, 32, 200])
    def test_legendre_projection_of_series_reads_no_rule(self, npoints):
        # P_40 has no component of degree <= 31; sampling it on 32 points
        # aliases P_40 onto cbar_24
        p40 = LegendreSeries(np.eye(41)[40])
        proj = legendre_projection(p40, 31, gauss_legendre_rule(npoints))
        assert same_bits(proj.coeffs, np.zeros(32, dtype=complex))
        assert same_bits(legendre_projection(p40, 31).coeffs, proj.coeffs)

    @pytest.mark.parametrize("nmax", [5, 40, 128])
    def test_legendre_projection_of_series_pads_with_zeros(self, nmax):
        cbar = np.array([0.5, -0.25j, 1.0 + 2.0j, -0.75])
        proj = legendre_projection(LegendreSeries(cbar), nmax, gauss_legendre_rule(32))
        want = np.concatenate([cbar, np.zeros(nmax - 3, dtype=complex)])
        assert same_bits(proj.coeffs, want)

    def test_rule_too_small(self):
        rule = gauss_legendre_rule(4)
        with pytest.raises(RuleTooSmallError):
            legendre_projection(lambda t: t, 6, rule)
        with pytest.raises(RuleTooSmallError, match="at least 7 points"):
            legendre_projection(lambda t: t, 6)

    def test_bessel_projection_of_mode(self, config):
        g = BesselSeries([0.0, 0.0, 1.0])
        proj = bessel_projection(g, 4, config)
        want = np.array([0, 0, 1, 0, 0], dtype=complex)
        assert np.max(np.abs(proj.coeffs - want)) < 1e-6

    def test_bessel_projection_linearity(self, config):
        g = BesselSeries([0.5, 0.0, -2.0])
        proj = bessel_projection(g, 2, config)
        want = np.array([0.5, 0.0, -2.0], dtype=complex)
        assert np.max(np.abs(proj.coeffs - want)) < 1e-6


class TestBauer:
    def test_plane_wave(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = float(rng.uniform(-10, 10))
            t = float(rng.uniform(-1, 1))
            s = bauer_partial_sum(z, t, 60)
            assert abs(s - np.exp(1j * z * t)) < 1e-10

    def test_endpoint(self):
        s = bauer_partial_sum(1.0, 1.0, 40)
        assert abs(s - np.exp(1j)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            bauer_partial_sum(1.0, 1.5, 10)
        with pytest.raises(DomainError):
            bauer_partial_sum(1.0, math.nan, 10)


class TestOrthogonality:
    def test_gram_structure(self):
        gram = orthogonality_matrix_j(4, LineIntegralParams(tol=1e-8))
        assert abs(gram[0, 2]) < 1e-6
        off = gram - np.diag(gram.diagonal())
        assert np.max(np.abs(off)) < 1e-6
        n = np.arange(5)
        scaled = gram.diagonal() * (2 * n + 1)
        const = float(np.mean(scaled))
        assert np.max(np.abs(scaled - const)) / const < 1e-4

    def test_nmax_limit(self):
        with pytest.raises(DomainError):
            orthogonality_matrix_j(64, LineIntegralParams())


class TestRoundtrip:
    def test_two_j0(self, config):
        g = BesselSeries([2.0])
        val = roundtrip(g, 1.0, config)
        assert abs(val - 1.6829420) < 1e-5

    def test_random_series(self, config):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g = BesselSeries(coeffs)
        zs = np.array([0.0, 2.0])
        for z, got in zip(zs, roundtrip(g, zs, config)):
            want = complex(g(z))
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


class TestJson:
    def test_roundtrip(self):
        for series in (LegendreSeries([1.0, 2j]), BesselSeries([0.5, -1.0])):
            back = series_from_json(series_to_json(series))
            assert type(back) is type(series)
            np.testing.assert_allclose(back.coeffs, series.coeffs, atol=0)

    def test_malformed(self):
        for doc in ({}, {"kind": "bessel"}, {"kind": "nope", "coeffs": []},
                    {"kind": "legendre", "coeffs": [[1.0]]}):
            with pytest.raises(DomainError):
                series_from_json(doc)
        with pytest.raises(DomainError, match="not a series"):
            series_to_json([1.0, 2.0])


class TestGridCalls:
    """A scalar or an array goes in, a result of its shape comes out, equal
    bit for bit to one call per point."""

    Z_GRIDS = [np.array(2.5), np.array([-7.0, 0.0, 3.25]),
               np.array([[-40.0, 1.0], [0.5, 33.3]])]
    T_GRIDS = [np.array(-0.25), np.array([-0.6, 0.0, 0.5]),
               np.array([[0.1, -0.3], [0.7, 0.2]])]

    @pytest.mark.parametrize("z", Z_GRIDS, ids=["0d", "1d", "2d"])
    def test_forward(self, config, z):
        f = LegendreSeries([0.3 - 0.2j, 1.1, -0.7j, 0.2])
        got = forward_transform(f, z, config)
        assert same_bits(got, pointwise(lambda s: forward_transform(f, s, config), z))

    @pytest.mark.parametrize("z", Z_GRIDS, ids=["0d", "1d", "2d"])
    def test_apply_operator(self, config, z):
        op = DifferentialOperator([1.5, 0.3, -0.6])
        f = LegendreSeries([0.3 - 0.2j, 1.1, -0.7j])
        got = apply_operator(op, f, z, config)
        assert same_bits(got, pointwise(lambda s: apply_operator(op, f, s, config), z))

    @pytest.mark.parametrize("z", Z_GRIDS, ids=["0d", "1d", "2d"])
    def test_g_at(self, config, z):
        sol = solve(DifferentialOperator([1.0, 0.0, -1.0]), BesselSeries([2.0, 0.5j]),
                    16, config)
        assert same_bits(sol.g_at(z), pointwise(sol.g_at, z))

    def test_scalar_in_scalar_out(self, config):
        g = BesselSeries([2.0])
        assert isinstance(forward_transform(LegendreSeries([1.0]), 1.0, config), complex)
        assert isinstance(inverse_transform(g, 0.5, config), complex)

    @pytest.mark.parametrize("t", T_GRIDS, ids=["0d", "1d", "2d"])
    def test_inverse(self, config, t):
        g = BesselSeries([0.5 + 0.1j, -0.3 + 0.7j, 0.9 - 0.2j])
        got = inverse_transform(g, t, config)
        assert same_bits(got, pointwise(lambda s: inverse_transform(g, s, config), t))

    def test_roundtrip(self, config):
        g = BesselSeries([0.5 + 0.1j, -0.3, 0.9j])
        at = {z: roundtrip(g, z, config) for z in (0.0, 2.0, 7.0, -1.5)}
        for z in (np.array(2.0), np.array([0.0, 2.0, 7.0]),
                  np.array([[0.0, 7.0], [2.0, -1.5]])):
            assert same_bits(roundtrip(g, z, config), pointwise(at.__getitem__, z))

    def test_roundtrip_runs_one_inverse_leg(self, config, monkeypatch):
        # the 32 nodes of the symmetric segment rule are 16 stacks of a t
        # and its -t
        config.divisor()
        calls = count_engine_calls(monkeypatch)
        roundtrip(BesselSeries([2.0]), np.array([0.0, 2.0, 7.0]), config)
        assert len(calls) == 16
        assert sum(np.size(t) for t in calls) == 32

    def test_inverse_checks_every_t_first(self, monkeypatch):
        # a fresh config: not even the divisor C* is integrated
        calls = count_engine_calls(monkeypatch)
        for entry in ("_line_integrals", "_line_rows"):
            monkeypatch.setattr(bandlim.quadrature, entry, getattr(bandlim.transform, entry))
        for t in ([0.2, 1.0], [0.1, 0.2, math.nan], math.nan, [0.2, math.inf],
                  [-math.inf, 0.2]):
            with pytest.raises(DomainError):
                inverse_transform(BesselSeries([2.0]), t, TransformConfig())
        assert calls == []


def count_engine_calls(monkeypatch):
    """The t of every engine call from the transform module, through either
    entry: the array result or the stream of converged rows."""
    calls = []

    def counting(engine):
        def call(*args, **kwargs):
            calls.append(args[1])
            return engine(*args, **kwargs)
        return call
    for entry in ("_line_integrals", "_line_rows"):
        monkeypatch.setattr(bandlim.transform, entry,
                            counting(getattr(bandlim.transform, entry)))
    return calls


def count_alone_calls(monkeypatch):
    """The t of every integrate_oscillatory_line call from the transform
    module: one point integrated on its own.  The module does not import
    it, so the name is set there, where a fallback that did would find it."""
    calls = []
    alone = bandlim.quadrature.integrate_oscillatory_line

    def call(envelope, t, params=None):
        calls.append(t)
        return alone(envelope, t, params)
    monkeypatch.setattr(bandlim.transform, "integrate_oscillatory_line", call,
                        raising=False)
    return calls


class TestStackedIntegrals:
    """The Gram matrix and a Bessel projection are one stacked line integral
    each, and every row equals a one-row call on its envelope values."""

    def test_gram_rows_equal_one_row_calls(self):
        # an entry with n + m even is a one-row call under the product
        # ratio (factors=2); j_n j_m is odd when n + m is, so its entry is 0
        gram = orthogonality_matrix_j(8)
        params = LineIntegralParams()
        for n in range(9):
            for m in range(n, 9):
                if (n + m) % 2:
                    assert gram[n, m] == gram[m, n] == 0.0
                    continue
                want = bandlim.quadrature._line_integrals(
                    lambda y: (_jn_table(8, y)[n] * _jn_table(8, y)[m])[None], 0.0, params,
                    factors=2)[0].real
                assert gram[n, m] == gram[m, n] == want

    def test_projection_rows_equal_one_row_calls(self):
        # a bare callable takes the stacked engine for its rows g j_n, and
        # divides them by the exact norms K_n = pi / (2n+1)
        cfg = TransformConfig()
        g = BesselSeries([0.5 + 0.1j, -0.3, 0.9j, 0.2])
        got = bessel_projection(lambda y: g(y), 4, cfg).coeffs
        raw = [integrate_oscillatory_line(lambda y: g(y) * _jn_table(4, y)[n], 0.0)
               for n in range(5)]
        norms = math.pi / (2 * np.arange(5) + 1)
        assert same_bits(got, np.array(raw) / norms)

    def test_one_engine_call_each(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        orthogonality_matrix_j(8)
        assert len(calls) == 1
        cfg = TransformConfig()
        g = BesselSeries([0.5, -0.3j, 0.9])
        bessel_projection(lambda y: g(y), 4, cfg)  # the rows g j_0 .. g j_4 only
        bessel_projection(lambda y: g(y), 4, cfg)
        assert len(calls) == 3

    def test_callable_projection_integrates_only_its_rows(self, monkeypatch):
        rows = []
        engine = bandlim.transform._line_integrals

        def integrals(envelope, t, params, labels=None):
            raw = engine(envelope, t, params, labels)
            rows.append(raw)
            return raw
        monkeypatch.setattr(bandlim.transform, "_line_integrals", integrals)
        g = BesselSeries([0.5 + 0.1j, -0.3, 0.9j, 0.2])
        got = bessel_projection(lambda y: g(y), 6, TransformConfig()).coeffs
        assert len(rows) == 1 and rows[0].shape == (7,)
        norms = math.pi / (2 * np.arange(7) + 1)
        assert same_bits(got, rows[0] / norms)

    def test_callable_projection_names_only_its_rows(self):
        with pytest.raises(ConvergenceError) as info:
            bessel_projection(lambda y: np.cos(y), 1, TransformConfig(
                line_params=LineIntegralParams(tol=1e-16, max_segments=12)))
        assert str(info.value).endswith("for c_0, c_1")

    @pytest.mark.parametrize("earlier", [5, 6, 7])
    def test_projection_independent_of_call_history(self, earlier):
        # a series projection is its own coefficients: an earlier
        # projection of higher degree on the same config leaves a result
        # unchanged
        g = BesselSeries([0.5, -0.3j, 0.9])
        fresh = bessel_projection(g, 4, TransformConfig()).coeffs
        cfg = TransformConfig()
        bessel_projection(g, earlier, cfg)
        assert same_bits(bessel_projection(g, 4, cfg).coeffs, fresh)

    def test_failing_rows_named(self):
        with pytest.raises(ConvergenceError) as info:
            orthogonality_matrix_j(2, LineIntegralParams(tol=1e-16, max_segments=12))
        assert "t=0.0" in str(info.value) and "G[0, 2]" in str(info.value)

    def test_inverse_grid_names_failing_index(self, config):
        g = BesselSeries([2.0])
        t = [0.0, 0.9, 1.0 - 1e-9]
        with pytest.raises(ConvergenceError) as info:
            inverse_transform(g, t, config)
        with pytest.raises(ConvergenceError) as alone:
            inverse_transform(g, t[2], config)
        assert "grid index 2" in str(info.value)
        assert f"t={t[2]!r}" in str(info.value)
        assert info.value.last_values == alone.value.last_values

    def test_inverse_grid_names_failing_index_at_a_tight_cap(self):
        # the twin of the edge case above, away from the edge: at 18
        # segments 0 and 0.8 converge and 0.9 does not
        config = TransformConfig(line_params=LineIntegralParams(max_segments=18))
        g = BesselSeries([2.0])
        t = [0.0, 0.8, 0.9]
        with pytest.raises(ConvergenceError) as info:
            inverse_transform(g, t, config)
        with pytest.raises(ConvergenceError) as alone:
            inverse_transform(g, t[2], config)
        assert "grid index 2" in str(info.value)
        assert f"t={t[2]!r}" in str(info.value)
        assert info.value.last_values == alone.value.last_values


def pointwise_inverse(g, t, config):
    """The inverse as one line integral per point in flat order, each
    divided in Python by the divisor taken once up front: the loop the
    stacks replace."""
    t = np.asarray(t, dtype=float)
    divisor = config.divisor()
    values = np.empty(t.shape, dtype=complex)
    for i, s in enumerate(t.flat):
        try:
            raw = integrate_oscillatory_line(g, s, config.line_params)
        except ConvergenceError as exc:
            raise ConvergenceError(f"inverse_transform at grid index {i}: {exc}",
                                   last_values=exc.last_values) from exc
        values.flat[i] = raw / divisor
    return values[()]


def inverse_outcome(inverse, g, t, config):
    try:
        return np.asarray(inverse(g, t, config)).tobytes()
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "last_values", None)


G3 = BesselSeries([0.5 + 0.1j, -0.3 + 0.7j, 0.9 - 0.2j])
G4 = BesselSeries([0.3, 1j, 0.2, -0.5j])


class FailingCalibration(TransformConfig):
    def divisor(self):
        raise ConvergenceError("calibration did not converge")


class TestInverseStacks:
    """inverse_transform integrates every point sharing one |t| as a row of
    one stack, and equals the point-by-point loop bit for bit, errors
    included."""

    GRIDS = {
        "rule32": gauss_legendre_rule(32).nodes,
        "linspace41": np.linspace(-0.99, 0.99, 41),
        "zero": np.array(0.0),
        "signed-zeros": np.array([0.0, -0.0, 0.5, -0.0]),
        "repeated": np.array([0.4, -0.4, 0.4, 0.1, 0.4]),
        "2d": np.array([[0.3, -0.7, 0.0], [-0.3, 0.7, 0.3]]),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_grid_equals_pointwise(self, config, name):
        t = self.GRIDS[name]
        got = inverse_transform(G3, t, config)
        assert same_bits(np.asarray(got), np.asarray(pointwise_inverse(G3, t, config)))

    def test_one_engine_call_per_abs_t(self, config, monkeypatch):
        config.divisor()
        calls = count_engine_calls(monkeypatch)
        inverse_transform(G3, self.GRIDS["repeated"], config)
        assert [np.asarray(t).tolist() for t in calls] == [[0.4, -0.4], [0.1]]

    @settings(max_examples=40, deadline=None)
    @given(t=st.lists(st.sampled_from([0.0, -0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9,
                                       0.97, -0.97]), min_size=1, max_size=6),
           g=st.sampled_from([G3, G4]),
           params=st.sampled_from([(1e-9, 13), (1e-10, 18), (1e-9, 400)]),
           config_type=st.sampled_from([TransformConfig, FailingCalibration]))
    # the |t| = 0.95 stack fails at 0.95 after -0.95 converged: a failing
    # divisor surfaces before any integral, else grid index 1 of a later stack
    @example(t=[-0.95, 0.95], g=G4, params=(1e-9, 30), config_type=FailingCalibration)
    @example(t=[-0.95, -0.97, 0.95], g=G4, params=(1e-9, 30), config_type=TransformConfig)
    def test_grid_errors_equal_pointwise(self, t, g, params, config_type):
        # a fresh config each: both take the divisor before any integral
        params = LineIntegralParams(*params)
        assert (inverse_outcome(inverse_transform, g, t, config_type(line_params=params))
                == inverse_outcome(pointwise_inverse, g, t, config_type(line_params=params)))

    @pytest.mark.parametrize("t", [[-0.97, 0.97], [-0.97, -0.95, 0.97]])
    def test_stack_evaluation_errors_equal_pointwise(self, t):
        # alone, -0.97 converges on nodes |y| < 770 and 0.97 needs nodes beyond,
        # so their stack meets the NaN; -0.95 fails to converge before 0.97 is
        # reached, so that grid raises grid index 1 as the loop does
        g = lambda y: np.where(np.abs(y) < 770.0, G3(y), np.nan)
        params = LineIntegralParams(1e-10, 36)
        got = inverse_outcome(inverse_transform, g, t, TransformConfig(line_params=params))
        assert got[0] == ("EvaluationError" if len(t) == 2 else "ConvergenceError")
        assert got == inverse_outcome(pointwise_inverse, g, t,
                                      TransformConfig(line_params=params))

    def test_failing_stack_is_one_engine_call(self, monkeypatch):
        # alone, -0.95 converges and 0.95 does not: the stack streams -0.95's
        # value, then gives 0.95 its own error, with no point integrated again
        config = TransformConfig(line_params=LineIntegralParams(1e-9, 30))
        config.divisor()
        t = [-0.95, 0.95]
        want = inverse_outcome(pointwise_inverse, G4, t, config)
        assert want[0] == "ConvergenceError" and "grid index 1" in want[1]
        calls, alone = count_engine_calls(monkeypatch), count_alone_calls(monkeypatch)
        assert inverse_outcome(inverse_transform, G4, t, config) == want
        assert len(calls) == 1 and alone == []

    def test_failing_edge_stack_raises_its_first_point(self, config, monkeypatch):
        config.divisor()
        calls, alone = count_engine_calls(monkeypatch), count_alone_calls(monkeypatch)
        edge = 1.0 - 1e-9
        with pytest.raises(ConvergenceError, match="grid index 0") as info:
            inverse_transform(BesselSeries([2.0]), [-edge, edge], config)
        assert f"t={-edge!r}" in str(info.value)
        assert len(calls) == 1 and alone == []

    def test_failing_stack_raises_its_first_point_at_a_tight_cap(self, monkeypatch):
        # the twin of the edge case above, away from the edge: at 18
        # segments both 0.9 and -0.9 fail
        config = TransformConfig(line_params=LineIntegralParams(max_segments=18))
        config.divisor()
        calls, alone = count_engine_calls(monkeypatch), count_alone_calls(monkeypatch)
        with pytest.raises(ConvergenceError, match="grid index 0") as info:
            inverse_transform(BesselSeries([2.0]), [-0.9, 0.9], config)
        assert f"t={-0.9!r}" in str(info.value)
        assert len(calls) == 1 and alone == []

    def test_one_row_stack_error_is_not_redone(self, monkeypatch):
        config = TransformConfig(line_params=LineIntegralParams(1e-9, 13))
        config.divisor()
        alone = []
        monkeypatch.setattr(bandlim.transform, "integrate_oscillatory_line",
                            lambda *args: alone.append(args), raising=False)
        t = [0.3, 0.97, -0.3]  # the 0.97 stack has one row and fails
        got = inverse_outcome(inverse_transform, G3, t, config)
        assert alone == []
        assert "grid index 1" in got[1]
        monkeypatch.undo()
        assert got == inverse_outcome(pointwise_inverse, G3, t, config)


class TestExactSeriesPath:
    """Calibration and projections of a BesselSeries are closed forms, with
    no line integral; the accelerated engine measures C* = 2 pi."""

    @pytest.mark.parametrize("mode", range(0, 11, 2))
    def test_calibration_is_two_pi(self, mode):
        assert abs(calibrate_normalization(TransformConfig(), mode) - 2 * math.pi) < 1e-14

    @pytest.mark.parametrize("mode", range(0, 17, 2))
    def test_engine_measures_two_pi(self, mode):
        # int j_m dy = pi |P_m(0)| = pi C(m, m/2) / 2^m on the accelerated
        # engine, so 2^(m+1) int j_m dy / C(m, m/2) is the divisor 2 pi
        v = integrate_oscillatory_line(lambda y: _jn_table(mode, y)[mode], 0.0)
        measured = math.ldexp(v.real, mode + 1) / math.comb(mode, mode // 2)
        assert abs(measured - 2 * math.pi) < 1e-13

    @pytest.mark.xfail(strict=True, reason="the engine's core and first tail "
                       "checks see almost nothing of j_64, which is negligible for "
                       "|y| < 64, and two checks that agree near 0 pass")
    def test_engine_reaches_order_64(self):
        # int j_64 dy = pi |P_64(0)| = 0.312; the engine returns about 0
        # without raising
        v = integrate_oscillatory_line(lambda y: _jn_table(64, y)[64], 0.0)
        want = math.pi * math.comb(64, 32) / 2 ** 64
        assert abs(v - want) < 1e-6 * want

    def test_calibration_does_not_read_line_params(self):
        # C* is exact, so it needs no tolerance, and a cap small enough to
        # stop every line integral does not stop it
        tight = TransformConfig(line_params=LineIntegralParams(tol=1e-3, max_segments=12))
        assert calibrate_normalization(tight) == calibrate_normalization(TransformConfig())

    def test_no_accelerated_engine_call(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        cfg = TransformConfig()
        calibrate_normalization(cfg, 4)
        bessel_projection(BesselSeries([0.5, -0.3j, 0.9]), 4, cfg)
        assert calls == []

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                              allow_infinity=False),
                           min_size=1, max_size=17),
           extra=st.integers(0, 3))
    @example(coeffs=[1.0] * 17, extra=0)
    def test_projection_recovers_coefficients(self, coeffs, extra):
        nmax = len(coeffs) - 1 + extra
        got = bessel_projection(BesselSeries(coeffs), nmax, TransformConfig()).coeffs
        assert same_bits(got, np.array(coeffs + [0] * extra, dtype=complex))

    def test_projection_below_degree(self):
        # projecting to fewer orders than g has keeps the leading coefficients
        g = BesselSeries([0.3, -1j, 0.5, 0.2 + 0.1j, 0.7])
        got = bessel_projection(g, 2, TransformConfig()).coeffs
        assert same_bits(got, g.coeffs[:3])

    def test_projection_does_not_read_tol(self):
        g = BesselSeries([0.5 + 0.1j, -0.3, 0.9j, 0.2])
        loose = TransformConfig(line_params=LineIntegralParams(tol=1e-3))
        assert same_bits(bessel_projection(g, 4, loose).coeffs,
                         bessel_projection(g, 4, TransformConfig()).coeffs)

    def test_results_depend_only_on_inputs(self):
        # the first calls, and calls after other orders on this and a fresh
        # config, give the same bits
        g = BesselSeries([0.5, -0.3j, 0.9])
        cfg = TransformConfig()
        cold = bessel_projection(g, 4, cfg).coeffs, calibrate_normalization(cfg, 4)
        for config in (cfg, TransformConfig()):
            for nmax in (2, 7, 12):
                bessel_projection(BesselSeries([1.0, 0.2j]), nmax, config)
            for mode in (0, 2, 6, 16):
                calibrate_normalization(config, mode)
        for config in (cfg, TransformConfig()):
            assert same_bits(bessel_projection(g, 4, config).coeffs, cold[0])
            assert calibrate_normalization(config, 4) == cold[1]

    def test_calibration_is_two_pi_to_max_order(self):
        cfg = TransformConfig()
        assert all(calibrate_normalization(cfg, mode) == 2 * math.pi
                   for mode in range(0, 129, 2))

    @pytest.mark.parametrize("degree", [32, 64, 128])
    def test_projection_recovers_high_degree(self, degree):
        # the coefficients themselves, up to the supported maximum degree
        rng = np.random.default_rng(degree)
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        got = bessel_projection(BesselSeries(c), degree, TransformConfig()).coeffs
        assert same_bits(got, c)

    def test_projection_to_high_nmax(self):
        # 2 j_0 projected up to the supported maximum: zeros past c_0
        g = BesselSeries([2.0])
        for nmax in (70, 71, 128):
            got = bessel_projection(g, nmax, TransformConfig()).coeffs
            assert same_bits(got, 2.0 * np.eye(nmax + 1, dtype=complex)[0])

    @pytest.mark.parametrize("degree", [0, 8, 70, 71, 128])
    def test_projection_reads_no_config(self, degree):
        # a tolerance and a segment cap that stop every accelerated line
        # integral, or no config at all, leave a series projection's bits
        rng = np.random.default_rng(degree)
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        want = bessel_projection(BesselSeries(c), degree, TransformConfig()).coeffs
        tight = TransformConfig(line_params=LineIntegralParams(tol=1e-16, max_segments=12))
        for config in (tight, None):
            assert same_bits(bessel_projection(BesselSeries(c), degree, config).coeffs, want)
        assert same_bits(want, c)


_OP = DifferentialOperator([1.0, 0.0, -1.0])

# every public function of a z or a t: those that take an array, then
# those that take a scalar only
REAL_ARGUMENT = [(name, call, True) for name, call in [
    ("forward_transform", lambda x: forward_transform(LegendreSeries([1.0]), x, None)),
    ("forward_transform-callable", lambda x: forward_transform(np.exp, x, None)),
    ("BesselSeries", lambda x: BesselSeries([1.0])(x)),
    ("LegendreSeries", lambda x: LegendreSeries([1.0, 2.0])(x)),
    ("inverse_transform", lambda x: inverse_transform(BesselSeries([2.0]), x,
                                                      TransformConfig())),
    ("spherical_j_all", lambda x: spherical_j_all(3, x)),
    ("legendre_all", lambda x: legendre_all(3, x)),
    ("symbol", _OP.symbol),
    ("apply_operator", lambda x: apply_operator(_OP, np.exp, x, None)),
    ("apply_operator-series",
     lambda x: apply_operator(_OP, LegendreSeries([1.0, 2.0]), x, None)),
    ("roundtrip", lambda x: roundtrip(BesselSeries([2.0]), x, TransformConfig())),
    ("g_at", lambda x: solve(_OP, BesselSeries([2.0]), 4, None).g_at(x)),
]] + [(name, call, False) for name, call in [
    ("spherical_j", lambda x: spherical_j(2, x)),
    ("symbol_eval", lambda x: symbol_eval(_OP, x)),
    ("integrate_oscillatory_line", lambda x: integrate_oscillatory_line(np.sinc, x)),
    ("bauer_partial_sum-z", lambda x: bauer_partial_sum(x, 0.3, 5)),
    ("bauer_partial_sum-t", lambda x: bauer_partial_sum(1.0, x, 5)),
    ("half_integer_bessel_via_poisson",
     lambda x: half_integer_bessel_via_poisson(2, x, gauss_legendre_rule(8))),
]]
ALL_REAL_ARGUMENT = pytest.mark.parametrize(
    "call, takes_array", [pytest.param(call, takes_array, id=name)
                          for name, call, takes_array in REAL_ARGUMENT])


class TestRealArguments:
    """A z or t with a nonzero imaginary part raises DomainError, where a
    float cast would cut an array to its real part (with a ComplexWarning)
    and refuse a scalar with TypeError; real values keep their bits."""

    @ALL_REAL_ARGUMENT
    @pytest.mark.parametrize("value", [0.25 + 0.5j, np.complex128(0.25 + 0.5j), 0.25 + 1e-300j],
                             ids=["complex", "numpy-complex", "tiny-imaginary"])
    def test_complex_refused(self, call, takes_array, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be real"):
                call(np.array([0.5, value]) if takes_array else value)

    @ALL_REAL_ARGUMENT
    @pytest.mark.parametrize("value, shown", [("0.3", "'0.3'"), (True, "True"), (None, "None"),
                                              (np.bool_(False), "False")],
                             ids=["string", "bool", "None", "numpy-bool"])
    def test_non_numeric_refused(self, call, takes_array, value, shown):
        # a string is not parsed, a bool is not read as 0 or 1, and None is
        # not read as NaN
        with pytest.raises(DomainError, match=f"must be real, got {shown}$"):
            call(value)

    @pytest.mark.parametrize("value", [["0.3", "0.5"], [0.3, None]], ids=["strings", "None"])
    def test_non_numeric_array_refused(self, value):
        with pytest.raises(DomainError, match="z must be real, got an array of"):
            forward_transform(LegendreSeries([1.0]), np.array(value), None)

    @ALL_REAL_ARGUMENT
    def test_zero_imaginary_part_keeps_bits(self, call, takes_array):
        x = np.array([0.25, -0.5]) if takes_array else 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.asarray(call(x + 0j))
        assert same_bits(got, np.asarray(call(x)))

    @pytest.mark.parametrize("transform", [
        forward_transform, lambda f, z, config: apply_operator(_OP, f, z, config)],
        ids=["forward_transform", "apply_operator"])
    def test_refused_before_f_is_called(self, transform):
        calls = []
        with pytest.raises(DomainError, match="z must be real"):
            transform(lambda t: calls.append(t) or np.exp(t), np.array([1.0 + 1j]), None)
        assert calls == []
