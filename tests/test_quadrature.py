import dataclasses
import math

import numpy as np
import pytest

import bandlim.quadrature
from bandlim import (ConvergenceError, DomainError, EvaluationError,
                     InvalidRuleError, LineIntegralParams, QuadratureRule,
                     TransformConfig, forward_transform, gauss_legendre_rule,
                     integrate_compact, integrate_oscillatory_line)
from bandlim.quadrature import (_CHECK_EVERY, _CORE_CHUNK_PERIODS, _EDGE_SCALE,
                                _FIRST_CHECK, _MIN_EDGE_DIST, _MIN_HALFWIDTH,
                                _SEGMENT, _UNC_FACTOR, _accelerate,
                                _eval_integrand, _line_integrals, _seg_rule)
from bandlim.specfun import _jn_table
from bandlim.transform import BesselSeries

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
        with pytest.raises(InvalidRuleError, match="1-d"):
            QuadratureRule(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(InvalidRuleError, match="empty"):
            QuadratureRule(np.array([]), np.array([]))
        with pytest.raises(InvalidRuleError, match="inside"):
            QuadratureRule(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidRuleError, match="nodes must be symmetric"):
            QuadratureRule(np.array([-0.5, 0.4]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidRuleError, match="sum to 2"):
            QuadratureRule(np.array([-0.5, 0.5]), np.array([0.9, 0.9]))


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
        with pytest.raises(DomainError, match="z must be finite"):
            forward_transform(lambda t: t, np.array([0.0, math.inf]),
                              TransformConfig())


class TestLineIntegralParams:
    def test_fields(self):
        names = [f.name for f in dataclasses.fields(LineIntegralParams)]
        assert names == ["tol", "max_segments"]

    def test_defaults_valid(self):
        p = LineIntegralParams()
        assert p.tol > 0
        assert p.max_segments >= 12
        assert LineIntegralParams(max_segments=12).max_segments == 12

    def test_invalid(self):
        with pytest.raises(InvalidRuleError):
            LineIntegralParams(tol=0.0)
        with pytest.raises(InvalidRuleError):
            LineIntegralParams(max_segments=5)
        with pytest.raises(InvalidRuleError):
            LineIntegralParams(max_segments=11)
        for bad in (dict(tol=math.inf), dict(tol=math.nan),
                    dict(max_segments=12.5), dict(max_segments=400.0)):
            with pytest.raises(InvalidRuleError):
                LineIntegralParams(**bad)


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
        params = LineIntegralParams(tol=1e-16, max_segments=24)
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


# The scalar accelerator the stacked one replaced, kept as its reference:
# one partial-sum sequence at a time, candidates compared one by one.
_REF_PREFIXES = (12, 16, 20)


def _ref_levin_limit(seq, prefix, k0):
    seq = np.asarray(seq[:prefix], dtype=complex)
    n = seq.size - 2
    if n < 2:
        return complex(seq[-1])
    idx = np.arange(1, seq.size)
    S = seq[idx]
    terms = seq[idx] - seq[idx - 1]
    w = (1.0 + k0 + idx) * terms
    w = np.where(np.abs(w) < 1e-280, 1e-280, w)
    j = np.arange(n + 1)
    binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    coef = (-1.0) ** j * binom * ((1.0 + j) / (1.0 + n)) ** (n - 1)
    den = np.sum(coef / w)
    if den == 0 or not np.isfinite(den):
        return complex(seq[-1])
    val = complex(np.sum(coef * S / w) / den)
    return val if np.isfinite(val) else complex(seq[-1])


def _ref_accelerate(partials, ratio, max_deflations, k0):
    s = np.asarray(partials, dtype=complex)
    best = complex(s[-1])
    best_unc = abs(s[-1] - s[-2]) if s.size > 1 else math.inf
    for _ in range(max_deflations + 1):
        if s.size >= 3:
            delta = abs(s[-1] - s[-2])
            if delta < best_unc:
                best, best_unc = complex(s[-1]), delta
            for prefix in _REF_PREFIXES:
                p = min(prefix, s.size)
                lv = _ref_levin_limit(s, p, k0)
                spread = abs(lv - _ref_levin_limit(s, p - 1, k0))
                if spread < best_unc:
                    best, best_unc = lv, spread
                if p == s.size:
                    break
        if s.size < 3 or abs(1.0 - ratio) < 1e-8:
            break
        s = (s[1:] - ratio * s[:-1]) / (1.0 - ratio)
    return best, best_unc


def _tail_rows(rng, ratio, k0, length):
    """Partial-sum rows: Bessel-like tails with the given per-segment ratio,
    a random walk, and rows built to hit the accelerator's guards (zero
    terms, a zero Levin denominator, overflow, NaN spreads)."""
    j = np.arange(length)
    rows = []
    for _ in range(3):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        rows.append(np.cumsum(a * ratio ** j / (k0 + j) + b / (k0 + j) ** 2))
    rows.append(np.cumsum(rng.normal(size=length) + 1j * rng.normal(size=length)))
    repeated = rows[0].copy()
    repeated[length // 2:] = repeated[length // 2]  # zero terms: |w| < 1e-280
    rows.append(repeated)
    rows.append(np.zeros(length))  # every w floored; den == 0 at lengths 4, 5, 13
    rows.append(np.full(length, 0.5 - 2j))
    huge = np.full(length, 1e280 + 0j)
    huge[:length // 2:2] *= 1.5  # zero terms later: S / w overflows
    rows.append(huge)
    spiked = rows[0].copy()
    spiked[-1] = math.inf  # NaN in the deflation columns: NaN spreads
    rows.append(spiked)
    return np.array(rows, dtype=complex)


class TestAcceleratorOracle:
    """Every row of one stacked _accelerate call matches the scalar
    reference on that row."""

    RATIOS = [-np.exp(-1j * math.pi * t) for t in (0.0, 0.3, 0.7, 0.95, 1.0)] + \
        [-np.exp(1j * math.pi * t) for t in (0.3, 0.7)] + [1.0]

    @pytest.mark.parametrize("length", range(2, 41))
    def test_rows_match_reference(self, length):
        rng = np.random.default_rng(length)
        for ratio in self.RATIOS:
            k0 = float(rng.uniform(2.0, 40.0))
            rows = _tail_rows(rng, ratio, k0, length)
            with np.errstate(all="ignore"):
                est, spread = _accelerate(rows, ratio, k0)
                ref = [_ref_accelerate(row, ratio, 12, k0) for row in rows]
            assert est.shape == spread.shape == (len(rows),)
            for e, u, (want, want_unc) in zip(est, spread, ref):
                assert e == want or abs(e - want) <= 1e-12 * max(1.0, abs(want))
                assert (u == want_unc == math.inf
                        or abs(u - want_unc) <= 1e-12 * max(1.0, want_unc))

    @pytest.mark.parametrize("length", [2, 3, 4, 12, 13, 18, 24, 40])
    def test_ratio_column_matches_reference(self, length):
        # one call on right tails (ratio -e^{-i pi t}) stacked over their
        # left twins (-e^{i pi t}), as the line engine makes it at each check
        rng = np.random.default_rng(100 + length)
        for t in (0.0, 0.3, 0.7, 0.95, 1.0):
            k0 = float(rng.uniform(2.0, 40.0))
            pair = (-np.exp(-1j * math.pi * t), -np.exp(1j * math.pi * t))
            blocks = [_tail_rows(rng, ratio, k0, length) for ratio in pair]
            rows = np.concatenate(blocks)
            ratios = np.repeat(pair, len(blocks[0]))
            with np.errstate(all="ignore"):
                est, spread = _accelerate(rows, ratios[:, None], k0)
                ref = [_ref_accelerate(row, r, 12, k0) for row, r in zip(rows, ratios)]
            assert est.shape == spread.shape == (len(rows),)
            for e, u, (want, want_unc) in zip(est, spread, ref):
                assert e == want or abs(e - want) <= 1e-12 * max(1.0, abs(want))
                assert (u == want_unc == math.inf
                        or abs(u - want_unc) <= 1e-12 * max(1.0, want_unc))

    def test_single_partial_sum(self):
        est, spread = _accelerate(np.array([[1.0 + 2j]]), -1.0, 3.0)
        assert est[0] == 1.0 + 2j and spread[0] == math.inf


def _gaussian(y):
    return np.exp(-np.asarray(y, dtype=float) ** 2)


class TestStackedLine:
    """Rows of one _line_integrals call are independent one-row calls."""

    ROWS = (_gaussian, j0_env, _j1)

    def stacked(self, y):
        return np.array([f(y) for f in self.ROWS])

    def test_rows_equal_one_row_calls(self):
        params = LineIntegralParams()
        for t in (0.0, 0.3, -0.8):
            got = _line_integrals(self.stacked, t, params)
            want = [integrate_oscillatory_line(f, t, params) for f in self.ROWS]
            assert got.tolist() == want

    def test_one_failing_row_is_named(self):
        # the Gaussian row is exact after its core; the Bessel rows cannot
        # reach tol=1e-16 in 24 segments this close to the edge
        params = LineIntegralParams(tol=1e-16, max_segments=24)
        with pytest.raises(ConvergenceError) as info:
            _line_integrals(self.stacked, 0.97, params, ["gauss", "j0", "j1"])
        message = str(info.value)
        assert "t=0.97" in message and message.endswith("for j0, j1")
        with pytest.raises(ConvergenceError) as alone:
            integrate_oscillatory_line(j0_env, 0.97, params)
        assert info.value.last_values == alone.value.last_values
        assert "t=0.97" in str(alone.value)
        integrate_oscillatory_line(_gaussian, 0.97, params)

    def test_one_row_result_types(self):
        val = integrate_oscillatory_line(j0_env, 0.2)
        assert type(val) is complex
        params = LineIntegralParams(tol=1e-16, max_segments=24)
        with pytest.raises(ConvergenceError) as info:
            integrate_oscillatory_line(j0_env, 0.97, params)
        assert all(type(v) is complex for v in info.value.last_values)


# The line engine before its tails were batched, kept as its reference: one
# scalar t for every row, and one envelope call per core chunk and per tail
# segment and side.
def _ref_segment_integral(fn, a, b):
    rule = _seg_rule()
    x = 0.5 * (b - a) * rule.nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * np.sum(rule.weights * fn(x), axis=-1)


def _ref_line_integrals(envelope, t, params, labels=None):
    t = float(t)
    L = _SEGMENT
    fn = lambda y: envelope(y) * np.exp(-1j * y * t)
    edge_dist = abs(1.0 - abs(t))
    halfwidth = max(_MIN_HALFWIDTH, _EDGE_SCALE / max(edge_dist, _MIN_EDGE_DIST))
    halfwidth = L * math.ceil(halfwidth / L)
    nchunks = max(2, math.ceil(2.0 * halfwidth / (_CORE_CHUNK_PERIODS * L)))
    edges = np.linspace(-halfwidth, halfwidth, nchunks + 1)
    core = sum(_ref_segment_integral(fn, a, b) for a, b in zip(edges[:-1], edges[1:]))
    k = core.size
    ratio = np.repeat([-np.exp(-1j * math.pi * t), -np.exp(1j * math.pi * t)], k)[:, None]
    k0 = halfwidth / L
    terms = []
    nseg = 0
    result = np.empty(k, dtype=complex)
    pending = np.arange(k)
    history = []
    batch = _FIRST_CHECK
    while nseg < params.max_segments:
        target = min(nseg + batch, params.max_segments)
        while nseg < target:
            a = halfwidth + nseg * L
            terms.append(np.concatenate([_ref_segment_integral(fn, a, a + L),
                                         _ref_segment_integral(fn, -a - L, -a)]))
            nseg += 1
        batch = _CHECK_EVERY
        n = pending.size
        rows = np.concatenate([pending, pending + k])
        tails, spread = _accelerate(np.cumsum(terms, axis=0).T[rows], ratio[rows], k0)
        est = core[pending] + tails[:n] + tails[n:]
        if history:
            scale = params.tol * np.maximum(1.0, np.abs(est))
            done = ((np.abs(est - history[-1]) <= scale)
                    & (spread[:n] + spread[n:] <= _UNC_FACTOR * scale))
            result[pending[done]] = est[done]
            pending, est = pending[~done], est[~done]
            if not pending.size:
                return result
            history = [history[-1][~done]]
        history.append(est)
    named = "" if labels is None else " for " + ", ".join(labels[i] for i in pending)
    raise ConvergenceError(
        f"line integral at t={t!r} did not converge to tol={params.tol} "
        f"within {params.max_segments} segments{named}",
        last_values=tuple(complex(h[0]) for h in history[-2:]),
    )


def outcome(engine, *args):
    """engine(*args) as the bytes of its values, or its error's type, text
    and last values."""
    try:
        return np.asarray(engine(*args)).tobytes()
    except ConvergenceError as exc:
        return type(exc), str(exc), exc.last_values


def gram_stack(nmax):
    iu, ju = np.triu_indices(nmax + 1)

    def env(y):
        table = _jn_table(nmax, y)
        return table[iu] * table[ju]
    return env


def projection_stack(g, nmax):
    def env(y):
        table = _jn_table(nmax, y)
        return np.concatenate([_eval_integrand(g, y) * table, table ** 2])
    return env


G3 = BesselSeries([0.5 + 0.1j, -0.3 + 0.7j, 0.9 - 0.2j])
EDGE_T = [0.0, 0.3, -0.3, 0.9, -0.9, 0.99, -0.99, 1 - 1e-3, -(1 - 1e-3)]


class TestBatchedTails:
    """Both tails of every check come from one envelope call, and every
    value and error equals the per-segment reference bit for bit."""

    @pytest.mark.parametrize("max_segments", [12, 13, 18, 400])
    def test_stacks_match_reference(self, max_segments):
        params = LineIntegralParams(max_segments=max_segments)
        gram_labels = [f"G[{n}, {m}]" for n, m in zip(*np.triu_indices(7))]
        proj_labels = [f"{row}_{n}" for row in "cK" for n in range(6)]
        for env, labels in ((gram_stack(6), gram_labels),
                            (projection_stack(G3, 5), proj_labels)):
            want = outcome(_ref_line_integrals, env, 0.0, params, labels)
            assert outcome(_line_integrals, env, 0.0, params, labels) == want

    @pytest.mark.parametrize("max_segments", [12, 13, 18, 400])
    @pytest.mark.parametrize("t", EDGE_T)
    def test_one_row_matches_reference(self, t, max_segments):
        params = LineIntegralParams(max_segments=max_segments)
        env = lambda y: _eval_integrand(G3, y)[None]
        want = outcome(_ref_line_integrals, env, t, params)
        assert outcome(_line_integrals, env, t, params) == want
        assert outcome(lambda: [integrate_oscillatory_line(G3, t, params)]) == want

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9, 0.99])
    def test_rows_of_plus_minus_t_match_reference(self, t):
        env = lambda y: _eval_integrand(G3, y)[None]
        params = LineIntegralParams()
        got = _line_integrals(env, np.array([t, -t, t]), params)
        want = [_ref_line_integrals(env, s, params)[0] for s in (t, -t, t)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_first_failing_row_is_named(self):
        # at max_segments 30 the point -0.95 converges and 0.95 does not
        params = LineIntegralParams(max_segments=30)
        g = BesselSeries([0.3, 1j, 0.2, -0.5j])
        env = lambda y: _eval_integrand(g, y)[None]
        with pytest.raises(ConvergenceError) as info:
            _line_integrals(env, np.array([-0.95, 0.95]), params)
        with pytest.raises(ConvergenceError) as alone:
            _line_integrals(env, 0.95, params)
        assert str(info.value) == str(alone.value)
        assert info.value.last_values == alone.value.last_values
        _line_integrals(env, -0.95, params)

    def test_rows_must_share_abs_t(self):
        env = lambda y: _eval_integrand(G3, y)[None]
        for t in (np.array([0.3, 0.4]), np.array([[0.3, -0.3]]), np.array([0.3, math.nan])):
            with pytest.raises(EvaluationError):
                _line_integrals(env, t, LineIntegralParams())

    def test_scalar_t_only(self):
        with pytest.raises(TypeError):
            integrate_oscillatory_line(j0_env, np.array([0.3, -0.3]))

    @pytest.mark.parametrize("t", [np.float64(0.3), np.array([0.3, -0.3])])
    def test_one_envelope_call_per_check(self, t, monkeypatch):
        # t = 0.3: core half-width 10 pi, so 5 chunks of 4 pi
        checks = []
        accelerate = bandlim.quadrature._accelerate
        monkeypatch.setattr(bandlim.quadrature, "_accelerate",
                            lambda *args: checks.append(1) or accelerate(*args))
        sizes = []

        def env(y):
            sizes.append(y.size)
            return j0_env(y)[None]
        _line_integrals(env, t, LineIntegralParams())
        tails = [2 * _FIRST_CHECK] + [2 * _CHECK_EVERY] * (len(checks) - 1)
        assert len(checks) >= 2
        assert sizes == [32] * 5 + [32 * n for n in tails]
