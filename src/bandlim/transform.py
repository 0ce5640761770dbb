"""The transform pair between Legendre series on [-1,1] and band-limited
spherical-Bessel series on the line.

Forward:  g(z) = int_-1^1 f(t) e^{izt} dt          (exact, no quadrature)
Inverse:  f(t) = (1/C) int_-inf^inf g(y) e^{-iyt} dy   for |t| < 1

The printed source constant for C is 4; the divisor actually required to
make the inverse undo the forward is measured by calibrate_normalization
(it comes out at 2 pi).  Both conventions are supported and the measured
value is always reported rather than assumed.

Coefficient dictionaries: by Bauer's expansion e^{izt} = sum (2n+1) i^n
P_n(t) j_n(z), the forward transform of the Legendre series f = sum cbar_n P_n
is exactly the Bessel series g = sum c_n j_n with c_n = 2 i^n cbar_n.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidRuleError, RuleTooSmallError
from .quadrature import (LineIntegralParams, QuadratureRule, _eval_integrand,
                         _line_integrals, _line_rows, gauss_legendre_rule,
                         integrate_oscillatory_line)
from .specfun import MAX_ORDER, _check_order, _jn_table, legendre_all

CALIBRATED = "calibrated"
PAPER_QUARTER = "paper-quarter"
PAPER_C = 4.0

_DEFAULT_COMPACT_POINTS = 32
_ORTHO_NMAX_LIMIT = 16


def _as_coeffs(coeffs, what="coefficients"):
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size < 1:
        raise DomainError(f"{what} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(c)):
        raise DomainError(f"{what} must be finite")
    return c


@dataclass(frozen=True)
class LegendreSeries:
    """f(t) = sum_n coeffs[n] P_n(t), defined for |t| <= 1."""

    coeffs: np.ndarray
    kind = "legendre"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    def __len__(self):
        return self.coeffs.size

    def __call__(self, t):
        p = legendre_all(len(self) - 1, t)
        return np.tensordot(self.coeffs, p, axes=(0, 0))[()]  # 0-d: a scalar


@dataclass(frozen=True)
class BesselSeries:
    """g(z) = sum_n coeffs[n] j_n(z), defined for all real z, summed in order
    n = 0..N at every z, so that no value's bits depend on the shape of z."""

    coeffs: np.ndarray
    kind = "bessel"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    def __len__(self):
        return self.coeffs.size

    def __call__(self, z):
        if not np.all(np.isfinite(z)):
            raise DomainError("z must be finite")
        out = np.zeros(np.shape(z), dtype=complex)
        for c, j in zip(self.coeffs, _jn_table(len(self) - 1, z)):
            out += c * j
        return out[()]  # 0-d: a scalar


def coeff_bar(series):
    """Map Bessel coefficients c_n to Legendre coefficients c_n / (2 i^n)."""
    n = np.arange(len(series))
    return LegendreSeries(series.coeffs / (2.0 * 1j ** n))


def coeff_unbar(series):
    """Inverse of coeff_bar: cbar_n -> 2 i^n cbar_n."""
    n = np.arange(len(series))
    return BesselSeries(series.coeffs * 2.0 * 1j ** n)


class TransformConfig:
    """Normalization convention, line-integral tuning, and compact rule.

    The measured inverse divisor C* is computed on first use and cached; it
    is its exact value within the line-integral tolerance, so a duplicated
    lazy computation under concurrency is harmless.
    """

    def __init__(self, normalization=CALIBRATED, line_params=None, compact_rule=None):
        if normalization not in (CALIBRATED, PAPER_QUARTER):
            raise DomainError(f"unknown normalization {normalization!r}")
        self.normalization = normalization
        self.line_params = line_params if line_params is not None else LineIntegralParams()
        if not isinstance(self.line_params, LineIntegralParams):
            raise InvalidRuleError("line_params must be a LineIntegralParams")
        self.compact_rule = (compact_rule if compact_rule is not None
                             else gauss_legendre_rule(_DEFAULT_COMPACT_POINTS))
        if not isinstance(self.compact_rule, QuadratureRule):
            raise InvalidRuleError("compact_rule must be a QuadratureRule")
        self._c_star = None

    def divisor(self):
        if self.normalization == PAPER_QUARTER:
            return PAPER_C
        return calibrate_normalization(self)


def _as_legendre(f, rule):
    """A LegendreSeries f itself, else the callable f projected on the rule to
    the highest degree it supports: up to 129 nodes, f's interpolant there."""
    if isinstance(f, LegendreSeries):
        return f
    return legendre_projection(f, min(len(rule), MAX_ORDER + 1) - 1, rule)


def forward_transform(f, z, config):
    """g(z) = int_-1^1 f(t) e^{izt} dt = coeff_unbar(f)(z) for a LegendreSeries
    f, or for the interpolant of a vectorized callable f at the compact rule's
    nodes; z is a finite scalar or array, and the result has its shape."""
    return coeff_unbar(_as_legendre(f, config.compact_rule))(z)


def inverse_transform(g, t, config):
    """f(t) = (1/C) int_-inf^inf g(y) e^{-iyt} dy for a scalar or an array t
    (the result has its shape); every |t| < 1 strictly, which is checked
    before any line integral runs.  A t and its -t are streamed rows of one
    stack, and a grid raises the error its first failing point raises alone."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) < 1.0):  # NaN fails too
        raise DomainError(
            f"inverse_transform: |t| = {np.max(np.abs(t))} not inside (-1, 1)")
    points = t.ravel().tolist()
    grid = set(points)
    outcomes = {}  # t -> its integral, or the error its stack gave it
    values = np.empty(t.shape, dtype=complex)
    for i, s in enumerate(points):
        if s not in outcomes:
            stack = [s, -s] if s and -s in grid else [s]  # 0.0 and -0.0: one row
            try:
                for row, raw in _line_rows(lambda y: _eval_integrand(g, y)[None],
                                           stack, config.line_params):
                    outcomes[stack[row]] = raw
            except ArithmeticError as exc:  # ConvergenceError, EvaluationError, g's own
                outcomes.update({u: exc for u in stack if u not in outcomes})
        raw = outcomes[s]
        if isinstance(raw, ConvergenceError):
            raise ConvergenceError(f"inverse_transform at grid index {i}: {raw}",
                                   last_values=raw.last_values) from raw
        if isinstance(raw, ArithmeticError):
            raise raw
        values.flat[i] = complex(raw) / config.divisor()  # Python division: exact bits
    return values[()]  # 0-d: a scalar


def calibrate_normalization(config, mode=0):
    """Measured divisor C* making the inverse undo the forward transform.

    The forward transform of P_mode is exactly 2 i^mode j_mode
    (coeff_unbar), which is integrated over the line at t = 0 and divided
    by the value P_mode(0) that the inverse must reproduce.  Only the line
    integral is measured; the compact rule plays no part.  mode must be
    even so that P_mode(0) is nonzero.  The mode-0 result is cached on the
    config.
    """
    mode = _check_order(mode)
    if mode % 2:
        raise DomainError("calibration mode must be even (P_n(0) = 0 for odd n)")
    if mode == 0 and config._c_star is not None:
        return config._c_star
    g = coeff_unbar(LegendreSeries(np.eye(mode + 1)[mode]))
    raw = integrate_oscillatory_line(g, 0.0, config.line_params)
    expected = float(legendre_all(mode, 0.0)[mode])
    c_star = (raw / expected).real
    if c_star <= 0:
        raise DomainError(f"calibration produced non-positive divisor {c_star}")
    if mode == 0:
        config._c_star = c_star
    return c_star


def legendre_projection(f, nmax, rule):
    """Legendre coefficients cbar_n = (2n+1)/2 int_-1^1 f(t) P_n(t) dt of a
    vectorized callable f."""
    nmax = _check_order(nmax)
    if len(rule) < nmax + 1:
        raise RuleTooSmallError(
            f"rule with {len(rule)} points cannot project to degree {nmax}")
    vals = _eval_integrand(f, rule.nodes)
    p = legendre_all(nmax, rule.nodes)
    n = np.arange(nmax + 1)
    coeffs = (2 * n + 1) / 2.0 * (p @ (rule.weights * vals))
    return LegendreSeries(coeffs)


def bessel_projection(g, nmax, config):
    """Bessel coefficients c_n = int g(y) j_n(y) dy / K_n, K_n = int j_n^2 dy
    measured.  Every projection g j_n and every norm j_n^2, n = 0..nmax, is a
    row of one stacked line integral, so the result depends only on g, nmax
    and the config's line parameters."""
    nmax = _check_order(nmax)
    labels = [f"{row}_{n}" for row in "cK" for n in range(nmax + 1)]

    def env(y):
        table = _jn_table(nmax, y)
        return np.concatenate([_eval_integrand(g, y) * table, table ** 2])

    raw = _line_integrals(env, 0.0, config.line_params, labels)
    return BesselSeries(raw[:nmax + 1] / raw[nmax + 1:].real)


def bauer_partial_sum(z, t, order):
    """Partial sum sum_{n<=order} (2n+1) i^n P_n(t) j_n(z) of the plane wave
    e^{izt}."""
    order = _check_order(order)
    z = float(z)
    t = float(t)
    if abs(t) > 1.0:
        raise DomainError(f"bauer_partial_sum: |t| = {abs(t)} > 1")
    p = legendre_all(order, t)
    j = _jn_table(order, np.array([z]))[:, 0]
    n = np.arange(order + 1)
    return complex(np.sum((2 * n + 1) * 1j ** n * p * j))


def roundtrip(g, z, config):
    """Inverse then forward: f = inverse_transform(g, .) is evaluated once,
    at the compact rule's nodes, and forward-transformed to every z."""
    return forward_transform(lambda t: inverse_transform(g, t, config), z, config)


def orthogonality_matrix_j(nmax, params=None):
    """Measured Gram matrix G[n, m] = int_-inf^inf j_n(y) j_m(y) dy, every
    entry with n <= m a row of one stacked line integral."""
    nmax = _check_order(nmax)
    if nmax > _ORTHO_NMAX_LIMIT:
        raise DomainError(f"orthogonality_matrix_j limited to nmax <= {_ORTHO_NMAX_LIMIT}")
    if params is None:
        params = LineIntegralParams()
    iu, ju = np.triu_indices(nmax + 1)

    def env(y):
        table = _jn_table(nmax, y)
        return table[iu] * table[ju]

    labels = [f"G[{n}, {m}]" for n, m in zip(iu, ju)]
    gram = np.zeros((nmax + 1, nmax + 1))
    gram[iu, ju] = gram[ju, iu] = _line_integrals(env, 0.0, params, labels).real
    return gram


def series_to_json(series):
    """Exchange form {"kind": ..., "coeffs": [[re, im], ...]}."""
    if not isinstance(series, (LegendreSeries, BesselSeries)):
        raise DomainError(f"not a series: {series!r}")
    return {"kind": series.kind,
            "coeffs": [[float(c.real), float(c.imag)] for c in series.coeffs]}


def series_from_json(obj):
    """Parse the exchange form back into a series."""
    try:
        kind = obj["kind"]
        coeffs = [complex(float(re), float(im)) for re, im in obj["coeffs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed series document: {exc}") from exc
    for cls in (LegendreSeries, BesselSeries):
        if cls.kind == kind:
            return cls(coeffs)
    raise DomainError(f"unknown series kind {kind!r}")
