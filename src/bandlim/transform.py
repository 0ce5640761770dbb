"""The transform pair between Legendre series on [-1,1] and band-limited
spherical-Bessel series on the line.

Forward:  g(z) = int_-1^1 f(t) e^{izt} dt          (exact, no quadrature)
Inverse:  f(t) = (1/C) int_-inf^inf g(y) e^{-iyt} dy   for |t| < 1

The printed source constant for C is 4; the divisor that makes the inverse
undo the forward, C*, is exactly 2 pi (calibrate_normalization), by the
Fourier inverse of Bauer's dictionary below: int j_n(y) e^{-iyt} dy =
pi (-i)^n P_n(t) (DLMF 10.59).  Both conventions are supported, and
calibrate reports C* beside the printed 4.

Coefficient dictionaries: by Bauer's expansion e^{izt} = sum (2n+1) i^n
P_n(t) j_n(z), the forward transform of the Legendre series f = sum cbar_n P_n
is exactly the Bessel series g = sum c_n j_n with c_n = 2 i^n cbar_n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DomainError, InvalidOrderError, InvalidRuleError,
                     RuleTooSmallError)
from .quadrature import LineIntegralParams, _eval_integrand, _line_integrals, _line_rows, _seg_rule
from .specfun import MAX_ORDER, _check_order, _jn_table, _real, legendre_all

CALIBRATED = "calibrated"
PAPER_QUARTER = "paper-quarter"
PAPER_C = 4.0

_ORTHO_NMAX_LIMIT = 16


def _as_coeffs(coeffs, what="coefficients"):
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size < 1:
        raise DomainError(f"{what} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(c)):
        raise DomainError(f"{what} must be finite")
    return c


@dataclass(frozen=True)
class _Series:
    """The coefficients of a series of order at most MAX_ORDER."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _as_coeffs(self.coeffs)
        if coeffs.size > MAX_ORDER + 1:
            raise InvalidOrderError(f"series of order {coeffs.size - 1} outside "
                                    f"supported range [0, {MAX_ORDER}]")
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self):
        return self.coeffs.size


class LegendreSeries(_Series):
    """f(t) = sum_n coeffs[n] P_n(t), defined for |t| <= 1."""

    kind = "legendre"

    def __call__(self, t):
        return _series_values(self.coeffs, legendre_all(len(self) - 1, t))


class BesselSeries(_Series):
    """g(z) = sum_n coeffs[n] j_n(z), defined for all real z."""

    kind = "bessel"

    def __call__(self, z):
        return _series_values(self.coeffs, _jn_table(len(self) - 1, z, "z"))


def _series_values(coeffs, table):
    """sum_n coeffs[n] table[n] in order n = 0..N: no bits depend on the grid."""
    out = np.zeros(table.shape[1:], dtype=complex)
    for c, row in zip(coeffs, table):
        out += c * row
    return out[()]  # 0-d: a scalar


def coeff_bar(series):
    """Map Bessel coefficients c_n to Legendre coefficients c_n / (2 i^n)."""
    return LegendreSeries(series.coeffs / (2.0 * 1j ** np.arange(len(series))))


def coeff_unbar(series):
    """Inverse of coeff_bar: cbar_n -> 2 i^n cbar_n."""
    return BesselSeries(series.coeffs * 2.0 * 1j ** np.arange(len(series)))


@dataclass(frozen=True, eq=False)
class TransformConfig:
    """Normalization convention and line-integral tuning; no computed state:
    divisor() is a closed form of the normalization."""

    normalization: str = CALIBRATED
    line_params: LineIntegralParams = None

    def __post_init__(self):
        if self.normalization not in (CALIBRATED, PAPER_QUARTER):
            raise DomainError(f"unknown normalization {self.normalization!r}")
        if self.line_params is None:
            object.__setattr__(self, "line_params", LineIntegralParams())
        if not isinstance(self.line_params, LineIntegralParams):
            raise InvalidRuleError("line_params must be a LineIntegralParams")

    def divisor(self):
        """The inverse's C: PAPER_C, or C* = 2 pi (calibrate_normalization)."""
        return PAPER_C if self.normalization == PAPER_QUARTER else 2.0 * math.pi


def forward_transform(f, z, config):
    """g(z) = int_-1^1 f(t) e^{izt} dt = coeff_unbar(f)(z) for a LegendreSeries
    f, or for the degree-31 interpolant of a vectorized callable f at the 32
    nodes of the cached segment rule (quadrature._seg_rule); z is a finite
    scalar or array, refused before f is called, and the result has its
    shape.  config is read for nothing."""
    z = _real(z, "z")
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    if not isinstance(f, LegendreSeries):
        rule = _seg_rule()
        f = legendre_projection(f, len(rule) - 1, rule)
    return coeff_unbar(f)(z)


def inverse_transform(g, t, config):
    """f(t) = (1/C) int_-inf^inf g(y) e^{-iyt} dy for a scalar or an array t
    (the result has its shape); every |t| < 1 strictly, which is checked
    before any line integral runs.  A t and its -t are streamed rows of one
    stack, and a grid raises the error its first failing point raises alone."""
    t = _real(t, "inverse_transform: t")
    if not np.all(np.abs(t) < 1.0):  # NaN fails too
        raise DomainError(
            f"inverse_transform: |t| = {np.max(np.abs(t))} not inside (-1, 1)")
    divisor = config.divisor()
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
        values.flat[i] = complex(raw) / divisor  # Python division: exact bits
    return values[()]  # 0-d: a scalar


def calibrate_normalization(config, mode=0):
    """The divisor C* that makes the inverse undo the forward transform: 2 pi.

    The forward transform of P_mode is exactly 2 i^mode j_mode
    (coeff_unbar), and the inverse must give back P_mode(0) = i^mode
    C(mode, mode/2) / 2^mode at t = 0.  Bauer's dictionary, inverted (DLMF
    10.59), gives int j_mode dy = pi |P_mode(0)|, so C* = 2^(mode+1)
    int j_mode dy / C(mode, mode/2) = 2 pi for every even mode; the tests
    measure it on the accelerated line engine.  It reads nothing of config.
    mode must be even so that P_mode(0) is nonzero.
    """
    mode = _check_order(mode)
    if mode % 2:
        raise DomainError("calibration mode must be even (P_n(0) = 0 for odd n)")
    return 2.0 * math.pi


def legendre_projection(f, nmax, rule=None):
    """cbar_n = (2n+1)/2 int_-1^1 f(t) P_n(t) dt, n = 0..nmax: a LegendreSeries
    f's own coefficients, truncated or zero-padded, reading no rule; for a
    vectorized callable f, a sum on the rule, of at least nmax + 1 points."""
    nmax = _check_order(nmax)
    if isinstance(f, LegendreSeries):
        return LegendreSeries(np.pad(f.coeffs[:nmax + 1], (0, max(0, nmax + 1 - len(f)))))
    if rule is None or len(rule) < nmax + 1:
        raise RuleTooSmallError(f"a callable needs a rule of at least {nmax + 1} points "
                                f"to project to degree {nmax}")
    vals = _eval_integrand(f, rule.nodes)
    p = legendre_all(nmax, rule.nodes)
    n = np.arange(nmax + 1)
    return LegendreSeries((2 * n + 1) / 2.0 * (p @ (rule.weights * vals)))


def bessel_projection(g, nmax, config):
    """Bessel coefficients c_n = int g(y) j_n(y) dy / K_n, n = 0..nmax, with
    the norms K_n = int j_n^2 dy = pi / (2n+1) of the orthogonal j_n: a
    BesselSeries g's own coefficients, truncated or zero-padded, reading no
    config.  A vectorized callable g takes the accelerated line engine, every
    projection g j_n a row of one stacked integral, so the result depends
    only on g, nmax and config.line_params.
    """
    nmax = _check_order(nmax)
    if isinstance(g, BesselSeries):
        return BesselSeries(np.pad(g.coeffs[:nmax + 1], (0, max(0, nmax + 1 - len(g)))))
    raw = _line_integrals(lambda y: _eval_integrand(g, y) * _jn_table(nmax, y), 0.0,
                          config.line_params, (f"c_{n}" for n in range(nmax + 1)))
    return BesselSeries(raw / (math.pi / (2 * np.arange(nmax + 1) + 1)))


def bauer_partial_sum(z, t, order):
    """Partial sum sum_{n<=order} (2n+1) i^n P_n(t) j_n(z) of the plane wave
    e^{izt}."""
    order = _check_order(order)
    z, t = (float(_real(v, "bauer_partial_sum: z and t")) for v in (z, t))
    if abs(t) > 1.0:
        raise DomainError(f"bauer_partial_sum: |t| = {abs(t)} > 1")
    p = legendre_all(order, t)
    j = _jn_table(order, np.array([z]))[:, 0]
    n = np.arange(order + 1)
    return complex(np.sum((2 * n + 1) * 1j ** n * p * j))


def roundtrip(g, z, config):
    """Inverse then forward: f = inverse_transform(g, .) is evaluated once,
    at the 32 nodes of the cached segment rule, and forward-transformed to
    every z; a non-finite z is refused before any inverse runs."""
    return forward_transform(lambda t: inverse_transform(g, t, config), z, config)


def orthogonality_matrix_j(nmax, params=None):
    """Measured Gram matrix G[n, m] = int_-inf^inf j_n(y) j_m(y) dy.  An entry
    with n + m odd is exactly 0.0, since j_n j_m is then odd; every entry with
    n <= m and n + m even is a row of one stacked line integral, whose
    envelope is a product of two Bessel functions (factors=2): its tail
    modes e^{+-2iy}/y^2 and 1/y^2 share the per-segment ratio 1 at t = 0,
    so the accelerator needs no deflation."""
    nmax = _check_order(nmax)
    if nmax > _ORTHO_NMAX_LIMIT:
        raise DomainError(f"orthogonality_matrix_j limited to nmax <= {_ORTHO_NMAX_LIMIT}")
    if params is None:
        params = LineIntegralParams()
    iu, ju = np.triu_indices(nmax + 1)
    even = (iu + ju) % 2 == 0
    iu, ju = iu[even], ju[even]

    def env(y):
        table = _jn_table(nmax, y)
        return table[iu] * table[ju]

    labels = (f"G[{n}, {m}]" for n, m in zip(iu, ju))
    gram = np.zeros((nmax + 1, nmax + 1))
    gram[iu, ju] = gram[ju, iu] = _line_integrals(env, 0.0, params, labels, factors=2).real
    return gram


def _coeffs_to_json(coeffs):
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _coeffs_from_json(what, obj, *keys):
    """obj[key] for each key, the last read from [[re, im], ...] as complex."""
    try:
        *values, pairs = [obj[key] for key in keys]
        return values + [[complex(float(re), float(im)) for re, im in pairs]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {what} document: {exc}") from exc


def series_to_json(series):
    """Exchange form {"kind": ..., "coeffs": [[re, im], ...]}."""
    if not isinstance(series, (LegendreSeries, BesselSeries)):
        raise DomainError(f"not a series: {series!r}")
    return {"kind": series.kind, "coeffs": _coeffs_to_json(series.coeffs)}


def series_from_json(obj):
    """Parse the exchange form back into a series."""
    kind, coeffs = _coeffs_from_json("series", obj, "kind", "coeffs")
    for cls in (LegendreSeries, BesselSeries):
        if cls.kind == kind:
            return cls(coeffs)
    raise DomainError(f"unknown series kind {kind!r}")
