"""Constant-coefficient linear ODEs solved by symbol division.

For L = sum_k a_k d^k/dz^k acting on a band-limited g(z) = int f(t) e^{izt} dt,
differentiation under the integral turns L into multiplication by the
symbol F(it) = sum_k a_k (it)^k.  Solving L g = h with h = sum d_n j_n
reduces to the division f(t) = hhat(t) / F(it), where hhat = sum d_n
(2 i^n)^{-1} P_n.  Multiplication by t on Legendre coefficients is the
tridiagonal Jacobi matrix J, so the division is the banded system
F(iJ) c = hhat, and g is the Bessel series of f = sum c_n P_n.  Zeros of
F(it) on [-1, 1] leave the method undefined and are refused with a
diagnostic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularSymbolError
from .specfun import MAX_ORDER, _check_order, _jn_table, _real
from .transform import (BesselSeries, LegendreSeries, _as_coeffs, _coeffs_from_json,
                        _coeffs_to_json, _series_values, coeff_bar, coeff_unbar, forward_transform)

_SYMBOL_FLOOR = 1e-8
_SYMBOL_SAMPLES = 512
_SECTIONS = (32, 64, MAX_ORDER)  # degrees N of the square sections tried
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DifferentialOperator:
    """L = sum_k coeffs[k] d^k/dz^k."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_coeffs(self.coeffs, "operator coefficients")
        if c.size > 1 and c[-1] == 0:
            raise DomainError("leading operator coefficient must be nonzero")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self):
        return self.coeffs.size - 1

    def symbol(self, t):
        """F(it) = sum_k a_k (it)^k, vectorized over finite t."""
        t = _real(t, "operator symbol: t")
        if not np.all(np.isfinite(t)):
            raise DomainError("operator symbol: t must be finite")
        it = 1j * t
        out = np.full(t.shape, self.coeffs[0], dtype=complex)
        power = np.ones_like(it)
        for a in self.coeffs[1:]:
            power = power * it
            out = out + a * power
        return out


def symbol_eval(op, t):
    """F(it) at a single real t."""
    return complex(op.symbol(t))


def apply_operator(op, f, z, config):
    """(L g)(z) = int_-1^1 f(t) F(it) e^{izt} dt (differentiation under the
    integral) for a LegendreSeries or vectorized callable f on [-1,1] and a
    finite scalar or array z (the result has its shape).  For a series f it
    is exact: F(iJ) maps f's coefficients to those of f F (_apply_symbol),
    of degree deg f + order, which may pass MAX_ORDER, and their Bessel
    series sum_n 2 i^n cbar_n j_n is summed at z.  A callable's f F is
    interpolated at the cached segment rule's 32 nodes (see
    forward_transform).  config is read for nothing."""
    if not isinstance(f, LegendreSeries):
        return forward_transform(lambda t: f(t) * op.symbol(t), z, config)
    cbar = _apply_symbol(op, f.coeffs[:, None])[:, 0]
    return _series_values(cbar * 2.0 * 1j ** np.arange(cbar.size),
                          _jn_table(cbar.size - 1, z, "z"))


@dataclass(frozen=True)
class SolutionBundle:
    """Result of a transform-domain solve.

    f_series: the solution's Legendre coefficients c, truncated or zero-padded
    to nmax + 1; g_at: the forward transform of f = sum c_n P_n, a
    BesselSeries; residual_report: a bound on |L g - h| and on the error of
    g at every real z (see solve).
    """

    f_series: LegendreSeries
    g_at: BesselSeries
    residual_report: float


def _check_symbol(op):
    """min |F(it)| over t in [-1, 1]; SingularSymbolError if it is zero."""
    ts = np.linspace(-1.0, 1.0, _SYMBOL_SAMPLES)
    # F(it) is a polynomial in t, so its near-real zeros can be located
    # exactly; grid sampling alone can step over a transversal zero.
    poly = op.coeffs * 1j ** np.arange(op.coeffs.size)
    if op.order >= 1:
        roots = np.roots(poly[::-1])
        near = roots[np.abs(roots.real) <= 1.0 + 1e-6]
        if near.size:
            ts = np.concatenate([ts, np.clip(near.real, -1.0, 1.0)])
    vals = np.abs(op.symbol(ts))
    k = int(np.argmin(vals))
    if vals[k] <= _SYMBOL_FLOOR:
        raise SingularSymbolError(
            f"operator symbol F(it) vanishes near t = {ts[k]:.6f} "
            f"(|F| = {vals[k]:.3e}); the transform-domain division is undefined",
            t_zero=float(ts[k]))
    return float(vals[k])


def _apply_symbol(op, x):
    """F(iJ) x for Legendre coefficients in the columns of x, by Horner in a
    fixed order, J the recurrence t P_m = ((m+1) P_{m+1} + m P_{m-1})/(2m+1):
    exact on op.order more rows, each power moving the support one row down."""
    x = np.concatenate([x, np.zeros((op.order, x.shape[1]))])
    m = np.arange(1.0, len(x))[:, None]
    lower, upper = 1j * (m / (2 * m - 1)), 1j * (m / (2 * m + 1))
    out = op.coeffs[-1] * x
    for a in op.coeffs[-2::-1]:
        out, prev = a * x, out
        out[1:] += lower * prev[:-1]
        out[:-1] += upper * prev[1:]
    return out


def solve(op, h, nmax, config, residual_threshold=None):
    """Solve L g = h for a finite Bessel series h by symbol division.

    f = sum c_n P_n solves the (N+1)-square section of F(iJ) c = hhat for
    the first N of 32, 64, 128 with N >= len(h) - 1 whose last three
    coefficients fall to N eps max|c| (else N = 128).  r = F(iJ) [c; 0] -
    hhat is exact, so, as |P_n|, |j_n| <= 1, residual_report =
    max(1, 1/min|F(it)|) sum 2|r_n| + 2N eps sum |c_n| bounds both
    |L g - h| and the error of g at every real z.  config is read for
    nothing; nmax may be up to 128.  Raises SingularSymbolError if F(it)
    has a zero on [-1, 1], and ConvergenceError if residual_report exceeds
    a given residual_threshold, which must be finite and >= 0.
    """
    if not isinstance(h, BesselSeries):
        raise DomainError("h must be a BesselSeries")
    if residual_threshold is not None and not 0.0 <= residual_threshold < np.inf:
        raise DomainError(f"residual_threshold must be finite and >= 0, "
                          f"got {residual_threshold!r}")
    nmax = _check_order(nmax)
    floor = _check_symbol(op)
    hbar = coeff_bar(h).coeffs
    for n in [n for n in _SECTIONS if n + 1 >= hbar.size]:
        section = _apply_symbol(op, np.eye(n + 1))
        rhs = np.pad(hbar, (0, len(section) - hbar.size))
        c = np.linalg.solve(section[:n + 1], rhs[:n + 1])
        if np.max(np.abs(c[-3:])) <= n * _EPS * np.max(np.abs(c)):
            break
    r = _apply_symbol(op, c[:, None])[:, 0] - rhs
    residual = float(max(1.0, 1.0 / floor) * np.sum(2 * np.abs(r))
                     + 2 * n * _EPS * np.sum(np.abs(c)))
    if residual_threshold is not None and residual > residual_threshold:
        raise ConvergenceError(
            f"solve residual {residual:.3e} exceeds threshold {residual_threshold:.3e}",
            last_values=(residual,))
    return SolutionBundle(f_series=LegendreSeries(np.pad(c, (0, MAX_ORDER - n))[:nmax + 1]),
                          g_at=coeff_unbar(LegendreSeries(c)), residual_report=residual)


def operator_to_json(op):
    """Exchange form {"op": [[re, im], ...]} listing a_0 .. a_K."""
    return {"op": _coeffs_to_json(op.coeffs)}


def operator_from_json(obj):
    return DifferentialOperator(*_coeffs_from_json("operator", obj, "op"))
