"""Constant-coefficient linear ODEs solved by symbol division.

For L = sum_k a_k d^k/dz^k acting on a band-limited g(z) = int f(t) e^{izt} dt,
differentiation under the integral turns L into multiplication by the
symbol F(it) = sum_k a_k (it)^k.  Solving L g = h with h = sum d_n j_n
reduces to the pointwise division f(t) = hhat(t) / F(it), where
hhat = sum d_n (2 i^n)^{-1} P_n; g is the forward transform of the ratio's
interpolant at the compact rule's nodes, a Bessel series.  Zeros of F(it)
on [-1, 1] leave the method undefined and are refused with a diagnostic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularSymbolError
from .specfun import _check_order
from .transform import (BesselSeries, LegendreSeries, _as_coeffs, _as_legendre,
                        _check_rule, _coeffs_from_json, _coeffs_to_json, coeff_bar,
                        coeff_unbar, forward_transform, legendre_projection)

_SYMBOL_FLOOR = 1e-8
_SYMBOL_SAMPLES = 512
_CHECK_GRID = np.arange(-10.0, 10.0 + 0.25, 0.5)


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
        t = np.asarray(t, dtype=float)
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
    return complex(op.symbol(np.asarray(float(t))))


def apply_operator(op, f, z, config):
    """(L g)(z) = int_-1^1 f(t) F(it) e^{izt} dt, differentiation done
    under the integral sign; f is a LegendreSeries or vectorized callable
    on [-1,1], and z a scalar or an array (the result has its shape)."""
    return forward_transform(lambda t: f(t) * op.symbol(t), z, config)


@dataclass(frozen=True)
class SolutionBundle:
    """Result of a transform-domain solve.

    f_series: the first nmax + 1 Legendre coefficients of hhat/F's interpolant
    at the compact rule's nodes; g_at: that interpolant's forward transform, a
    BesselSeries; residual_report: max |L g - h| over the check grid.
    """

    f_series: LegendreSeries
    g_at: BesselSeries
    residual_report: float


def _check_symbol(op, rule):
    ts = np.concatenate([np.linspace(-1.0, 1.0, _SYMBOL_SAMPLES), rule.nodes])
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


def solve(op, h, nmax, config, residual_threshold=None):
    """Solve L g = h for a finite Bessel series h by symbol division.

    hhat/F is evaluated once, at the compact rule's nodes, which must number
    at least nmax + 1 (RuleTooSmallError).  Raises SingularSymbolError if
    F(it) has a zero on [-1, 1]; raises ConvergenceError if
    residual_threshold is given and the check-grid residual exceeds it.
    """
    if not isinstance(h, BesselSeries):
        raise DomainError("h must be a BesselSeries")
    nmax = _check_order(nmax)
    _check_symbol(op, config.compact_rule)
    _check_rule(config.compact_rule, nmax)
    hbar = coeff_bar(h)
    f = _as_legendre(lambda t: hbar(t) / op.symbol(t), config.compact_rule)
    f_series = legendre_projection(f, nmax, config.compact_rule)
    lg = apply_operator(op, f, _CHECK_GRID, config)
    residual = float(np.max(np.abs(lg - h(_CHECK_GRID))))
    if residual_threshold is not None and residual > residual_threshold:
        raise ConvergenceError(
            f"solve residual {residual:.3e} exceeds threshold {residual_threshold:.3e}",
            last_values=(residual,))
    return SolutionBundle(f_series=f_series, g_at=coeff_unbar(f), residual_report=residual)


def operator_to_json(op):
    """Exchange form {"op": [[re, im], ...]} listing a_0 .. a_K."""
    return {"op": _coeffs_to_json(op.coeffs)}


def operator_from_json(obj):
    return DifferentialOperator(*_coeffs_from_json("operator", obj, "op"))
