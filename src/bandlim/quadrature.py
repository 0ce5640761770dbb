"""Gauss-Legendre rules on [-1,1] and oscillatory integrals over the line.

The line integrals here are of the form  int_-inf^inf g(y) e^{-iyt} dy
with an envelope g that decays only like 1/|y|, so they converge
conditionally and plain truncation stalls.  The engine integrates a core
window exactly, splits each tail into half-period segments of length pi,
and accelerates the segment partial sums.  With length-pi segments the two
asymptotic oscillation modes of a spherical-Bessel-type envelope,
e^{iy(1-t)} and e^{-iy(1+t)}, share the single per-segment ratio
-e^{-i pi t} on the right tail (and its conjugate on the left), which a
known-ratio deflation removes; a Levin u-transformation mops up whatever
converges only algebraically (e.g. 1/y^2 product tails).

The slow beat mode at frequency 1-|t| carries its information only at
|y| of order 1/(1-|t|), so the core half-width is scaled up like
1/(1-|t|) before any acceleration is attempted; no resummation can
recover that mode from short-range samples.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EvaluationError, InvalidRuleError

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100
_MAX_RULE_POINTS = 4096

# tail-acceleration engine constants
_SEGMENT = math.pi      # tail segment length: both Bessel-tail modes share a ratio
_MIN_HALFWIDTH = 8.0    # core half-width floor, before rounding up to segments
_EDGE_SCALE = 20.0      # core half-width ~ _EDGE_SCALE / (1 - |t|)
_MIN_EDGE_DIST = 4e-4   # clamp for t essentially on the band edge
_MAX_HALFWIDTH = 6e4
_SEG_GAUSS_POINTS = 32
_CORE_CHUNK_PERIODS = 4  # core chunk length in units of the segment length
_UNC_FACTOR = 500.0  # accepted accelerator spread, in units of tol
_MAX_DEFLATIONS = 12  # known-ratio deflations; also the first tail batch
# Levin extrapolation acts on contiguous prefixes of the partial-sum
# sequence.  The limit information sits in the early terms (where the
# signal dominates roundoff), and the transform order must stay modest:
# its alternating binomial weights amplify roundoff roughly like 2^order.
# Sliding the window to late terms instead makes the remainder invisible:
# at offset k the remainder ~c/k cannot be recovered from a short window
# around k once k is much larger than the window.
_LEVIN_PREFIXES = (12, 16, 20)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integration over [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise InvalidRuleError("nodes and weights must be 1-d and equal length")
        if nodes.size == 0:
            raise InvalidRuleError("empty rule")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidRuleError("nodes must be strictly increasing")
        if np.any(np.abs(nodes) >= 1.0):
            raise InvalidRuleError("nodes must lie strictly inside (-1, 1)")
        if np.any(weights <= 0):
            raise InvalidRuleError("weights must be positive")
        if np.max(np.abs(nodes + nodes[::-1])) > 1e-15:
            raise InvalidRuleError("nodes must be symmetric about 0")
        if np.max(np.abs(weights - weights[::-1])) > 1e-14:
            raise InvalidRuleError("weights must be symmetric")
        if abs(float(np.sum(weights)) - 2.0) > 1e-14:
            raise InvalidRuleError("weights must sum to 2")

    def __len__(self):
        return self.nodes.size


def gauss_legendre_rule(npoints):
    """The npoints-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of P_npoints, found by Newton iteration from the
    Chebyshev-angle guesses cos(pi (i - 1/4)/(npoints + 1/2)); weights are
    w_i = 2 / ((1 - x_i^2) P'_npoints(x_i)^2).  Exact for polynomials of
    degree <= 2 npoints - 1.
    """
    if not isinstance(npoints, (int, np.integer)) or isinstance(npoints, bool):
        raise InvalidRuleError(f"npoints must be an integer, got {npoints!r}")
    n = int(npoints)
    if n < 1 or n > _MAX_RULE_POINTS:
        raise InvalidRuleError(f"npoints {n} outside [1, {_MAX_RULE_POINTS}]")
    if n == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]))

    i = np.arange(1, n + 1)
    x = np.cos(math.pi * (i - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_MAXIT):
        pm, p = np.ones_like(x), x.copy()
        for k in range(1, n):
            pm, p = p, ((2 * k + 1) * x * p - k * pm) / (k + 1)
        dp = n * (pm - x * p) / (1.0 - x * x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise InvalidRuleError(f"Newton iteration for {n}-point rule did not converge")

    # final derivative at the converged nodes
    pm, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        pm, p = p, ((2 * k + 1) * x * p - k * pm) / (k + 1)
    dp = n * (pm - x * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    # enforce exact symmetry; initial guesses arrive in decreasing order
    x = x[::-1].copy()
    w = w[::-1].copy()
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    w *= 2.0 / np.sum(w)
    return QuadratureRule(x, w)


def _eval_integrand(fn, x):
    """fn(x) for the node array x; fn must be vectorized and finite there."""
    vals = np.asarray(fn(x))
    if vals.shape != x.shape:
        raise EvaluationError(
            f"integrand returned shape {vals.shape} for nodes of shape "
            f"{x.shape}; it must map an array to an array of the same shape")
    bad = ~np.isfinite(vals)
    if bad.any():
        raise EvaluationError(f"integrand not finite at node(s) {x[bad][:3]}")
    return vals


def integrate_compact(integrand, rule):
    """Sum_i w_i integrand(x_i) for a rule on [-1, 1]."""
    vals = _eval_integrand(integrand, rule.nodes)
    return complex(np.sum(rule.weights * vals))


@dataclass(frozen=True)
class LineIntegralParams:
    """Relative tolerance and tail-segment cap of the line integrals."""

    tol: float = 1e-9
    max_segments: int = 400

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidRuleError("tol must be positive")
        if self.max_segments < _MAX_DEFLATIONS:
            raise InvalidRuleError(f"need max_segments >= {_MAX_DEFLATIONS}")


@functools.cache
def _seg_rule():
    return gauss_legendre_rule(_SEG_GAUSS_POINTS)


def _segment_integral(fn, a, b):
    """int_a^b fn by the segment rule; fn evaluates its envelope through
    _eval_integrand (see integrate_oscillatory_line)."""
    rule = _seg_rule()
    x = 0.5 * (b - a) * rule.nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * complex(np.sum(rule.weights * fn(x)))


def _levin_limit(seq, prefix, k0):
    """Levin u estimate of the limit of a partial-sum sequence.

    Uses the first `prefix` entries of seq; k0 is the index of the first
    term relative to the true start of the tail (the remainder after k
    segments scales like 1/(k0 + k), and the remainder estimates must use
    that offset or the extrapolation model is wrong).
    """
    seq = np.asarray(seq[:prefix], dtype=complex)
    n = seq.size - 2
    if n < 2:
        return complex(seq[-1])
    idx = np.arange(1, seq.size)
    S = seq[idx]
    terms = seq[idx] - seq[idx - 1]
    j = np.arange(n + 1)
    w = (1.0 + k0 + idx) * terms
    w = np.where(np.abs(w) < 1e-280, 1e-280, w)
    binom = np.array([math.comb(n, int(jj)) for jj in j], dtype=float)
    coef = (-1.0) ** j * binom * ((1.0 + j) / (1.0 + n)) ** (n - 1)
    den = np.sum(coef / w)
    if den == 0 or not np.isfinite(den):
        return complex(seq[-1])
    val = complex(np.sum(coef * S / w) / den)
    return val if np.isfinite(val) else complex(seq[-1])


def _accelerate(partials, ratio, max_deflations, k0):
    """Best limit estimate for tail partial sums.

    Alternates known-ratio deflation (removes the oscillatory mode with the
    given per-segment ratio) with Levin extrapolation of each deflation
    column; keeps whichever candidate has the smallest internal spread.
    Returns (estimate, spread); the spread is a rough uncertainty.
    """
    s = np.asarray(partials, dtype=complex)
    best = complex(s[-1])
    best_unc = abs(s[-1] - s[-2]) if s.size > 1 else math.inf
    for _ in range(max_deflations + 1):
        if s.size >= 3:
            delta = abs(s[-1] - s[-2])
            if delta < best_unc:
                best, best_unc = complex(s[-1]), delta
            for prefix in _LEVIN_PREFIXES:
                p = min(prefix, s.size)
                lv = _levin_limit(s, p, k0)
                spread = abs(lv - _levin_limit(s, p - 1, k0))
                if spread < best_unc:
                    best, best_unc = lv, spread
                if p == s.size:
                    break
        if s.size < 3 or abs(1.0 - ratio) < 1e-8:
            break
        s = (s[1:] - ratio * s[:-1]) / (1.0 - ratio)
    return best, best_unc


def integrate_oscillatory_line(envelope, t, params=None):
    """int_-inf^inf envelope(y) e^{-iyt} dy for a 1/|y|-decay envelope.

    envelope must be vectorized: an array of y in, an array of the same
    shape out.

    Returns the accelerated limit once successive accelerated values agree
    to params.tol relatively; raises ConvergenceError (carrying the last
    two values) if max_segments is exhausted first.
    """
    if params is None:
        params = LineIntegralParams()
    t = float(t)
    if not math.isfinite(t):
        raise EvaluationError("t must be finite")
    L = _SEGMENT
    fn = lambda y: _eval_integrand(envelope, y) * np.exp(-1j * y * t)

    # the beat mode at frequency |1 - |t|| needs samples out to ~1/(1-|t|)
    edge_dist = abs(1.0 - abs(t))
    halfwidth = max(_MIN_HALFWIDTH,
                    _EDGE_SCALE / max(edge_dist, _MIN_EDGE_DIST))
    halfwidth = min(halfwidth, _MAX_HALFWIDTH)
    halfwidth = L * math.ceil(halfwidth / L)

    nchunks = max(2, math.ceil(2.0 * halfwidth / (_CORE_CHUNK_PERIODS * L)))
    edges = np.linspace(-halfwidth, halfwidth, nchunks + 1)
    core = sum(_segment_integral(fn, a, b) for a, b in zip(edges[:-1], edges[1:]))

    # with L = pi both Bessel-tail modes share one per-segment ratio
    ratio_right = -np.exp(-1j * math.pi * t)
    ratio_left = -np.exp(1j * math.pi * t)

    terms_r, terms_l = [], []
    nseg = 0
    history = []
    batch = _MAX_DEFLATIONS
    while nseg < params.max_segments:
        target = min(nseg + batch, params.max_segments)
        while nseg < target:
            a = halfwidth + nseg * L
            terms_r.append(_segment_integral(fn, a, a + L))
            terms_l.append(_segment_integral(fn, -a - L, -a))
            nseg += 1
        batch = 6
        k0 = halfwidth / L
        right, unc_r = _accelerate(np.cumsum(terms_r), ratio_right,
                                   _MAX_DEFLATIONS, k0)
        left, unc_l = _accelerate(np.cumsum(terms_l), ratio_left,
                                  _MAX_DEFLATIONS, k0)
        est = core + right + left
        scale = params.tol * max(1.0, abs(est))
        if (history and abs(est - history[-1]) <= scale
                and unc_r + unc_l <= _UNC_FACTOR * scale):
            return est
        history.append(est)
    raise ConvergenceError(
        f"line integral did not converge to tol={params.tol} "
        f"within {params.max_segments} segments",
        last_values=tuple(history[-2:]),
    )
