"""Gauss-Legendre rules on [-1,1] and oscillatory integrals over the line.

The line integrals here are of the form  int_-inf^inf g(y) e^{-iyt} dy
with an envelope g that decays only like 1/|y|, so they converge
conditionally and plain truncation stalls.  The engine integrates a core
window exactly, in chunks of four segments, splits each tail into
half-period segments of length pi, and accelerates the segment partial
sums.  Each core chunk and its mirror share one envelope call, as each
convergence check's new segments of both tails do; the core's nodes are
mapped, and its chunk sums added, once per integral.  With
length-pi segments the two modes of a spherical-Bessel-type envelope,
e^{iy(1-t)} and e^{-iy(1+t)}, share the per-segment ratio -e^{-i pi t} on
the right tail (its conjugate on the left), which a known-ratio deflation
removes; a Levin u-transformation mops up the algebraic remainder.  A
product of two such functions, as a Gram entry j_n j_m is, has the tail
modes e^{+-2iy}/y^2 and 1/y^2 instead: with the factor e^{-iyt} they share
the ratio +e^{-i pi t}, which is 1 at t = 0, where the accelerator skips
deflation and extrapolates the partial sums alone.  In general an envelope
of `factors` band-limited factors has the ratio (-1)^factors e^{-i pi t}.
A stack of rows even in y at t = 0 (the Gram matrix's) is evaluated on
the right tail only: the left tail's nodes and weighted products are the
right's mirrored exactly, so its sums keep every bit.

The slow beat mode at frequency 1-|t| carries its information only at
|y| of order 1/(1-|t|), so the core half-width scales like 1/(1-|t|)
before any acceleration; no resummation recovers it from short-range
samples.  The nodes depend on |t| alone, so t and -t can share a stack.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EvaluationError, InvalidRuleError
from .specfun import _real_scalar

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100
_MAX_RULE_POINTS = 4096

# tail-acceleration engine constants
_SEGMENT = math.pi      # tail segment length: both Bessel-tail modes share a ratio
_MIN_HALFWIDTH = 8.0    # core half-width floor, before rounding up to segments
_EDGE_SCALE = 20.0      # core half-width ~ _EDGE_SCALE / (1 - |t|)
_MIN_EDGE_DIST = 4e-4   # clamp for t essentially on the band edge
_SEG_GAUSS_POINTS = 32
_CORE_CHUNK_PERIODS = 4  # core chunk length in units of the segment length
_UNC_FACTOR = 500.0  # accepted accelerator spread, in units of tol
_MAX_DEFLATIONS = 12  # known-ratio deflations per accelerator call
_FIRST_CHECK = 12  # tail segments before the first convergence check
_CHECK_EVERY = 6  # tail segments between later checks
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
        if np.iscomplexobj(self.nodes) or np.iscomplexobj(self.weights):
            raise InvalidRuleError("nodes and weights must be real")
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


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def gauss_legendre_rule(npoints):
    """The npoints-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of P_npoints, found by Newton iteration from the
    Chebyshev-angle guesses cos(pi (i - 1/4)/(npoints + 1/2)); weights are
    w_i = 2 / ((1 - x_i^2) P'_npoints(x_i)^2).  Exact for polynomials of
    degree <= 2 npoints - 1.
    """
    if not _is_int(npoints):
        raise InvalidRuleError(f"npoints must be an integer, got {npoints!r}")
    n = int(npoints)
    if n < 1 or n > _MAX_RULE_POINTS:
        raise InvalidRuleError(f"npoints {n} outside [1, {_MAX_RULE_POINTS}]")
    if n == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]))

    i = np.arange(1, n + 1)
    x = np.cos(math.pi * (i - 0.25) / (n + 0.5))
    dx = math.inf
    for _ in range(_NEWTON_MAXIT + 1):  # the last pass only evaluates P'
        pm, p = np.ones_like(x), x.copy()
        for k in range(1, n):
            pm, p = p, ((2 * k + 1) * x * p - k * pm) / (k + 1)
        dp = n * (pm - x * p) / (1.0 - x * x)
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break  # dp is the derivative at the converged nodes
        dx = p / dp
        x -= dx
    else:
        raise InvalidRuleError(f"Newton iteration for {n}-point rule did not converge")
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
    """Relative tolerance and tail-segment cap of the accelerated line
    integrals (_line_rows)."""

    tol: float = 1e-9
    max_segments: int = 400

    def __post_init__(self):
        real = isinstance(self.tol, numbers.Real) and not isinstance(self.tol, bool)
        if not (real and math.isfinite(self.tol) and self.tol > 0):
            raise InvalidRuleError(f"tol must be a positive finite real, got {self.tol!r}")
        if not _is_int(self.max_segments):
            raise InvalidRuleError(
                f"max_segments must be an integer, got {self.max_segments!r}")
        if self.max_segments < _FIRST_CHECK:
            raise InvalidRuleError(f"need max_segments >= {_FIRST_CHECK}")


@functools.cache
def _seg_rule():
    return gauss_legendre_rule(_SEG_GAUSS_POINTS)


def _segment_integral(fn, a, b):
    """int_a^b fn by the segment rule, row by row, for scalar ends; fn maps
    the nodes to a stack of shape (k, m) (see _line_integrals).  The line
    engine calls it only for the middle chunk of an odd core; the tails'
    ends go to _segment_integrals, and the core's pairs of chunks to
    _segment_nodes, once, and _segment_sums, once a pair."""
    return _segment_integrals(fn, np.asarray(a), np.asarray(b))


def _segment_integrals(fn, a, b):
    """int fn by the segment rule on every segment [a, b] of the end arrays
    a, b, in one call of fn; the result has shape (k,) + a.shape."""
    half, x = _segment_nodes(a, b)
    return half * _segment_sums(fn, x)


def _segment_nodes(a, b):
    """The half-lengths of the segments [a, b] of the end arrays a, b, and
    the segment rule's nodes on each, of shapes a.shape and a.shape + (32,)."""
    half = 0.5 * (b - a)
    return half, half[..., None] * _seg_rule().nodes + 0.5 * (a + b)[..., None]


def _segment_sums(fn, x):
    """The segment rule's weighted sums of fn on the nodes x of _segment_nodes,
    in one call of fn; shape (k,) + x.shape[:-1], to be scaled by the
    half-lengths."""
    vals = fn(x.reshape(-1)).reshape((-1,) + x.shape)
    return (_seg_rule().weights * vals).sum(axis=-1)


@functools.cache
def _levin_coefficients():
    """Row n + 2: the Levin u weights (-1)^j C(n, j) ((1+j)/(1+n))^(n-1),
    j = 0..n, zero-padded; the rows of fewer than 4 terms are 0.  Read-only."""
    width = max(_LEVIN_PREFIXES) - 1
    table = np.zeros((width + 2, width))
    for n in range(2, width):
        j = np.arange(n + 1)
        binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        table[n + 2, :n + 1] = (-1.0) ** j * binom * ((1.0 + j) / (1.0 + n)) ** (n - 1)
    table.flags.writeable = False
    return table


def _levin_limit(table, cols, lengths, k0):
    """Levin u estimates of the limits of the sequences table[cols[i], r,
    :lengths[i]], shape (pairs, rows), for every row r of the (columns,
    rows, L) table.  k0 is the index of the first term relative to the true
    start of the tail (the remainder after k segments scales like
    1/(k0 + k), and the remainder estimates must use that offset or the
    extrapolation model is wrong).  A sequence whose estimate breaks down
    (fewer than 4 terms, a zero or non-finite denominator or value) gets its
    last partial sum instead.  Each pair sums only its own prefix (where=),
    which numpy adds as a .sum() of that prefix alone: the same bits."""
    width = lengths.max() - 1
    seq = table[cols, :, :width + 1]
    S = seq[..., 1:]
    terms = S - seq[..., :-1]
    w = (1.0 + k0 + np.arange(1, width + 1)) * terms
    w = np.where(np.abs(w) < 1e-280, 1e-280, w)
    coef = _levin_coefficients()[lengths, None, :width]
    prefix = np.arange(width) < lengths[:, None, None] - 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = (coef / w).sum(axis=-1, where=prefix)  # 0 for fewer than 4 terms
        val = (coef * S / w).sum(axis=-1, where=prefix) / den
    ok = (den != 0) & np.isfinite(den) & np.isfinite(val)
    return np.where(ok, val, seq[np.arange(cols.size), :, lengths - 1])


@functools.lru_cache(maxsize=256)
def _levin_plan(length, ncol, known):
    """The Levin candidates _accelerate scores on `length` partial sums and
    ncol columns, given the tuple `known` of final candidate rows.  Row
    2 + 4c + q is column c's estimate on its prefix min(_LEVIN_PREFIXES[q],
    column length), final once the column is that long.  Returns the
    (column, length) pairs to score, as two arrays; the rows they fill, the
    pairs of each row's value and of its one-shorter twin (the spread); and
    the rows final after the call."""
    pairs, rows, value, twin, final = {}, [], [], [], []
    for c in range(ncol):
        for q, prefix in enumerate(_LEVIN_PREFIXES):
            row, p = 2 + 4 * c + q, min(prefix, length - c)
            if p == prefix:
                final.append(row)
            if row not in known:
                rows.append(row)
                value.append(pairs.setdefault((c, p), len(pairs)))
                twin.append(pairs.setdefault((c, p - 1), len(pairs)))
    plan = (*np.array(list(pairs), dtype=int).reshape(-1, 2).T, np.array(rows, dtype=int),
            np.array(value, dtype=int), np.array(twin, dtype=int))
    for index in plan:  # shared by every call with these arguments
        index.flags.writeable = False
    return *plan, tuple(final)


def _accelerate(partials, ratio, k0, known=None):
    """Best limit estimates for rows of tail partial sums, shape (k, L).

    Alternates known-ratio deflation (removes the oscillatory mode with the
    per-segment ratio: a scalar, or a (k, 1) column with one per row; it
    stops when every ratio is 1) with Levin extrapolation of each deflation
    column, in one zero-padded (columns, k, L) table.  The candidates are,
    in order: the last partial sum, then for each column its last partial
    sum and its Levin estimates on the prefixes min(P, column length) for P
    in _LEVIN_PREFIXES, a repeated prefix next to its first copy; each row
    keeps the first candidate with the smallest internal spread.  One
    _levin_limit call scores every Levin estimate the call needs.  Returns
    (estimates, spreads) of shape (k,); a spread is a rough uncertainty.

    known, a dict, carries the final Levin candidates (see _levin_plan) over
    calls on growing prefixes of the same rows: their "rows", within the last
    call's candidate "values" and "spreads" of shape (candidates, k).  A call
    scores only the candidates it lacks, and leaves its own in known.
    """
    known = {} if known is None else known
    s = np.asarray(partials, dtype=complex)
    k, L = s.shape
    gap = 1.0 - ratio
    ncol = 0 if L < 3 else 1 if np.all(np.abs(gap) < 1e-8) else min(L - 2, _MAX_DEFLATIONS + 1)
    table = s[None]  # one column or none: the partial sums themselves
    if ncol > 1:
        table = np.zeros((ncol, k, L), dtype=complex)
        table[0] = s
        for c in range(1, ncol):
            prev = table[c - 1, :, :L - c + 1]
            table[c, :, :L - c] = (prev[:, 1:] - ratio * prev[:, :-1]) / gap
    cols, lengths, fill, value, twin, final = _levin_plan(L, ncol, known.get("rows", ()))

    values = np.empty((1 + 4 * ncol, k), dtype=complex)
    spreads = np.empty((1 + 4 * ncol, k))
    if known.get("rows"):
        values[:len(known["values"])] = known["values"]
        spreads[:len(known["spreads"])] = known["spreads"]
    values[0] = s[:, -1]
    spreads[0] = np.abs(s[:, -1] - s[:, -2]) if L > 1 else math.inf
    c = np.arange(ncol)
    values[1::4] = table[c, :, L - 1 - c]
    spreads[1::4] = np.abs(values[1::4] - table[c, :, L - 2 - c])
    if fill.size:
        est = _levin_limit(table, cols, lengths, k0)
        values[fill] = est[value]
        spreads[fill] = np.abs(est[value] - est[twin])
    spreads[np.isnan(spreads)] = math.inf
    known.update(rows=final, values=values, spreads=spreads)
    best = np.argmin(spreads, axis=0)  # the first minimum: earlier candidates win ties
    rows = np.arange(k)
    return values[best, rows], spreads[best, rows]


def _line_rows(envelope, t, params, labels=None, factors=1, even=False):
    """Yields (i, int envelope(y)[i] e^{-iy t_i} dy) the moment row i converges.

    envelope maps nodes y of shape (m,) to a stack (k, m), or (1, m) shared
    by every row, of envelopes that decay like 1/|y|.  t is a scalar, or a
    1-d array of k values t_i that share the one |t| on which the nodes
    depend.  The core is integrated in chunks of four segments: chunk i and
    its mirror nchunks - 1 - i in one envelope call, the middle chunk of an
    odd count in one of its own.  Every chunk keeps its own nodes and
    weighted sum, but the nodes of all pairs are mapped in one step, and the
    chunk values are added in chunk order by one sequential accumulation,
    once per integral.  The right and left tails of row i are rows i and
    k + i of one stack of partial sums; each check integrates the new
    segments of both tails with one envelope call.  A row is frozen at the
    first check where its successive accelerated values agree to params.tol
    relatively, so it gets exactly the value and history of a one-row call
    on its envelope values and t_i, and the first row still open fails as
    that call does: ConvergenceError naming its t_i, and the name of each
    open row from labels, an iterable of row names read only then, once
    max_segments is exhausted, with its last two values.  A row's Levin
    candidates are scored once per integral: a check scores only its new
    ones, all in one _levin_limit call, and a row that converges leaves the
    arrays of final candidates with the keep mask.  factors is
    the number of band-limited factors of every envelope row (2 for a
    product j_n j_m): the right tails share the per-segment ratio
    (-1)^factors e^{-i pi t_i}, the left tails its conjugate.  even says
    every row is even in y (j_n j_m, n + m even), for the scalar t = 0 only:
    each check evaluates the right tails' new segments alone, and a left
    segment sums its mirror's weighted products in reverse order.  No bit
    moves, as the segment rule is exactly symmetric and e^{-iy 0} is a cast
    to complex.  A params that is not a LineIntegralParams, or even with
    another t, is refused before any envelope call.
    """
    if not isinstance(params, LineIntegralParams):
        raise InvalidRuleError("params must be a LineIntegralParams")
    t = np.asarray(t, dtype=float)
    abs_t = float(np.max(np.abs(t)))
    if not math.isfinite(abs_t):
        raise EvaluationError("t must be finite")
    if t.ndim > 1 or np.any(np.abs(t) != abs_t):
        raise EvaluationError("t must be a scalar or a 1-d array sharing one |t|")
    if even and (t.ndim or abs_t):
        raise EvaluationError("even rows need the scalar t = 0")
    L = _SEGMENT
    fn = ((lambda y: envelope(y).astype(complex)) if even
          else lambda y: envelope(y) * np.exp(-1j * y * t[..., None]))

    # the beat mode at frequency |1 - |t|| needs samples out to ~1/(1-|t|)
    edge_dist = abs(1.0 - abs_t)
    halfwidth = max(_MIN_HALFWIDTH,
                    _EDGE_SCALE / max(edge_dist, _MIN_EDGE_DIST))
    halfwidth = L * math.ceil(halfwidth / L)

    nchunks = max(2, math.ceil(2.0 * halfwidth / (_CORE_CHUNK_PERIODS * L)))
    edges = np.linspace(-halfwidth, halfwidth, nchunks + 1)
    lo, hi = edges[:-1], edges[1:]
    mid = nchunks // 2
    # chunk i and its mirror nchunks - 1 - i share one envelope call, on
    # nodes mapped for every pair at once; the middle chunk of an odd count
    # has a call of its own
    half, nodes = _segment_nodes(np.stack([lo[:mid], lo[:-mid - 1:-1]], axis=-1),
                                 np.stack([hi[:mid], hi[:-mid - 1:-1]], axis=-1))
    pairs = half * np.stack([_segment_sums(fn, x) for x in nodes], axis=1)  # (k, mid, 2)
    k = pairs.shape[0]
    middle = [_segment_integral(fn, lo[mid], hi[mid])[:, None]] if nchunks % 2 else []
    # added in chunk order 0 .. nchunks - 1, left to right on the line, onto
    # a column of +0 as in a plain sum, in one sequential accumulation
    chunks = np.concatenate([np.zeros((k, 1)), pairs[:, :, 0], *middle, pairs[:, ::-1, 1]],
                            axis=1)
    core = np.cumsum(chunks, axis=1)[:, -1]

    # with L = pi every tail mode of a product of `factors` Bessel-type
    # functions shares one per-segment ratio per tail
    row_t = np.broadcast_to(t, (k,))
    ratio = np.exp(1j * math.pi * np.concatenate([-row_t, row_t]))[:, None]
    if factors % 2:
        ratio = -ratio
    k0 = halfwidth / L

    sums = np.empty((0, 2 * k), dtype=complex)  # per segment: right tails, then left
    nseg = 0
    pending = np.arange(k)  # rows not yet converged
    known = {}  # the pending tail rows' final Levin candidates, for _accelerate
    history = []  # the pending rows' values at the last one or two checks
    batch = _FIRST_CHECK
    while nseg < params.max_segments:
        target = min(nseg + batch, params.max_segments)
        a = halfwidth + np.arange(nseg, target) * L  # right segments' lower ends
        if even:
            half, x = _segment_nodes(a, a + L)
            products = _seg_rule().weights * fn(x.reshape(-1)).reshape((-1,) + x.shape)
            seg = half[:, None] * np.stack([products.sum(axis=-1),
                                            products[..., ::-1].copy().sum(axis=-1)], axis=-1)
        else:
            seg = _segment_integrals(fn, np.stack([a, -a - L], axis=-1),
                                     np.stack([a + L, -a], axis=-1))
        terms = seg.transpose(1, 2, 0).reshape(target - nseg, 2 * k)
        if nseg:  # continue the sequential sums from their last row
            terms[0] += sums[-1]
        sums = np.concatenate([sums, np.cumsum(terms, axis=0)])
        nseg = target
        batch = _CHECK_EVERY
        n = pending.size
        # fancy indexing copies: the accelerator gets C-contiguous rows
        rows = np.concatenate([pending, pending + k])
        tails, spread = _accelerate(sums.T[rows], ratio[rows], k0, known)
        est = core[pending] + tails[:n] + tails[n:]
        if history:
            scale = params.tol * np.maximum(1.0, np.abs(est))
            done = ((np.abs(est - history[-1]) <= scale)
                    & (spread[:n] + spread[n:] <= _UNC_FACTOR * scale))
            yield from zip(pending[done].tolist(), est[done])
            pending, est = pending[~done], est[~done]
            if not pending.size:
                return
            history = [history[-1][~done]]
            if done.any():
                keep = np.concatenate([~done, ~done])
                known.update(values=known["values"][:, keep], spreads=known["spreads"][:, keep])
        history.append(est)
    names = None if labels is None else list(labels)
    named = "" if names is None else " for " + ", ".join(names[i] for i in pending)
    raise ConvergenceError(
        f"line integral at t={float(row_t[pending[0]])!r} did not converge to "
        f"tol={params.tol} within {params.max_segments} segments{named}",
        last_values=tuple(complex(h[0]) for h in history[-2:]))


def _line_integrals(envelope, t, params, labels=None, factors=1, even=False):
    """The k values of _line_rows as one array, in row order."""
    return np.array([v for _, v in sorted(_line_rows(envelope, t, params, labels, factors, even))])


def integrate_oscillatory_line(envelope, t, params=None):
    """int_-inf^inf envelope(y) e^{-iyt} dy for a 1/|y|-decay envelope.

    envelope must be vectorized: an array of y in, an array of the same
    shape out.

    Returns the accelerated limit once successive accelerated values agree
    to params.tol relatively; raises ConvergenceError (naming t and
    carrying the last two values) if max_segments is exhausted first.
    """
    if params is None:
        params = LineIntegralParams()
    return complex(_line_integrals(lambda y: _eval_integrand(envelope, y)[None],
                                   _real_scalar(t, "t"), params)[0])
