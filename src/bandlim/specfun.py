"""Legendre polynomials P_n and spherical Bessel functions j_n.

Evaluation strategies:
  * P_n by the three-term recurrence
        (n+1) P_{n+1}(t) = (2n+1) t P_n(t) - n P_{n-1}(t),  P_0 = 1, P_1 = t.
  * j_n in three regimes: ascending series near the origin, upward
    recurrence when |z| is well above the order (for j_0 alone, everywhere
    past the series: sin z / z), and downward (Miller) recurrence with a
    posteriori normalization otherwise, where upward recurrence loses all
    accuracy.
  * Negative arguments of j_n go through the parity rule
    j_n(-z) = (-1)^n j_n(z).

Also provides the Poisson-integral evaluation of the half-integer Bessel
function J_{n+1/2}, used as an independent cross-check on j_n.
"""

import math

import numpy as np

from .errors import DomainError, InvalidOrderError

MAX_ORDER = 128

_SERIES_CUTOFF = 0.5   # |z| below this: ascending series
_MILLER_EXTRA = 34     # extra downward-recurrence orders before normalization
_RESCALE_LIMIT = 1e250
_FLOAT = np.dtype(float)


def _check_order(n):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidOrderError(f"order must be an integer, got {n!r}")
    if n < 0 or n > MAX_ORDER:
        raise InvalidOrderError(f"order {n} outside supported range [0, {MAX_ORDER}]")
    return int(n)


def _real(x, what):
    """x as a float array, bit for bit if it is real; an entry with a nonzero
    imaginary part raises DomainError instead of being cut to its real part,
    and so does data that is not numeric (a string, None) or is boolean.
    Every z and t entering the library passes here, and a float array, as
    the line engine's nodes are, pays one dtype test."""
    x = np.asarray(x)
    if x.dtype is not _FLOAT:
        if x.dtype.kind not in "iufc":
            shown = repr(x.item()) if x.ndim == 0 else f"an array of {x.dtype}"
            raise DomainError(f"{what} must be real, got {shown}")
        if x.dtype.kind == "c":
            if np.any(x.imag):
                raise DomainError(f"{what} must be real")
            x = x.real
        x = x.astype(float)
    return x


def _real_scalar(x, what):
    """_real of a scalar argument, as a float; an array raises DomainError."""
    x = _real(x, what)
    if x.ndim:
        raise DomainError(f"{what} must be a scalar, got shape {x.shape}")
    return float(x)


def legendre_all(nmax, t):
    """All Legendre polynomials P_0(t) .. P_nmax(t) in one recurrence pass.

    t may be a scalar or an array with entries in [-1, 1]; the result has
    shape (nmax+1,) + shape(t).
    """
    nmax = _check_order(nmax)
    t = _real(t, "legendre_all: t")
    if not np.all(np.abs(t) <= 1.0):  # NaN fails too
        raise DomainError("legendre_all: every t must lie in [-1, 1]")
    out = np.empty((nmax + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = t
    for n in range(1, nmax):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    return out


def legendre_p(n, t):
    """P_n(t) for |t| <= 1."""
    return float(legendre_all(n, t)[n])


def _jn_series(nmax, z):
    """Ascending series for j_n, |z| small, every order in one pass.

    j_n(z) = z^n / (2n+1)!! * sum_k (-z^2/2)^k / (k! prod_{m=1..k}(2n+2m+1))
    """
    n = np.arange(nmax + 1).reshape((-1,) + (1,) * z.ndim)
    zpow = np.cumprod(np.where(n == 0, 1.0, z), axis=0)  # z^n
    # (2n+1)!!; past order 149 it overflows to inf, where z^n / (2n+1)!!
    # underflows to 0 anyway
    with np.errstate(over="ignore"):
        dfact = np.cumprod(2.0 * n + 1, axis=0)
    mzsq = -(z * z)
    k = np.arange(1, 14).reshape((-1,) + (1,) * n.ndim)
    term = total = np.ones((nmax + 1,) + z.shape)  # the first step rebinds term
    for denom in 2.0 * k * (2 * n + 2 * k + 1):
        term = term * mzsq / denom
        total += term
    return zpow / dfact * total


def _jn_upward(nmax, z):
    """Upward recurrence, stable for |z| above the highest order."""
    out = np.empty((nmax + 1,) + z.shape, dtype=float)
    out[0] = np.sin(z) / z
    if nmax >= 1:
        out[1] = out[0] / z - np.cos(z) / z
    for n in range(1, nmax):
        out[n + 1] = (2 * n + 1) / z * out[n] - out[n - 1]
    return out


def _jn_miller(nmax, z):
    """Downward (Miller) recurrence normalized against j_0 or j_1.  Every 8
    steps, points past _RESCALE_LIMIT are scaled by the exact 2^-830; a step
    grows them at most 651-fold, as (2n+1)/|z| <= 650 at |z| >= 0.5."""
    start = nmax + _MILLER_EXTRA
    trial = np.zeros((start + 2,) + z.shape, dtype=float)
    trial[start] = 1e-30
    # scratch rows, as a ufunc writing over one of its inputs pays an overlap test
    rows, ratio, product = list(trial), np.empty_like(z), np.empty_like(z)
    for n in range(start, 0, -1):
        np.divide(2 * n + 1, z, ratio)
        np.multiply(ratio, rows[n], product)
        np.subtract(product, rows[n + 1], rows[n - 1])
        if n % 8 == 0 and np.abs(rows[n - 1]).max() > _RESCALE_LIMIT:
            big = np.abs(rows[n - 1]) > _RESCALE_LIMIT
            trial[n - 1:, big] = np.ldexp(trial[n - 1:, big], -830)
    out = trial[:nmax + 1]
    # normalize with whichever of the j_0, j_1 trials is better conditioned
    # at each point (nmax >= 1: j_0 alone never comes here)
    j0 = np.sin(z) / z
    j1 = j0 / z - np.cos(z) / z
    use0 = np.abs(out[0]) >= np.abs(out[1])
    ref = np.where(use0, out[0], out[1])
    tgt = np.where(use0, j0, j1)
    scale = np.where(ref != 0.0, tgt / np.where(ref != 0.0, ref, 1.0), 0.0)
    return out * scale


def _jn_table(nmax, z, what="spherical_j: argument"):
    """j_0..j_nmax at every point of array z; shape (nmax+1,) + z.shape.
    A z that is not real and finite raises DomainError naming it `what`.

    Each regime's kernel works point by point, so points that all lie in
    one regime (every node of a line integral's tail, for one) go to it as
    they are, with the bits of the gathered path."""
    z = _real(z, what)
    if not np.isfinite(z).all():
        raise DomainError(f"{what} must be finite")
    flat = z.reshape(-1)
    az = np.abs(flat)
    # j_0 alone is sin z / z, exact past the series; j_1's upward form cancels
    up = az >= (nmax + 2 if nmax else _SERIES_CUTOFF)
    small = az < _SERIES_CUTOFF
    regimes = ((up, _jn_upward), (small, _jn_series), (~(up | small), _jn_miller))
    for mask, kernel in regimes:
        if mask.all():
            out = kernel(nmax, az)
            break
    else:
        out = np.empty((nmax + 1, flat.size), dtype=float)
        for mask, kernel in regimes:
            if mask.any():
                out[:, mask] = kernel(nmax, az[mask])
    if nmax:  # j_n(-z) = (-1)^n j_n(z); at order 0 there is no odd row
        np.negative(out[1::2], out=out[1::2], where=flat < 0.0)
    return out.reshape((nmax + 1,) + z.shape)


def spherical_j_all(nmax, z):
    """j_0(z) .. j_nmax(z) in one stable pass.

    z may be a finite real scalar or an array; the result has shape
    (nmax+1,) + shape(z).
    """
    return _jn_table(_check_order(nmax), z)


def spherical_j(n, z):
    """Spherical Bessel function j_n(z) for real z."""
    return float(spherical_j_all(n, z)[n])


def half_integer_bessel_via_poisson(n, z, rule):
    """J_{n+1/2}(z) by quadrature of the Poisson integral representation,

        J_nu(z) = (z/2)^nu / (Gamma(nu+1/2) Gamma(1/2))
                  * int_0^pi cos(z cos(theta)) sin(theta)^(2 nu) dtheta

    with nu = n + 1/2, so Gamma(nu+1/2) = Gamma(n+1) = n!.
    """
    n = _check_order(n)
    z = _real_scalar(z, "half_integer_bessel_via_poisson: z")
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError("half_integer_bessel_via_poisson: z must be positive and finite")
    nu = n + 0.5
    # map the rule from [-1,1] to [0, pi]
    theta = 0.5 * math.pi * (np.asarray(rule.nodes) + 1.0)
    w = 0.5 * math.pi * np.asarray(rule.weights)
    integral = float(np.sum(w * np.cos(z * np.cos(theta)) * np.sin(theta) ** (2.0 * nu)))
    prefactor = (0.5 * z) ** nu / (math.factorial(n) * math.sqrt(math.pi))
    return prefactor * integral
