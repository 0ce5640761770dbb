"""Reference values for the benchmark, computed without importing bandlim.

Legendre values and Gauss rules come from numpy.polynomial.legendre,
spherical Bessel values from mpmath at 30 significant digits, and the rest
from exact identities of the transform pair:

    f = sum cbar_n P_n   <->   g = sum c_n j_n,   cbar_n = c_n / (2 i^n)
    int j_n j_m dy = pi/(2n+1) delta_nm,   C* = 2 pi,
    sum (2n+1) i^n P_n(t) j_n(z) = e^{izt}.
"""

import cmath
import math

import mpmath
import numpy as np
from numpy.polynomial import legendre as npleg

mpmath.mp.dps = 30

C_STAR = 2.0 * math.pi
_I_POWERS = (1.0, 1j, -1.0, -1j)
_ODE_RULE = npleg.leggauss(128)


def i_power(n):
    """i**n without rounding."""
    return _I_POWERS[n % 4]


def cbar_from_c(c):
    """Legendre coefficients c_n / (2 i^n) of the Bessel series sum c_n j_n."""
    return np.array([cn / (2.0 * i_power(n)) for n, cn in enumerate(c)])


def spherical_jn(n, z):
    """j_n(z) for real z, from mpmath's J_{n+1/2} at 30 digits."""
    z = mpmath.mpf(float(z))
    if z == 0:
        return 1.0 if n == 0 else 0.0
    val = mpmath.sqrt(mpmath.pi / (2 * abs(z))) * mpmath.besselj(n + mpmath.mpf(1) / 2, abs(z))
    return float(val) * (-1.0) ** n if z < 0 else float(val)


def bessel_series(c, z):
    """sum_n c_n j_n(z)."""
    return complex(sum(cn * spherical_jn(n, z) for n, cn in enumerate(c)))


def legendre_series(cbar, t):
    """sum_n cbar_n P_n(t) for scalar or array t."""
    return npleg.legval(t, np.asarray(cbar, dtype=complex))


def legendre_pn(n, t):
    """P_n(t) for scalar or array t."""
    return npleg.legval(t, np.eye(n + 1)[n])


def gauss_rule(npoints):
    """Nodes and weights of the npoints Gauss-Legendre rule, ascending."""
    return npleg.leggauss(npoints)


def gram_matrix(nmax):
    """int j_n(y) j_m(y) dy = pi/(2n+1) delta_nm."""
    return np.diag([math.pi / (2 * n + 1) for n in range(nmax + 1)])


def plane_wave(z, t):
    return cmath.exp(1j * z * t)


def ode_solution(op, c, z):
    """g(z) = int_-1^1 hbar(t) / F(it) e^{izt} dt solving L g = sum c_n j_n.

    F(it) = sum_k op_k (it)^k; the integrand is analytic near [-1, 1] for the
    operators the benchmark draws, so a 128-point Gauss rule is exact to
    roundoff.
    """
    t, w = _ODE_RULE
    symbol = sum(a * (1j * t) ** k for k, a in enumerate(op))
    f = legendre_series(cbar_from_c(c), t) / symbol
    return np.array([np.sum(w * f * np.exp(1j * zz * t)) for zz in np.atleast_1d(z)])


def rel_error(value, ref):
    """Worst |value - ref| / max(1, |ref|) over matching entries."""
    value = np.asarray(value, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if value.shape != ref.shape:
        return math.inf
    if value.size == 0:
        return 0.0
    return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))


def self_check():
    """Compare the oracles with closed forms; raise if one disagrees."""
    checks = {
        "j0 = sin z / z": (spherical_jn(0, 1.7), math.sin(1.7) / 1.7),
        "j1 closed form": (spherical_jn(1, 3.2),
                           math.sin(3.2) / 3.2 ** 2 - math.cos(3.2) / 3.2),
        "j2(-z) parity": (spherical_jn(2, -2.5), spherical_jn(2, 2.5)),
        "j5(0)": (spherical_jn(5, 0.0), 0.0),
        "P2 closed form": (legendre_pn(2, 0.3), (3 * 0.09 - 1) / 2),
        "Gauss exact on t^8": (float(np.sum(gauss_rule(5)[1] * gauss_rule(5)[0] ** 8)),
                               2.0 / 9.0),
        "cbar of 2 j_1": (cbar_from_c([0.0, 2.0])[1], -1j),
        "ode g(0) = pi/2": (ode_solution([1.0, 0.0, -1.0], [2.0], 0.0)[0], math.pi / 2),
        "ode against mpmath.quad": (
            ode_solution([1.0, 0.0, -1.0], [2.0], 3.0)[0],
            complex(mpmath.quad(lambda x: mpmath.cos(3 * x) / (1 + x * x), [-1, 1]))),
        "Bauer sum at order 40": (
            sum((2 * n + 1) * i_power(n) * legendre_pn(n, 0.6) * spherical_jn(n, 4.0)
                for n in range(41)),
            plane_wave(4.0, 0.6)),
    }
    bad = {name: pair for name, pair in checks.items() if abs(pair[0] - pair[1]) > 1e-13}
    if bad:
        raise RuntimeError(f"oracle self-check failed: {bad}")
