import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlim import (DomainError, InvalidOrderError, gauss_legendre_rule,
                     half_integer_bessel_via_poisson, legendre_all,
                     legendre_p, spherical_j, spherical_j_all)
from bandlim import specfun


def jn_reference(n, z):
    """Ascending-series oracle, independent of the library implementation.

    j_n(z) = sum_k (-1)^k z^(n+2k) / (2^k k! (2n+2k+1)!!)
    """
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    dfact = 1.0
    for m in range(1, 2 * n + 2, 2):
        dfact *= m
    term = z ** n / dfact
    total = term
    for k in range(1, 200):
        term *= -z * z / (2.0 * k * (2 * n + 2 * k + 1))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


class TestLegendre:
    def test_p0_is_one(self):
        assert legendre_p(0, 0.3) == 1.0

    def test_p1_at_one(self):
        assert legendre_p(1, 1.0) == 1.0

    def test_p2_closed_form(self):
        assert legendre_p(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_all_at_one(self):
        np.testing.assert_allclose(legendre_all(2, 1.0), [1.0, 1.0, 1.0],
                                   rtol=0, atol=0)

    def test_all_at_zero(self):
        np.testing.assert_allclose(legendre_all(2, 0.0), [1.0, 0.0, -0.5],
                                   rtol=0, atol=1e-16)

    def test_all_at_minus_one(self):
        np.testing.assert_allclose(legendre_all(3, -1.0), [1, -1, 1, -1],
                                   rtol=0, atol=0)

    def test_endpoint_values_exact(self):
        vals = legendre_all(64, 1.0)
        assert np.all(vals == 1.0)
        vals = legendre_all(64, -1.0)
        signs = (-1.0) ** np.arange(65)
        assert np.all(vals == signs)

    def test_bounded_by_one(self):
        t = np.linspace(-1.0, 1.0, 201)
        vals = legendre_all(64, t)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-14

    def test_domain_error(self):
        with pytest.raises(DomainError):
            legendre_p(2, 1.5)
        with pytest.raises(DomainError):
            legendre_all(2, np.array([0.0, -1.01]))
        with pytest.raises(DomainError):
            legendre_p(2, math.nan)
        with pytest.raises(DomainError):
            legendre_all(2, np.array([0.0, math.nan]))

    def test_order_errors(self):
        with pytest.raises(InvalidOrderError):
            legendre_p(-1, 0.0)
        with pytest.raises(InvalidOrderError):
            legendre_p(2.5, 0.0)
        with pytest.raises(InvalidOrderError):
            legendre_all(10 ** 6, 0.0)


class TestSphericalJ:
    def test_j0_at_zero(self):
        assert spherical_j(0, 0.0) == 1.0

    def test_jn_at_zero(self):
        assert spherical_j(3, 0.0) == 0.0

    def test_j1_at_one(self):
        assert spherical_j(1, 1.0) == pytest.approx(0.30116867893976,
                                                    abs=1e-14)

    def test_all_at_zero(self):
        np.testing.assert_allclose(spherical_j_all(1, 0.0), [1.0, 0.0],
                                   rtol=0, atol=0)

    def test_j0_at_pi(self):
        assert spherical_j_all(0, math.pi)[0] == pytest.approx(0.0, abs=1e-16)

    def test_against_series_oracle(self):
        vals = spherical_j_all(5, 2.0)
        for n in range(6):
            assert vals[n] == pytest.approx(jn_reference(n, 2.0), abs=1e-13)

    def test_oracle_grid(self):
        for z in [0.1, 0.4, 0.7, 1.5, 3.0, 6.0, 9.0]:
            for n in range(11):
                assert spherical_j(n, z) == pytest.approx(
                    jn_reference(n, z), rel=1e-12, abs=1e-15)

    def test_parity(self):
        zs = np.linspace(0.1, 30.0, 60)
        for n in range(33):
            for z in zs:
                assert abs(spherical_j(n, -z)
                           - (-1.0) ** n * spherical_j(n, z)) < 1e-14

    def test_array_matches_points(self):
        # series (|z| < 0.5), Miller (0.5 <= |z| < nmax + 2) and upward
        # recurrence (|z| >= nmax + 2) points in one call, both signs
        zs = np.array([-0.3, 0.0, 0.2, 0.49, 0.5, 1.0, -5.0, 15.0, 21.9,
                       -22.0, 30.0, 45.5])
        table = spherical_j_all(20, zs)
        assert table.shape == (21, zs.size)
        for k, z in enumerate(zs):
            np.testing.assert_array_equal(table[:, k],
                                          spherical_j_all(20, float(z)))
        grid = spherical_j_all(20, zs.reshape(3, 4))
        np.testing.assert_array_equal(grid, table.reshape(21, 3, 4))

    def test_recurrence_residual(self):
        for z in [0.7, 2.0, 5.0, 11.0, 23.0]:
            j = spherical_j_all(20, z)
            for n in range(1, 20):
                res = j[n - 1] + j[n + 1] - (2 * n + 1) / z * j[n]
                scale = max(abs(j[n - 1]), abs(j[n]), abs(j[n + 1]))
                assert abs(res) < 1e-12 * max(scale, 1e-30)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            spherical_j(0, math.inf)

    @pytest.mark.parametrize("nmax", [100, 128])
    def test_high_order_miller_against_mpmath(self, nmax):
        # at small |z| the downward recurrence from the 1e-30 trial value
        # overflows unless it is rescaled on the way down
        mpmath = pytest.importorskip("mpmath")
        for z in (0.5, 0.75, 1.0, 1.5):
            with mpmath.workdps(60):
                ref = [mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(n + 0.5, z)
                       for n in range(nmax + specfun._MILLER_EXTRA + 1)]
                if nmax == 128:  # the trial recurrence passes the rescale limit
                    assert ref[0] / ref[-1] * 1e-30 > specfun._RESCALE_LIMIT
            for sign in (1, -1):
                got = spherical_j_all(nmax, sign * z)
                for n in range(nmax + 1):
                    want = float(sign ** n * ref[n])
                    if abs(want) >= sys.float_info.min:
                        assert abs(got[n] - want) <= 1e-14 * abs(want)


# The per-order j_n code the one-pass table replaced, kept as its reference:
# the ascending series one order at a time, the Miller normalization with
# its order-0 branch, and the parity rule one odd order at a time.
def _ref_jn_series(nmax, z):
    out = np.empty((nmax + 1,) + z.shape, dtype=float)
    zsq = z * z
    dfact = 1.0  # (2n+1)!!
    zpow = np.ones_like(z)
    for n in range(nmax + 1):
        if n > 0:
            dfact *= 2 * n + 1
            zpow = zpow * z
        term = np.ones_like(z)
        total = np.ones_like(z)
        for k in range(1, 14):
            term = term * (-zsq) / (2.0 * k * (2 * n + 2 * k + 1))
            total += term
        out[n] = zpow / dfact * total
    return out


def _ref_jn_miller(nmax, z):
    out = np.zeros((nmax + 1,) + z.shape, dtype=float)
    jp = np.zeros_like(z)
    jc = np.full_like(z, 1e-30)
    for n in range(nmax + specfun._MILLER_EXTRA, -1, -1):
        if n <= nmax:
            out[n] = jc
        jm = (2 * n + 1) / z * jc - jp
        jp, jc = jc, jm
        big = np.abs(jc) > specfun._RESCALE_LIMIT
        if big.any():
            jp = np.where(big, jp * 1e-250, jp)
            jc = np.where(big, jc * 1e-250, jc)
            out[:, big] *= 1e-250
    j0 = np.sin(z) / z
    j1 = j0 / z - np.cos(z) / z
    use0 = np.abs(out[0]) >= np.abs(out[1]) if nmax >= 1 else np.ones(z.shape, bool)
    if nmax >= 1:
        ref = np.where(use0, out[0], out[1])
        tgt = np.where(use0, j0, j1)
    else:
        ref, tgt = out[0], j0
    scale = np.where(ref != 0.0, tgt / np.where(ref != 0.0, ref, 1.0), 0.0)
    return out * scale


def _ref_jn_table(nmax, z):
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    az = np.abs(flat)
    out = np.empty((nmax + 1, flat.size), dtype=float)
    small = az < specfun._SERIES_CUTOFF
    up = (~small) & (az >= nmax + 2)
    mid = (~small) & (~up)
    out[:, small] = _ref_jn_series(nmax, az[small])
    out[:, up] = specfun._jn_upward(nmax, az[up])
    out[:, mid] = _ref_jn_miller(nmax, az[mid])
    neg = flat < 0.0
    for n in range(1, nmax + 1, 2):
        out[n, neg] = -out[n, neg]
    return out.reshape((nmax + 1,) + z.shape)


class TestJnTableOracle:
    """The one-pass table equals the per-order reference bit for bit, in
    all three regimes, at both signs and at the regime boundaries."""

    SPECIAL = [0.0, -0.0, 1e-10, -1e-10, 1e-300, 0.49999999999, -0.49999999999]
    GRID = np.concatenate([np.linspace(-0.5, 0.5, 6001),
                           np.linspace(-200.0, 200.0, 7001), SPECIAL])

    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 5, 8, 16, 31, 64, 100, 128])
    def test_bits_match_reference(self, nmax):
        got = specfun._jn_table(nmax, self.GRID)
        assert got.tobytes() == _ref_jn_table(nmax, self.GRID).tobytes()
        for z in self.SPECIAL + [0.5, -0.75, 3.0, -150.0]:
            got = specfun._jn_table(nmax, z)
            want = _ref_jn_table(nmax, z)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def one_regime_points(draw):
    """(nmax, z): points of both signs that all lie in one of _jn_table's
    regimes, |z| < 0.5, 0.5 <= |z| < nmax + 2 or |z| >= nmax + 2."""
    nmax = draw(st.integers(0, specfun.MAX_ORDER))
    lo, hi = draw(st.sampled_from([(0.0, specfun._SERIES_CUTOFF),
                                   (specfun._SERIES_CUTOFF, nmax + 2.0),
                                   (nmax + 2.0, 1e4)]))
    size = draw(st.integers(1, 24))
    magnitudes = draw(st.lists(st.floats(lo, hi, exclude_max=True), min_size=size,
                               max_size=size))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=size, max_size=size))
    return nmax, np.array(magnitudes) * np.array(signs)


class TestJnTableOneRegime:
    """Points in one regime go to its kernel as they are, and keep the bits
    of the same points gathered from a table that spans all three regimes."""

    @settings(max_examples=150, deadline=None)
    @given(one_regime_points())
    def test_bits_equal_gathered_columns(self, case):
        nmax, z = case
        mixed = np.concatenate([z, [0.1, 1.0, nmax + 3.0]])
        got = specfun._jn_table(nmax, z)
        assert got.tobytes() == specfun._jn_table(nmax, mixed)[:, :z.size].tobytes()


class TestPoisson:
    def test_j_half_closed_form(self):
        rule = gauss_legendre_rule(64)
        z = math.pi / 2
        assert half_integer_bessel_via_poisson(0, z, rule) == pytest.approx(
            2.0 / math.pi, abs=1e-12)

    def test_j_three_halves_matches_j1(self):
        rule = gauss_legendre_rule(64)
        val = half_integer_bessel_via_poisson(1, 1.0, rule)
        assert math.sqrt(math.pi / 2.0) * val == pytest.approx(
            0.30116867893976, abs=1e-12)

    def test_zero_of_sin(self):
        rule = gauss_legendre_rule(64)
        assert half_integer_bessel_via_poisson(0, 2 * math.pi, rule) == \
            pytest.approx(0.0, abs=1e-10)

    def test_consistency_with_spherical_j(self):
        rule = gauss_legendre_rule(80)
        for n in range(11):
            for z in np.linspace(0.5, 20.0, 14):
                lhs = math.sqrt(math.pi / (2.0 * z)) * \
                    half_integer_bessel_via_poisson(n, float(z), rule)
                assert abs(lhs - spherical_j(n, float(z))) < 1e-10

    def test_domain_error(self):
        rule = gauss_legendre_rule(16)
        with pytest.raises(DomainError):
            half_integer_bessel_via_poisson(0, -1.0, rule)

    @pytest.mark.parametrize("z", [math.inf, math.nan])
    def test_non_finite_z_refused(self, z):
        with pytest.raises(DomainError, match="positive and finite"):
            half_integer_bessel_via_poisson(2, z, gauss_legendre_rule(16))
