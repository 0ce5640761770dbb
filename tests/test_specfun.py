import math

import numpy as np
import pytest

from bandlim import (DomainError, InvalidOrderError, gauss_legendre_rule,
                     half_integer_bessel_via_poisson, legendre_all,
                     legendre_p, spherical_j, spherical_j_all)


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
