import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from curvlab import symmetry_op
from curvlab.curvature_core import CurvatureOperator, bianchi_project
from curvlab.errors import ArgumentError
from curvlab.lie_basis import (
    ad_matrix,
    adjoint_rotation,
    so_matrix,
    wedge_count,
    wedge_rank,
    wedge_vectors,
)
from curvlab.model_spaces import (
    LAMBDA_CRIT,
    r_lambda,
    sphere,
    sphere_product,
)
from curvlab.symmetry_op import (
    d2,
    d2_family_norm,
    g_lower_bound,
    sin_power_integral,
    sphere_volume,
)

from conftest import random_orthogonal, rotate_operator


def basis_vec(i, j, n):
    v = np.zeros(wedge_count(n))
    v[wedge_rank(i, j, n)] = 1.0
    return v


def random_curvature(rng, n):
    s = rng.standard_normal((wedge_count(n),) * 2)
    return bianchi_project(0.5 * (s + s.T)).mat


def random_simple_unit_bivector(rng, n):
    a, b = rng.standard_normal((2, n))
    b -= (a @ b) / (a @ a) * a
    return wedge_vectors(a / np.linalg.norm(a), b / np.linalg.norm(b))


class TestD2:
    def test_identity_operator_is_symmetric_everywhere(self):
        n = 6
        ident = sphere(n)
        for r in range(wedge_count(n)):
            v = np.zeros(wedge_count(n))
            v[r] = 1.0
            assert d2(ident, v).norm() == 0.0

    def test_output_invariants(self, rng):
        n = 5
        r = random_curvature(rng, n)
        ev = d2(r, rng.standard_normal(wedge_count(n)))
        assert isinstance(ev, CurvatureOperator)
        assert np.max(np.abs(ev.mat - ev.mat.T)) < 1e-12
        assert abs(ev.norm() - np.linalg.norm(ev.mat)) < 1e-12

    @pytest.mark.parametrize("n", range(5, 21))
    def test_norm_is_the_frobenius_norm_to_the_bit(self, n):
        # the container's norm reads the same sum of squares as
        # np.linalg.norm of the commutator, so every quoted value stays
        rng = np.random.default_rng(400 + n)
        r = random_curvature(rng, n)
        v = rng.standard_normal(wedge_count(n))
        ad = ad_matrix(r @ v)
        assert d2(r, v).norm() == float(np.linalg.norm(r @ ad - ad @ r))

    def test_rejects_output_off_the_bianchi_space(self, rng, monkeypatch):
        # [R, X] is symmetric for any antisymmetric X, but only an ad matrix
        # keeps it on the Bianchi space
        n = 5
        x = rng.standard_normal((wedge_count(n),) * 2)
        monkeypatch.setattr(symmetry_op, "ad_matrix", lambda _: x - x.T)
        with pytest.raises(ArgumentError, match="Bianchi"):
            d2(random_curvature(rng, n), rng.standard_normal(wedge_count(n)))

    def test_linear_in_direction(self, rng):
        n = 5
        r = random_curvature(rng, n)
        u, v = rng.standard_normal((2, wedge_count(n)))
        lhs = d2(r, 2.0 * u - 3.0 * v).mat
        rhs = 2.0 * d2(r, u).mat - 3.0 * d2(r, v).mat
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_equivariance(self, rng):
        for n in range(4, 9):
            for _ in range(10):
                r = random_curvature(rng, n)
                v = rng.standard_normal(wedge_count(n))
                g = random_orthogonal(rng, n)
                o = adjoint_rotation(g)
                lhs = d2(rotate_operator(g, r), v).mat
                rhs = o.T @ d2(r, o @ v).mat @ o
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_symmetric_spaces_have_vanishing_d2(self):
        for k, l in ((2, 3), (4, 5), (5, 6)):
            n = k + l
            r = sphere_product(k, l)
            for i, j in ((1, 2), (1, k + 1), (k, n), (k + 1, n)):
                assert d2(r, basis_vec(i, j, n)).norm() < 1e-10

    def test_crit_cp2_mixed_so4_value(self):
        # the value quoted for n = 11: sqrt(2) |1/2 - 3 lam_bar/sqrt(6)| = 0.35 sqrt(2)
        got = d2(r_lambda(LAMBDA_CRIT, 11), basis_vec(1, 3, 11)).norm()
        assert abs(got - math.sqrt(2) * 0.35) < 1e-12
        assert abs(got - 0.4950) < 1e-4

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ArgumentError):
            d2(random_curvature(rng, 5), np.zeros(3))

    def test_support_pattern_of_family(self):
        # directions outside so(4) + R^4ized block are annihilated, and the
        # operator only couples the first four coordinates to the rest
        n = 7
        r = r_lambda(1.1, n)
        assert d2(r, basis_vec(5, 6, n)).norm() == 0.0
        op = d2(r, basis_vec(1, 5, n)).mat
        dead = [wedge_rank(i, j, n) for i in range(5, n) for j in range(i + 1, n + 1)]
        assert np.max(np.abs(op[np.ix_(dead, dead)])) < 1e-12


class TestAntisymmetrizationIdentity:
    def test_factor_is_one(self, rng):
        # the four-slot contraction with X = Rm(v,w) equals the quadratic
        # derivative pairing with no extra factor; equivalently ad_X = 2 X^id
        for n in (4, 5):
            r = random_curvature(rng, n)
            u = random_simple_unit_bivector(rng, n)
            x = so_matrix(r @ u, n)
            dd = d2(r, u).mat

            def rm(a, b, c, d):
                return wedge_vectors(a, b) @ r @ wedge_vectors(c, d)

            for _ in range(10):
                a, b, c, d = rng.standard_normal((4, n))
                four = (
                    rm(x @ a, b, c, d)
                    + rm(a, x @ b, c, d)
                    + rm(a, b, x @ c, d)
                    + rm(a, b, c, x @ d)
                )
                paired = wedge_vectors(a, b) @ dd @ wedge_vectors(c, d)
                scale = max(1.0, abs(four))
                assert abs(four - paired) / scale < 1e-9

    def test_ad_is_twice_wedge_with_identity(self, rng):
        # the conversion constant between the two write-ups of the derivative
        n = 5
        x = rng.standard_normal((n, n))
        x = 0.5 * (x - x.T)
        from curvlab.lie_basis import so_coords, wedge_pairs

        pairs = np.array(wedge_pairs(n)) - 1
        i, j = pairs[:, 0], pairs[:, 1]
        ident = np.eye(n)
        half = 0.5 * (
            x[np.ix_(i, i)] * ident[np.ix_(j, j)]
            + ident[np.ix_(i, i)] * x[np.ix_(j, j)]
            - x[np.ix_(i, j)] * ident[np.ix_(j, i)]
            - ident[np.ix_(i, j)] * x[np.ix_(j, i)]
        )
        assert np.max(np.abs(ad_matrix(so_coords(x)) - 2 * half)) < 1e-12

    def test_bianchi_of_output(self, rng):
        from curvlab.curvature_core import bianchi_residual

        for n in (4, 6):
            r = random_curvature(rng, n)
            v = rng.standard_normal(wedge_count(n))
            assert bianchi_residual(d2(r, v)) < 1e-10


class TestFamilyNorms:
    def test_matches_numeric_evaluation(self, rng):
        n = 11
        pairs = [
            (1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4),
            (1, 5), (2, 7), (4, 11), (5, 6), (7, 10),
        ]
        for lam in (0.8, math.sqrt(1.5), math.sqrt(40 / 27), 2.0):
            for phi in (0.0, 0.3, 1.0):
                r = r_lambda(lam, n, phi)
                for i, j in pairs:
                    got = d2(r, basis_vec(i, j, n)).norm()
                    want = d2_family_norm(lam, n, phi, (i, j))
                    assert abs(got - want) < 1e-10

    def test_zero_directions(self):
        assert d2_family_norm(1.0, 8, 0.2, (1, 2)) == 0.0
        assert d2_family_norm(1.0, 8, 0.2, (3, 4)) == 0.0
        assert d2_family_norm(1.0, 8, 0.2, (5, 8)) == 0.0

    def test_closed_forms(self):
        lam, n, phi = 1.3, 9, 0.4
        lam_bar = lam / (n - 1)
        want = math.sqrt(2) * math.cos(phi) * abs(
            math.cos(phi) / 2 - 3 * lam_bar / math.sqrt(6)
        )
        assert abs(d2_family_norm(lam, n, phi, (1, 4)) - want) < 1e-15
        assert abs(
            d2_family_norm(lam, n, phi, (2, 7)) - math.cos(phi) * lam_bar
        ) < 1e-15

    def test_validation(self):
        with pytest.raises(ArgumentError):
            d2_family_norm(-1.0, 8, 0.0, (1, 2))
        with pytest.raises(ArgumentError):
            d2_family_norm(1.0, 8, 1.8, (1, 2))


class TestGLowerBound:
    def test_critical_value(self):
        got = g_lower_bound(math.sqrt(1.5), math.pi / 4, 0.0, 11)
        assert abs(got - math.sqrt(0.065)) < 1e-12
        assert abs(got - 0.2549510) < 1e-7

    def test_recomputed_vs_quoted(self):
        # the catalogue quotes ~0.303088 for these arguments; the displayed
        # formula evaluates to ~0.25550 and both variants of the norm term
        # agree to six decimals, so the discrepancy is reported, not asserted
        lam, phi, n = math.sqrt(40 / 27), 1e-6, 11
        got = g_lower_bound(lam, math.pi / 4, phi, n)

        def loss(norm_term):
            root = math.sqrt(norm_term / (2 * (n - 1)) + math.cos(phi) ** 2)
            return math.sin(phi) / 2 * (root + math.sin(phi))

        # the suspected misprint: lambda^2 n in place of the displayed lambda n
        variant = got + loss(lam * n) - loss(lam**2 * n)
        assert abs(got - 0.2554973) < 1e-6
        assert abs(variant - got) < 1e-7
        assert abs(got - 0.303088) > 0.04

    def test_negative_at_right_angle(self):
        assert g_lower_bound(1.2, math.pi / 4, math.pi / 2, 11) < 0

    def test_mpmath_backend_agrees(self):
        a = g_lower_bound(math.sqrt(1.5), math.pi / 4, 0.01, 11)
        with mpmath.workdps(40):
            b = g_lower_bound(
                mpmath.sqrt(mpmath.mpf(3) / 2), mpmath.pi / 4, mpmath.mpf("0.01"), 11,
                lib=mpmath,
            )
        assert abs(a - float(b)) < 1e-13

    def test_validation(self):
        with pytest.raises(ArgumentError):
            g_lower_bound(-1.0, math.pi / 4, 0.0, 11)
        with pytest.raises(ArgumentError):
            g_lower_bound(1.0, 1.0, 0.0, 11)  # psi beyond pi/4
        with pytest.raises(ArgumentError):
            g_lower_bound(1.0, math.pi / 4, -0.1, 11)
        with pytest.raises(ArgumentError, match="n >= 5, got 1"):
            g_lower_bound(1.0, math.pi / 4, 0.1, 1)


class TestScalarHelpers:
    def test_sin_power_basics(self):
        assert abs(sin_power_integral(1, math.pi / 4) - (1 - math.sqrt(2) / 2)) < 1e-15
        assert sin_power_integral(0, 0.7) == 0.7
        # an integral float power is accepted, as sphere_volume accepts one
        assert sin_power_integral(3.0, 0.5) == sin_power_integral(3, 0.5)

    def test_nine_at_quarter_turn(self):
        got = sin_power_integral(9, math.pi / 4)
        assert abs(got - 0.0041115) < 1e-6  # quoted to two significant figures
        assert abs(got - 0.004112075067) < 1e-11

    def test_matches_quadrature(self):
        for m in (2, 3, 7, 9, 14):
            want, _ = quad(lambda t: math.sin(t) ** m, 0, math.pi / 4, epsabs=1e-14)
            assert abs(sin_power_integral(m, math.pi / 4) - want) < 1e-12

    def test_full_interval(self):
        # int_0^pi sin^2 = pi/2
        assert abs(sin_power_integral(2, math.pi) - math.pi / 2) < 1e-14

    def test_sphere_volumes(self):
        assert abs(sphere_volume(1) - 2 * math.pi) < 1e-14
        assert abs(sphere_volume(2) - 4 * math.pi) < 1e-14
        assert abs(sphere_volume(9) - 2 * math.pi**5 / 24) < 1e-12
        assert abs(sphere_volume(0) - 2.0) < 1e-14

    def test_mpmath_backend(self):
        with mpmath.workdps(30):
            a = sin_power_integral(9, mpmath.pi / 4, lib=mpmath)
            v = sphere_volume(9, lib=mpmath)
        assert abs(float(a) - sin_power_integral(9, math.pi / 4)) < 1e-15
        assert abs(float(v) - sphere_volume(9)) < 1e-12

    def test_validation(self):
        with pytest.raises(ArgumentError):
            sin_power_integral(-1, 0.5)
        with pytest.raises(ArgumentError):
            sin_power_integral(2, 4.0)
        with pytest.raises(ArgumentError):
            sphere_volume(-2)
