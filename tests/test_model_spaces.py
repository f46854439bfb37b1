import collections
import math

import numpy as np
import pytest

from curvlab.curvature_core import (
    decompose,
    potential,
    potential_normalized,
    q_map,
    ricci,
    sharp,
    wedge_product,
)
from curvlab.errors import ArgumentError
from curvlab.lie_basis import sp1_basis, wedge_count, wedge_pairs, wedge_vectors
from curvlab.model_spaces import (
    LAMBDA_CRIT,
    cpn,
    intermediate_range,
    r_lambda,
    sphere,
    sphere_product,
    theta,
    theta_threshold,
    w_cp2,
)

from conftest import rotate_operator


def cos_to_identity(r):
    """Cosine of the angle between R and the identity: tr R / (||R|| sqrt N)."""
    return np.trace(r.mat) / (np.linalg.norm(r.mat) * math.sqrt(r.N))


class TestSphere:
    def test_sphere_is_identity(self):
        assert np.array_equal(sphere(5).mat, np.eye(10))


class TestSphereProduct:
    def test_einstein_with_constant(self):
        for k, l in ((2, 2), (3, 5), (5, 6)):
            r = sphere_product(k, l)
            assert np.max(np.abs(ricci(r) - (k - 1) * np.eye(k + l))) < 1e-12
            assert abs(decompose(r).scal - (k + l) * (k - 1)) < 1e-12

    def test_norm_squared(self):
        k, l = 5, 6
        r = sphere_product(k, l)
        n = k + l
        want = (k - 1) * (2 * k * l - n) / (2 * (l - 1))
        assert abs(np.sum(r.mat**2) - want) < 1e-12
        assert abs(want - 19.6) < 1e-12

    def test_weyl_norm_squared(self):
        for k, l in ((4, 4), (5, 6), (3, 7)):
            n = k + l
            d = decompose(sphere_product(k, l))
            want = k * l / 2 * (k - 1) / (l - 1) * (n - 2) / (n - 1)
            assert abs(d.weyl.norm() ** 2 - want) < 1e-10

    def test_vanishing_square_plus_sharp_combination(self):
        # R^2 + R# = (k-1) R for sphere products
        k, l = 4, 5
        r = sphere_product(k, l).mat
        assert np.max(np.abs(r @ r + sharp(r).mat - (k - 1) * r)) < 1e-12

    def test_diagonal_in_the_wedge_basis(self):
        # 1 on so(k), (k-1)/(l-1) on so(l), 0 on the mixed pairs
        for k, l in ((2, 2), (3, 5), (6, 4)):
            ratio = (k - 1) / (l - 1)
            want = [
                1.0 if j <= k else ratio if i > k else 0.0
                for i, j in wedge_pairs(k + l)
            ]
            assert np.array_equal(sphere_product(k, l).mat, np.diag(want))

    def test_bytes_of_the_wedge_formula(self):
        # the diagonal written from the index pairs is the product formula
        # P ^ P + (k-1)/(l-1) P' ^ P' to the byte, zeros' signs included
        for k in range(2, 11):
            for l in range(k, 21 - k):
                p = np.diag(np.repeat([1.0, 0.0], [k, l]))
                q = np.eye(k + l) - p
                want = wedge_product(p, p).mat
                want = want + (k - 1) / (l - 1) * wedge_product(q, q).mat
                assert sphere_product(k, l).mat.tobytes() == want.tobytes()

    def test_rejects_thin_factors(self):
        with pytest.raises(ArgumentError):
            sphere_product(1, 5)
        with pytest.raises(ArgumentError):
            sphere_product(4, 1)


class TestTheta:
    def test_matches_normalized_weyl_potential(self):
        for k in range(2, 10):
            for l in range(k, 10):
                d = decompose(sphere_product(k, l))
                assert abs(potential_normalized(d.weyl.mat) - theta(k, l)) < 1e-10

    def test_closed_values(self):
        assert abs(theta(5, 5) - 1.2) < 1e-12
        assert abs(theta(6, 5) - math.sqrt(40 / 27)) < 1e-12
        assert abs(theta(6, 5) - 1.217161239) < 1e-9
        assert abs(theta(2, 3) - 2 * math.sqrt(2) / 3) < 1e-12

    def test_threshold_both_parities(self):
        for n in range(4, 13):
            k = (n + 1) // 2
            assert abs(theta_threshold(n) - theta(k, n - k)) < 1e-12
        assert abs(theta_threshold(10) - 1.2) < 1e-12


class TestCPn:
    def test_spectrum(self):
        for m in (2, 3, 4):
            vals = np.linalg.eigvalsh(cpn(m).mat)
            counts = collections.Counter(np.round(vals, 9) + 0.0)
            assert counts[0.0] == m * (m - 1)
            assert counts[2.0] == m * m - 1
            assert counts[float(2 * m + 2)] == 1

    def test_einstein_and_norm(self):
        for m in (2, 3, 4):
            c = cpn(m)
            assert np.max(np.abs(ricci(c) - (2 * m + 2) * np.eye(2 * m))) < 1e-12
            assert abs(np.sum(c.mat**2) - 2 * m * (4 * m + 4)) < 1e-12

    def test_cp2_matrix(self):
        want = np.array(
            [
                [1, 0, 0, 0, 0, 1],
                [0, 4, 0, 0, 2, 0],
                [0, 0, 1, 1, 0, 0],
                [0, 0, 1, 1, 0, 0],
                [0, 2, 0, 0, 4, 0],
                [1, 0, 0, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(cpn(2).mat, want)

    def test_cp2_in_sp1_basis(self):
        sp = sp1_basis(4)
        basis = np.array([sp[x + s] / np.sqrt(2) for s in "+-" for x in "ijk"])
        diag = basis @ cpn(2).mat @ basis.T
        assert np.allclose(diag, np.diag([2.0, 2.0, 2.0, 0.0, 6.0, 0.0]))

    def test_rejects_zero(self):
        with pytest.raises(ArgumentError):
            cpn(0)

    @pytest.mark.parametrize("m", [3, 4])
    def test_unitary_invariance(self, rng, m):
        # U(m) acts on R^2m = C^m, e_{m+k} = i e_k, by the real matrices
        # [[A, -B], [B, A]] of U = A + iB; Fubini-Study is invariant
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        u, _ = np.linalg.qr(z)
        g = np.block([[u.real, -u.imag], [u.imag, u.real]])
        c = cpn(m).mat
        assert np.max(np.abs(rotate_operator(g, c) - c)) < 1e-12

    @pytest.mark.parametrize("m", [3, 4])
    def test_sectional_curvatures(self, rng, m):
        # K(x, y) = 1 + 3 <Jx, y>^2 on orthonormal x, y: 4 on complex lines
        c = cpn(m).mat
        e = np.eye(2 * m)
        for k in range(m):
            v = wedge_vectors(e[k], e[m + k])
            assert v @ c @ v == 4.0
        v = wedge_vectors(e[0], e[1])
        assert v @ c @ v == 1.0
        j = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(m))
        for _ in range(5):
            x, y = np.linalg.qr(rng.standard_normal((2 * m, 2)))[0].T
            v = wedge_vectors(x, y)
            assert abs(v @ c @ v - (1.0 + 3.0 * (j @ x @ y) ** 2)) < 1e-12


class TestWCP2:
    def test_unit_weyl_eigenvector(self):
        for n in (4, 7, 11):
            w = w_cp2(n)
            assert abs(w.norm() - 1.0) < 1e-12
            assert np.max(np.abs(ricci(w))) < 1e-12
            assert np.max(np.abs(q_map(w.mat).mat - LAMBDA_CRIT * w.mat)) < 1e-10
            assert abs(potential(w.mat) - LAMBDA_CRIT) < 1e-10

    def test_four_dim_matrix(self):
        want = (
            1
            / (2 * np.sqrt(6))
            * np.array(
                [
                    [2, 0, 0, 0, 0, -2],
                    [0, -1, 0, 0, -1, 0],
                    [0, 0, -1, 1, 0, 0],
                    [0, 0, 1, -1, 0, 0],
                    [0, -1, 0, 0, -1, 0],
                    [-2, 0, 0, 0, 0, 2],
                ],
                dtype=float,
            )
        )
        assert np.max(np.abs(w_cp2(4).mat - want)) < 1e-15

    def test_padding_is_zero(self):
        w = w_cp2(6).mat
        inside = wedge_count(4)
        # only pairs within the first four coordinates may carry entries
        live = [r for r, (i, j) in enumerate(wedge_pairs(6)) if j <= 4]
        mask = np.zeros(w.shape, dtype=bool)
        mask[np.ix_(live, live)] = True
        assert np.max(np.abs(w[~mask])) == 0
        assert len(live) == inside

    def test_rotation_from_unrotated_diagonal(self):
        # the SU(2) element (1 + k_-)/sqrt(2) maps the diagonal form
        # diag(0,0,0,-1,2,-1)/sqrt(6) in the sp(1) basis onto w_cp2
        sp = sp1_basis(4)
        g = (1 / np.sqrt(2)) * np.array(
            [[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]], dtype=float
        )
        src = (1 / np.sqrt(6)) * (
            -0.5 * np.outer(sp["i-"], sp["i-"])
            + 1.0 * np.outer(sp["j-"], sp["j-"])
            - 0.5 * np.outer(sp["k-"], sp["k-"])
        )
        assert np.max(np.abs(rotate_operator(g, src) - w_cp2(4).mat)) < 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(ArgumentError):
            w_cp2(3)


class TestRLambda:
    def test_decompose_recovers_inputs(self):
        n, lam = 11, 1.1
        d = decompose(r_lambda(lam, n))
        assert np.max(np.abs(d.weyl.mat - w_cp2(n).mat)) < 1e-12
        assert np.max(np.abs(d.ricci0)) < 1e-12
        assert abs(d.scal / (n * (n - 1)) - lam / (n - 1)) < 1e-12

    def test_angle_formula(self):
        for n, lam in ((5, 0.9), (11, 1.3)):
            cos2 = cos_to_identity(r_lambda(lam, n)) ** 2
            assert abs(cos2 - lam**2 * n / (lam**2 * n + 2 * (n - 1))) < 1e-12

    def test_crit_cp2_is_q_eigenvector(self):
        for n in (5, 11):
            r = r_lambda(LAMBDA_CRIT, n)
            assert np.max(np.abs(q_map(r.mat).mat - LAMBDA_CRIT * r.mat)) < 1e-10

    def test_crit_cp2_angle(self):
        for n in (5, 8, 11):
            cos2 = cos_to_identity(r_lambda(LAMBDA_CRIT, n)) ** 2
            assert abs(cos2 - 3 * n / (7 * n - 4)) < 1e-12

    def test_validation(self):
        n = 5
        with pytest.raises(ArgumentError):
            r_lambda(-1.0, n)
        with pytest.raises(ArgumentError):
            r_lambda(1.0, n, phi=2.0)


class TestIntermediateRange:
    def test_even_example(self):
        r = intermediate_range(10)
        assert abs(r.lo - 1.2) < 1e-12
        assert abs(r.hi - math.sqrt(1.5)) < 1e-12
        assert not r.empty

    def test_odd_example(self):
        r = intermediate_range(11)
        assert abs(r.lo - math.sqrt(40 / 27)) < 1e-12
        assert 1.22 in r

    def test_empty_from_twelve(self):
        assert intermediate_range(12).empty
        assert intermediate_range(13).empty
        assert not intermediate_range(5).empty

    def test_rejects_small_dimension(self):
        with pytest.raises(ArgumentError, match="need n >= 5, got 4"):
            intermediate_range(4)
