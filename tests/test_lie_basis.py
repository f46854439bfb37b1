import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.errors import ArgumentError
from curvlab.lie_basis import (
    _bracket_table,
    _pair_table,
    ad_matrix,
    adjoint_rotation,
    dim_from_wedge_count,
    so_coords,
    so_matrix,
    sp1_basis,
    structure_constants,
    wedge_count,
    wedge_index,
    wedge_pairs,
    wedge_rank,
    wedge_vectors,
)

from conftest import random_orthogonal


def commutator(u, v):
    return ad_matrix(u) @ v


def wedge(n, *terms):
    out = np.zeros(wedge_count(n))
    for i, j, c in terms:
        out[wedge_rank(i, j, n)] = c
    return out


class TestWedgeIndexing:
    def test_rank_examples(self):
        assert wedge_rank(1, 2, 4) == 0
        assert wedge_rank(3, 4, 4) == 5
        assert wedge_rank(2, 5, 11) == 12

    def test_rank_is_lexicographic_position(self):
        for n in (3, 5, 8):
            for r, (i, j) in enumerate(wedge_pairs(n)):
                assert wedge_rank(i, j, n) == r
                assert wedge_index(r, n) == (i, j)

    def test_pair_table_matches_wedge_rank(self):
        for n in range(2, 13):
            rank, sign = _pair_table(n)
            for a in range(n):
                assert sign[a, a] == 0
                for b in range(a + 1, n):
                    assert rank[a, b] == rank[b, a] == wedge_rank(a + 1, b + 1, n)
                    assert sign[a, b] == 1.0 and sign[b, a] == -1.0

    def test_rank_rejects_bad_pairs(self):
        with pytest.raises(ArgumentError):
            wedge_rank(2, 2, 5)
        with pytest.raises(ArgumentError):
            wedge_rank(3, 2, 5)
        with pytest.raises(ArgumentError):
            wedge_rank(1, 6, 5)

    def test_dim_from_wedge_count(self):
        for n in range(2, 13):
            assert dim_from_wedge_count(wedge_count(n)) == n
        # the function is cached, but an exception is never cached
        for _ in range(2):
            with pytest.raises(ArgumentError):
                dim_from_wedge_count(7)


class TestSoMatrixIsometry:
    def test_round_trip(self, rng):
        for n in (3, 4, 7):
            v = rng.standard_normal(wedge_count(n))
            assert np.allclose(so_coords(so_matrix(v, n)), v)

    def test_basis_norm_one(self):
        # <A, B> = -1/2 tr(AB) makes each e_i ^ e_j a unit vector
        for n in (3, 5):
            for i, j in wedge_pairs(n):
                e = so_matrix(wedge(n, (i, j, 1.0)), n)
                assert abs(-0.5 * np.trace(e @ e) - 1.0) < 1e-14

    def test_coords_reject_non_antisymmetric(self):
        with pytest.raises(ArgumentError):
            so_coords(np.eye(3))


class TestBracket:
    def test_three_dim_table(self):
        n = 3
        e12, e13, e23 = np.eye(3)
        assert np.allclose(commutator(e12, e13), -e23)
        assert np.allclose(commutator(e12, e23), e13)
        assert np.allclose(commutator(e13, e23), -e12)

    def test_matches_matrix_commutator(self, rng):
        for n in (4, 5, 7):
            N = wedge_count(n)
            u, v = rng.standard_normal(N), rng.standard_normal(N)
            via_matrices = so_coords(
                so_matrix(u, n) @ so_matrix(v, n) - so_matrix(v, n) @ so_matrix(u, n)
            )
            assert np.max(np.abs(commutator(u, v) - via_matrices)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 7), st.integers(0, 2**32 - 1))
    def test_jacobi_identity(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y, z = rng.standard_normal((3, wedge_count(n)))
        j = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z))
        assert np.max(np.abs(j)) / scale < 1e-12

    def test_ad_is_antisymmetric(self, rng):
        for n in (4, 6):
            v = rng.standard_normal(wedge_count(n))
            a = ad_matrix(v)
            assert np.max(np.abs(a + a.T)) < 1e-12
            # callers feed ad matrices to GEMMs; C order keeps their BLAS path
            assert a.flags.c_contiguous

    def test_matches_structure_constant_contraction(self, rng):
        # ad_matrix reads the pair table; the contraction of v with the
        # structure constants is its oracle.  Each entry is 0 or one signed
        # coordinate of v, so the two agree bit for bit, signs of zero included
        for n in range(3, 17):
            N = wedge_count(n)
            tensor = structure_constants(n).reshape(N, -1)
            dense = rng.standard_normal(N)
            sparse = np.where(rng.random(N) < 0.5, 0.0, rng.standard_normal(N))
            for v in (dense, sparse, np.zeros(N)):
                want = np.ascontiguousarray((v @ tensor).reshape(N, N).T)
                assert ad_matrix(v).tobytes() == want.tobytes()

    def test_killing_form(self, rng):
        # tr(ad_x ad_y) = -2(n-2) <x, y> on so(n)
        for n in (4, 6, 9):
            x, y = rng.standard_normal((2, wedge_count(n)))
            k = np.trace(ad_matrix(x) @ ad_matrix(y))
            assert abs(k + 2 * (n - 2) * np.dot(x, y)) < 1e-10

    def test_dimension_mismatch(self):
        # the length must be n(n-1)/2 for some n, and v one bivector
        with pytest.raises(ArgumentError):
            ad_matrix(np.zeros(4))
        with pytest.raises(ArgumentError):
            ad_matrix(np.zeros((3, 3)))


class TestStructureConstants:
    def test_nonzero_count(self):
        # a basis pair brackets to a single signed basis vector exactly when
        # the index pairs share one leg: N * 2(n-2) nonzero tensor entries
        for n in (3, 5, 11):
            t = structure_constants(n)
            assert np.count_nonzero(t) == wedge_count(n) * 2 * (n - 2)
            assert set(np.unique(t[t != 0])) == {-1.0, 1.0}

    def test_total_antisymmetry(self):
        # <[x,y],z> is alternating in all three slots for a metric Lie algebra
        t = structure_constants(5)
        assert np.max(np.abs(t + np.transpose(t, (1, 0, 2)))) == 0
        assert np.max(np.abs(t + np.transpose(t, (0, 2, 1)))) == 0

    def test_cached(self):
        assert structure_constants(6) is structure_constants(6)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_bracket_table(self, n):
        # the table against the matrix model at every n the program reads
        # it: column b of ad_{b_a} is [E_a, E_b] for the so_matrix basis
        # matrices E, read back through <A, B> = -1/2 tr(AB) = 1/2 sum A * B.
        # Every entry is a small integer, so the two agree exactly, and a
        # pair (x, y) that two basis bivectors bracket into b_x would fail
        take, sign = _bracket_table(n)
        N = wedge_count(n)
        basis = np.array([so_matrix(row, n) for row in np.eye(N)])
        flat = basis.reshape(N, -1)
        for v, x in zip(np.eye(N), basis):
            comm = (x @ basis - basis @ x).reshape(N, -1)
            assert np.array_equal(ad_matrix(v), 0.5 * flat @ comm.T)
        assert np.all(take[sign == 0] == 0)
        assert not take.flags.writeable and not sign.flags.writeable

    def test_holds_one_array(self):
        # one read-only (N, N, N) array, the oracle that ad_matrix is tested against
        t = structure_constants(6)
        assert isinstance(t, np.ndarray)
        assert t.shape == (wedge_count(6),) * 3
        assert not t.flags.writeable

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ArgumentError):
            structure_constants(2)


class TestSp1Bases:
    def test_quaternion_relations(self):
        for n in (4, 5, 8):
            sp = sp1_basis(n)
            for s in ("+", "-"):
                i, j, k = sp["i" + s], sp["j" + s], sp["k" + s]
                assert np.allclose(commutator(i, j), 2 * k)
                assert np.allclose(commutator(j, k), 2 * i)
                assert np.allclose(commutator(k, i), 2 * j)

    def test_factors_commute(self):
        sp = sp1_basis(6)
        for a in "ijk":
            for b in "ijk":
                assert np.max(np.abs(commutator(sp[a + "+"], sp[b + "-"]))) == 0

    def test_orthonormal_after_sqrt2(self):
        sp = sp1_basis(7)
        vecs = np.array([sp[x + s] / np.sqrt(2) for s in "+-" for x in "ijk"])
        assert np.allclose(vecs @ vecs.T, np.eye(6))

    def test_matches_term_lists(self):
        terms = {
            "i+": [(1, 2, 1.0), (3, 4, 1.0)],
            "j+": [(1, 3, 1.0), (2, 4, -1.0)],
            "k+": [(1, 4, -1.0), (2, 3, -1.0)],
            "i-": [(1, 2, 1.0), (3, 4, -1.0)],
            "j-": [(1, 3, 1.0), (2, 4, 1.0)],
            "k-": [(1, 4, 1.0), (2, 3, -1.0)],
        }
        for n in range(4, 21):
            e = np.eye(n)
            sp = sp1_basis(n)
            assert list(sp) == list(terms)
            for name, vec in sp.items():
                assert np.array_equal(vec, wedge(n, *terms[name]))
                pairs = terms[name]
                want = sum(c * wedge_vectors(e[i - 1], e[j - 1]) for i, j, c in pairs)
                assert np.array_equal(vec, want)
                assert not np.any(np.signbit(vec[vec == 0]))
                assert not vec.flags.writeable

    def test_needs_four_dims(self):
        with pytest.raises(ArgumentError):
            sp1_basis(3)


class TestAdjointRotation:
    def test_refuses_nan(self):
        with pytest.raises(ArgumentError, match="not orthogonal"):
            adjoint_rotation(np.full((4, 4), np.nan))
        with pytest.raises(ArgumentError, match="antisymmetric"):
            so_coords(np.full((4, 4), np.nan))

    def test_entry_formula(self, rng):
        g = random_orthogonal(rng, 5)
        out = adjoint_rotation(g)
        for r, (i, j) in enumerate(wedge_pairs(5)):
            for c, (p, q) in enumerate(wedge_pairs(5)):
                want = (
                    g[i - 1, p - 1] * g[j - 1, q - 1]
                    - g[i - 1, q - 1] * g[j - 1, p - 1]
                )
                assert abs(out[r, c] - want) < 1e-14

    def test_is_orthogonal(self, rng):
        for n in (4, 6, 9):
            out = adjoint_rotation(random_orthogonal(rng, n))
            assert np.max(np.abs(out.T @ out - np.eye(wedge_count(n)))) < 1e-12

    def test_homomorphism(self, rng):
        g, h = random_orthogonal(rng, 6), random_orthogonal(rng, 6)
        assert (
            np.max(
                np.abs(
                    adjoint_rotation(g @ h) - adjoint_rotation(g) @ adjoint_rotation(h)
                )
            )
            < 1e-10
        )

    def test_matches_conjugation(self, rng):
        n = 5
        g = random_orthogonal(rng, n)
        v = rng.standard_normal(wedge_count(n))
        assert np.allclose(
            so_matrix(adjoint_rotation(g) @ v, n), g @ so_matrix(v, n) @ g.T
        )

    def test_reflection_last_axis(self):
        g = np.diag([1.0, 1.0, 1.0, -1.0])
        # pairs touching index 4 flip sign, the so(3) block is fixed
        assert np.allclose(adjoint_rotation(g), np.diag([1, 1, -1, 1, -1, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ArgumentError):
            adjoint_rotation(np.ones((3, 3)))
