import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import curvature_core
from curvlab.curvature_core import (
    CurvatureOperator,
    SymmetricOperator,
    _bianchi_flat,
    _drop_ricci,
    alternative,
    bianchi_project,
    bianchi_residual,
    decompose,
    potential,
    potential_normalized,
    q_map,
    ricci,
    sharp,
    sharp_pure,
    sharp_via_brackets,
    tri,
    wedge_product,
)
from curvlab.errors import ArgumentError
from curvlab.lie_basis import (
    _pair_table,
    adjoint_rotation,
    dim_from_wedge_count,
    sp1_basis,
    wedge_count,
    wedge_rank,
    wedge_vectors,
)
from curvlab.model_spaces import sphere, w_cp2
from curvlab.potential_flow import fixed_point_residual, flow_state
from curvlab.spectral_decomp import hessian_matrix

from conftest import random_orthogonal, rotate_operator


@functools.lru_cache(maxsize=None)
def bianchi_ranks(n):
    """Wedge ranks (ij, kl, ik, jl, il, jk) over all quadruples i<j<k<l,
    from wedge_rank one pair at a time."""
    quads = list(itertools.combinations(range(1, n + 1), 4))
    return tuple(
        np.array([wedge_rank(q[a], q[b], n) for q in quads], dtype=np.intp)
        for a, b in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))
    )


def random_curvature(rng, n):
    s = rng.standard_normal((wedge_count(n),) * 2)
    return bianchi_project(0.5 * (s + s.T)).mat


def lambda4_generator(n, quad=(1, 2, 3, 4)):
    i, j, k, l = quad
    N = wedge_count(n)
    g = np.zeros((N, N))
    for (a, b), (c, d), s in (
        ((i, j), (k, l), 1.0),
        ((i, k), (j, l), -1.0),
        ((i, l), (j, k), 1.0),
    ):
        g[wedge_rank(a, b, n), wedge_rank(c, d, n)] = s
        g[wedge_rank(c, d, n), wedge_rank(a, b, n)] = s
    return g


class TestContainers:
    def test_identity_is_valid(self):
        op = sphere(5)
        assert op.dim == 5 and op.N == 10
        assert not op.mat.flags.writeable

    def test_rejects_asymmetric(self):
        m = np.eye(6)
        m[0, 1] = 1e-6
        with pytest.raises(ArgumentError):
            SymmetricOperator(m)
        with pytest.raises(ArgumentError):
            SymmetricOperator(np.eye(6)[:5])

    def test_freezes_a_copy(self):
        m = np.eye(6)
        op = SymmetricOperator(m)
        m[0, 0] = 2.0
        assert op.mat[0, 0] == 1.0
        assert not op.mat.flags.writeable

    def test_array_copies_unless_asked_not_to(self):
        op = sphere(5)
        out = np.array(op)
        assert out is not op.mat and out.flags.writeable
        out[0, 0] = 2.0
        assert op.mat[0, 0] == 1.0
        assert np.asarray(op) is op.mat
        assert np.array(op, copy=False) is op.mat
        assert np.asarray(op, dtype=np.float32).dtype == np.float32
        with pytest.raises(ValueError, match="needs a copy"):
            np.array(op, dtype=np.float32, copy=False)

    def test_rejects_bianchi_violation(self):
        g = lambda4_generator(4)
        SymmetricOperator(g)  # fine without the Bianchi constraint
        with pytest.raises(ArgumentError):
            CurvatureOperator(g)


def unchecked(mat):
    """A SymmetricOperator holding mat without the container's checks, as a
    corrupted operator would reach a kernel."""
    op = object.__new__(SymmetricOperator)
    op._mat, op.dim, op.N = mat, dim_from_wedge_count(len(mat)), len(mat)
    return op


class TestRefusesNaN:
    """Every tolerance check is written so that a NaN fails it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_symmetric_check(self, bad):
        with pytest.raises(ArgumentError, match="must be symmetric"):
            CurvatureOperator(np.full((10, 10), bad))
        mat = sphere(5).mat.copy()
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(ArgumentError, match="must be symmetric"):
            SymmetricOperator(mat)

    def test_bianchi_check(self, monkeypatch):
        monkeypatch.setattr(curvature_core, "bianchi_residual", lambda mat: math.nan)
        with pytest.raises(ArgumentError, match="first Bianchi identity"):
            CurvatureOperator(np.eye(10))

    def test_unit_weyl_refuses_a_nan_entry(self):
        mat = w_cp2(5).mat.copy()
        mat[0, 0] = np.nan
        with pytest.raises(ArgumentError):
            curvature_core._unit_weyl(mat, "state")

    def test_unit_weyl_norm_check(self, monkeypatch):
        monkeypatch.setattr(CurvatureOperator, "norm", lambda self: math.nan)
        with pytest.raises(ArgumentError, match="unit norm"):
            curvature_core._unit_weyl(w_cp2(5), "state")

    def test_unit_weyl_ricci_check(self, monkeypatch):
        monkeypatch.setattr(curvature_core, "ricci", lambda op: np.full((5, 5), np.nan))
        with pytest.raises(ArgumentError, match="Weyl operator"):
            curvature_core._unit_weyl(w_cp2(5), "state")

    def test_sharp_pure_diagonal_check(self):
        mat = np.eye(10)
        mat[0, 1] = mat[1, 0] = np.nan
        with pytest.raises(ArgumentError, match="diagonal"):
            sharp_pure(unchecked(mat))

    def test_potential_normalized_zero_norm_check(self):
        mat = np.eye(10)
        mat[0, 0] = np.nan
        with pytest.raises(ArgumentError, match="nonzero operator"):
            potential_normalized(unchecked(mat))


class TestBianchi:
    def test_identity_fixed(self):
        for n in (4, 5, 6):
            ident = np.eye(wedge_count(n))
            assert np.array_equal(bianchi_project(ident).mat, ident)

    def test_four_form_generator_killed(self):
        for n in (4, 5, 7):
            g = lambda4_generator(n)
            assert np.max(np.abs(bianchi_project(g).mat)) < 1e-14
            assert abs(bianchi_residual(g) - np.sqrt(6)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 7), st.integers(0, 2**32 - 1))
    def test_idempotent(self, n, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((wedge_count(n),) * 2)
        once = bianchi_project(0.5 * (s + s.T)).mat
        assert np.max(np.abs(bianchi_project(once).mat - once)) < 1e-10

    def test_kernel_dimension(self, rng):
        # project a spanning set of S^2(wedge) and count the numerical rank
        n = 5
        N = wedge_count(n)
        images = []
        for a in range(N):
            for b in range(a, N):
                e = np.zeros((N, N))
                e[a, b] = e[b, a] = 1.0
                images.append(bianchi_project(e).mat.ravel())
        rank = np.linalg.matrix_rank(np.array(images), tol=1e-8)
        assert rank == n * n * (n * n - 1) // 12 == 50

    def test_indices_match_wedge_rank(self):
        # below n = 4 there are no quadruples and every array is empty
        for n in range(3, 11):
            ij, kl, ik, jl, il, jk = bianchi_ranks(n)
            N = wedge_count(n)
            want = [a * N + b for a, b in ((ij, kl), (ik, jl), (il, jk),
                                           (kl, ij), (jl, ik), (jk, il))]
            for got, positions in zip(_bianchi_flat(n), want, strict=True):
                assert got.tolist() == positions.tolist()

    def test_projection_is_orthogonal(self, rng):
        n = 5
        s = rng.standard_normal((wedge_count(n),) * 2)
        s = 0.5 * (s + s.T)
        p = bianchi_project(s).mat
        assert abs(np.sum((s - p) * p)) < 1e-10

    def test_generator_entries_never_repeat(self):
        # bianchi_project updates the six position sets by plain fancy
        # indexing, which equals ufunc.at only while no entry repeats
        rng = np.random.default_rng(0)
        for n in range(3, 21):
            ij, kl, ik, jl, il, jk = bianchi_ranks(n)
            N = wedge_count(n)
            flat = np.concatenate(
                [a * N + b for a, b in ((ij, kl), (kl, ij), (ik, jl),
                                        (jl, ik), (il, jk), (jk, il))]
            )
            assert np.unique(flat).size == flat.size
            s = rng.standard_normal((N, N))
            s = 0.5 * (s + s.T)
            coeff = curvature_core._bianchi_pairings(s, n) / 6.0
            want = s.copy()
            np.subtract.at(want, (ij, kl), coeff)
            np.subtract.at(want, (kl, ij), coeff)
            np.add.at(want, (ik, jl), coeff)
            np.add.at(want, (jl, ik), coeff)
            np.subtract.at(want, (il, jk), coeff)
            np.subtract.at(want, (jk, il), coeff)
            assert np.array_equal(bianchi_project(s).mat, want)


def pairings_by_fancy_index(mat, n):
    """<R, G_q> for every quadruple, read through 2-D fancy indices."""
    ij, kl, ik, jl, il, jk = bianchi_ranks(n)
    return 2.0 * (mat[ij, kl] - mat[ik, jl] + mat[il, jk])


def ricci_by_embedding(mat, n):
    """Ric as two matrix products against the vertex embedding e_a ^ e_i."""
    e = np.eye(n)
    B = np.array([[wedge_vectors(e[a], e[i]) for i in range(n)] for a in range(n)])
    N = mat.shape[0]
    return (B.reshape(n * n, N) @ mat).reshape(n, n * N) @ B.reshape(n, n * N).T


class TestFlatPrimitives:
    """The flat-index Bianchi and Ricci reads against their index-pair forms,
    at n = 3 (no quadruples) and throughout 4..20.  bianchi_project's scatter
    is checked against ufunc.at in TestBianchi."""

    @staticmethod
    def symmetric(rng, n):
        s = rng.standard_normal((wedge_count(n), wedge_count(n)))
        return 0.5 * (s + s.T)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_bianchi_pairings_are_bytes_of_fancy_index(self, n):
        mat = self.symmetric(np.random.default_rng(n), n)
        got = curvature_core._bianchi_pairings(mat, n)
        want = pairings_by_fancy_index(mat, n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert bianchi_residual(mat) == float(np.sqrt((want ** 2).sum() / 6.0))

    @pytest.mark.parametrize("n", range(3, 21))
    def test_ricci_matches_vertex_embedding(self, n):
        mat = self.symmetric(np.random.default_rng(200 + n), n)
        want = ricci_by_embedding(mat, n)
        assert np.max(np.abs(ricci(mat) - want)) <= 1e-14 * np.max(np.abs(want))


def ricci_by_loop(mat, n):
    """Ric(v, w) = sum_i <R(v ^ e_i), w ^ e_i>, with e_a ^ e_i in wedge coordinates."""

    def wedge(a, i):
        vec = np.zeros(wedge_count(n))
        if a != i:
            vec[wedge_rank(min(a, i), max(a, i), n)] = 1.0 if a < i else -1.0
        return vec

    ric = np.zeros((n, n))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ric[a - 1, b - 1] = sum(wedge(a, i) @ mat @ wedge(b, i) for i in range(1, n + 1))
    return ric


class TestRicciScalar:
    @pytest.mark.parametrize("bianchi", [False, True])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_loop(self, rng, n, bianchi):
        s = rng.standard_normal((wedge_count(n),) * 2)
        mat = 0.5 * (s + s.T)
        if bianchi:
            mat = bianchi_project(mat).mat
        assert np.max(np.abs(ricci(mat) - ricci_by_loop(mat, n))) <= 1e-12

    def test_identity(self):
        for n in (4, 5, 7):
            assert np.allclose(ricci(sphere(n)), (n - 1) * np.eye(n))
            assert abs(decompose(sphere(n)).scal - n * (n - 1)) < 1e-12

    def test_trace_relation(self, rng):
        r = random_curvature(rng, 6)
        assert abs(np.trace(ricci(r)) - decompose(r).scal) < 1e-10

    def test_ricci_of_wedge_with_id(self, rng):
        for n in (4, 6):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            got = ricci(wedge_product(a, np.eye(n)))
            want = 0.5 * ((n - 2) * a + np.trace(a) * np.eye(n))
            assert np.max(np.abs(got - want)) < 1e-12


class TestWedgeProduct:
    def test_id_wedge_id(self):
        for n in (4, 5):
            assert np.allclose(
                wedge_product(np.eye(n), np.eye(n)).mat, np.eye(wedge_count(n))
            )

    def test_commutative_and_bianchi(self, rng):
        n = 5
        a, b = rng.standard_normal((2, n, n))
        a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
        ab = wedge_product(a, b).mat
        assert np.max(np.abs(ab - wedge_product(b, a).mat)) < 1e-12
        assert bianchi_residual(ab) < 1e-10

    def test_split_signature_block_structure(self):
        # A = diag(1,1,-1,-1): in the sp(1)+ x sp(1)- basis of so(4), A ^ id
        # is purely off-diagonal ((0, B), (B^T, 0)); nonzero B means
        # non-Einstein by the four-dimensional block criterion
        a = np.diag([1.0, 1.0, -1.0, -1.0])
        w = wedge_product(a, np.eye(4)).mat
        sp = sp1_basis(4)
        basis = np.array([sp[x + s] / np.sqrt(2) for s in "+-" for x in "ijk"])
        blocks = basis @ w @ basis.T
        assert np.max(np.abs(blocks[:3, :3])) < 1e-14
        assert np.max(np.abs(blocks[3:, 3:])) < 1e-14
        assert np.allclose(blocks[:3, 3:], np.diag([1.0, 0.0, 0.0]))
        assert np.max(np.abs(ricci(w) - a)) < 1e-14  # visibly non-Einstein

    def test_rejects_asymmetric_factor(self):
        with pytest.raises(ArgumentError):
            wedge_product(np.triu(np.ones((4, 4))), np.eye(4))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_gather_table_matches_the_index_grids(self, n, rng):
        # the cached flat-index table reads the entries the np.ix_ grids did,
        # and the same products in the same order give the same bytes,
        # zeros' signs included (b = Id makes most products +-0)
        def grids(a, b):
            i, j = np.triu_indices(n, 1)
            ix, jx, iq, jp = np.ix_(i, i), np.ix_(j, j), np.ix_(i, j), np.ix_(j, i)
            out = 0.5 * (a[ix] * b[jx] + b[ix] * a[jx] - a[iq] * b[jp] - b[iq] * a[jp])
            return 0.5 * (out + out.T)

        a = rng.standard_normal((n, n))
        a = a + a.T
        ident = np.eye(n)
        signed = -np.eye(n)  # -0.0 off the diagonal
        for x, y in ((a, ident), (ident, a), (a, a), (ident, ident), (a, signed),
                     (np.asfortranarray(a), -0.0 * a)):
            assert wedge_product(x, y).mat.tobytes() == grids(x, y).tobytes()
        table = curvature_core._wedge_gather(n)
        assert table.shape == (4, wedge_count(n), wedge_count(n))
        assert not table.flags.writeable


class TestSharp:
    def test_identity_sharp_identity(self):
        for n in (4, 5, 6, 8):
            ident = np.eye(wedge_count(n))
            assert np.max(np.abs(sharp(ident).mat - (n - 2) * ident)) < 1e-12

    def test_routes_agree(self, rng):
        for n in (4, 5, 6, 7):
            r = random_curvature(rng, n)
            s = random_curvature(rng, n)
            assert np.max(np.abs(sharp(r).mat - sharp_via_brackets(r).mat)) < 1e-10
            assert (
                np.max(np.abs(sharp(r, s).mat - sharp_via_brackets(r, s).mat)) < 1e-10
            )

    def test_bilinear_symmetric(self, rng):
        n = 5
        r, s = random_curvature(rng, n), random_curvature(rng, n)
        assert np.max(np.abs(sharp(r, s).mat - sharp(s, r).mat)) < 1e-12
        lhs = sharp(r + 2 * s, r + 2 * s).mat
        rhs = sharp(r).mat + 4 * sharp(r, s).mat + 4 * sharp(s).mat
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_bw_identity(self, rng):
        # R + R # Id = (n-1) R_I + (n-2)/2 R_ric for random curvature operators
        for n in (4, 5, 6, 7, 8):
            for _ in range(5):
                r = random_curvature(rng, n)
                d = decompose(r)
                lhs = r + sharp(r, np.eye(r.shape[0])).mat
                rhs = (n - 1) * d.scalar_part + 0.5 * (n - 2) * d.ricci_part
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_weyl_sharp_id(self, rng):
        for n in (4, 5, 6):
            w = decompose(random_curvature(rng, n)).weyl.mat
            assert np.max(np.abs(w + sharp(w, np.eye(w.shape[0])).mat)) < 1e-9

    def test_equivariance(self, rng):
        n = 5
        r = random_curvature(rng, n)
        g = random_orthogonal(rng, n)
        lhs = sharp(rotate_operator(g, r)).mat
        ad = adjoint_rotation(g)
        assert np.max(np.abs(lhs - ad.T @ sharp(r).mat @ ad)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            sharp(np.eye(6), np.eye(10))


class TestSharpPure:
    def test_matches_general_sharp(self, rng):
        for n in (4, 5, 6):
            d = np.diag(rng.standard_normal(wedge_count(n)))
            assert np.max(np.abs(sharp_pure(d).mat - sharp(d).mat)) < 1e-10

    def test_identity(self):
        n = 6
        out = sharp_pure(np.eye(wedge_count(n)))
        assert np.allclose(out.mat, (n - 2) * np.eye(wedge_count(n)))

    def test_symbol_square_rule(self, rng):
        n = 5
        d = np.diag(rng.standard_normal(wedge_count(n)))
        tilde = alternative(d)
        assert not tilde.flags.writeable
        assert np.array_equal(tilde, tilde.T) and not np.any(np.diag(tilde))
        sq = tilde @ tilde
        got = alternative(sharp_pure(d).mat)
        assert np.max(np.abs(got - (sq - np.diag(np.diag(sq))))) < 1e-12

    def test_rejects_off_diagonal(self, rng):
        with pytest.raises(ArgumentError, match="diagonal operator matrix"):
            sharp_pure(random_curvature(rng, 5) + np.eye(10))

    def test_weyl_detection_by_column_sums(self, rng):
        # for pure operators the Ricci diagonal equals the symbol column sums,
        # so zero column sums and zero Ricci detect the same thing
        n = 5
        d = np.diag(rng.standard_normal(wedge_count(n)))
        ric = ricci(d)
        assert np.max(np.abs(ric - np.diag(np.diag(ric)))) < 1e-12
        assert np.max(np.abs(np.diag(ric) - alternative(d).sum(axis=0))) < 1e-12
        # a pure operator with vanishing symbol column sums is Weyl
        coeffs = {(1, 2): 1.0, (3, 4): 1.0, (1, 3): 1.0, (2, 4): 1.0,
                  (1, 4): -2.0, (2, 3): -2.0}
        w = np.diag([coeffs[p] for p in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))])
        assert np.max(np.abs(alternative(w).sum(axis=0))) == 0
        assert np.max(np.abs(ricci(w))) < 1e-12


class TestQAndPotential:
    def test_potential_of_identity(self):
        for n in (4, 5, 9):
            ident = np.eye(wedge_count(n))
            assert abs(potential(ident) - (n - 1) * wedge_count(n)) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 6), st.floats(-3, 3), st.integers(0, 2**32 - 1))
    def test_cubic_scaling(self, n, c, seed):
        r = random_curvature(np.random.default_rng(seed), n)
        assert abs(potential(c * r) - c**3 * potential(r)) < 1e-8 * (1 + abs(c)) ** 3

    def test_q_of_weyl_is_weyl(self, rng):
        for n in (4, 5, 6):
            w1 = decompose(random_curvature(rng, n)).weyl.mat
            w2 = decompose(random_curvature(rng, n)).weyl.mat
            assert np.max(np.abs(ricci(q_map(w1, w2)))) < 1e-10

    def test_polarization(self, rng):
        n = 5
        r, s = random_curvature(rng, n), random_curvature(rng, n)
        lhs = q_map(r + s).mat
        rhs = q_map(r).mat + 2 * q_map(r, s).mat + q_map(s).mat
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_tri_symmetric(self, rng):
        n = 5
        ops = [random_curvature(rng, n) for _ in range(3)]
        vals = [tri(*perm) for perm in itertools.permutations(ops)]
        assert max(vals) - min(vals) < 1e-10
        assert abs(tri(ops[0], ops[0], ops[0]) - potential(ops[0])) < 1e-12

    def test_additive_split_for_einstein_plus_weyl(self, rng):
        # P(c Id + W) = P(c Id) + P(W) for Weyl W
        n = 6
        w = decompose(random_curvature(rng, n)).weyl.mat
        c = 0.7
        ident = np.eye(w.shape[0])
        assert abs(
            potential(c * ident + w) - potential(c * ident) - potential(w)
        ) < 1e-9

    def test_potential_normalized(self, rng):
        r = random_curvature(rng, 5)
        assert abs(
            potential_normalized(r) - potential(r) / np.linalg.norm(r) ** 3
        ) < 1e-10
        with pytest.raises(ArgumentError, match="nonzero operator"):
            potential_normalized(np.zeros((10, 10)))


class TestAngleRotateNorm:
    def test_rotation_is_isometric_and_equivariant(self, rng):
        n = 5
        r = random_curvature(rng, n)
        g = random_orthogonal(rng, n)
        gr = rotate_operator(g, r)
        assert abs(np.linalg.norm(gr) - np.linalg.norm(r)) < 1e-10
        assert abs(potential(gr) - potential(r)) < 1e-9
        # trace and norm fix the angle to the identity, so it is invariant too
        assert abs(np.trace(gr) - np.trace(r)) < 1e-10
        ad = adjoint_rotation(g)
        assert np.max(np.abs(q_map(gr).mat - ad.T @ q_map(r).mat @ ad)) < 1e-9

    def test_rotate_by_identity(self, rng):
        r = random_curvature(rng, 4)
        assert np.max(np.abs(rotate_operator(np.eye(4), r) - r)) < 1e-14

    def test_rotate_rejects_non_orthogonal(self, rng):
        with pytest.raises(ArgumentError):
            rotate_operator(np.ones((5, 5)), random_curvature(rng, 5))

    def test_tensor_norm_against_four_index_sum(self, rng):
        # brute-force (0,4)-tensor norm: Rm(i,j,k,l) = <R(e_i^e_j), e_k^e_l>
        # summed over all four indices with antisymmetric extension; the
        # module convention makes it twice the Frobenius norm of the matrix
        n = 4
        r = random_curvature(rng, n)
        total = 0.0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                si = 1.0 if i < j else -1.0
                a = wedge_rank(min(i, j), max(i, j), n)
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        if k == l:
                            continue
                        sk = 1.0 if k < l else -1.0
                        b = wedge_rank(min(k, l), max(k, l), n)
                        total += (si * sk * r[a, b]) ** 2
        assert abs(np.sqrt(total) - 2 * np.linalg.norm(r)) < 1e-10


def parts_by_wedge(r, n):
    """(Ricci part, Weyl part) of r from the Kulkarni-Nomizu product, the
    oracle for the Ricci-table scatter of decompose and _drop_ricci."""
    scal = 2.0 * np.trace(r)
    ric0 = ricci(r) - (scal / n) * np.eye(n)
    ricci_part = 2.0 / (n - 2) * wedge_product(ric0, np.eye(n)).mat
    scalar_part = scal / (n * (n - 1)) * np.eye(wedge_count(n))
    return ricci_part, r - scalar_part - ricci_part


class TestDecompose:
    def test_identity(self):
        d = decompose(sphere(5))
        assert abs(d.scal - 20) < 1e-12
        assert np.max(np.abs(d.ricci0)) < 1e-12
        assert d.weyl.norm() < 1e-12
        # at angle zero to the identity: cos = tr R / (||R|| sqrt N) = 1
        mat = sphere(5).mat
        assert abs(np.trace(mat) / (np.linalg.norm(mat) * np.sqrt(10)) - 1.0) < 1e-15

    def test_reconstruction_and_orthogonality(self, rng):
        for n in (4, 5, 7):
            r = random_curvature(rng, n)
            d = decompose(r)
            recon = d.scalar_part + d.ricci_part + d.weyl.mat
            assert np.max(np.abs(recon - r)) < 1e-10
            assert abs(np.sum(d.scalar_part * d.ricci_part)) < 1e-10
            assert abs(np.sum(d.scalar_part * d.weyl.mat)) < 1e-10
            assert abs(np.sum(d.ricci_part * d.weyl.mat)) < 1e-10
            assert np.max(np.abs(ricci(d.weyl))) < 1e-10
            assert abs(np.trace(d.ricci0)) < 1e-10

    def test_norm_pythagoras(self, rng):
        r = random_curvature(rng, 6)
        d = decompose(r)
        assert abs(
            np.linalg.norm(d.scalar_part) ** 2
            + np.linalg.norm(d.ricci_part) ** 2
            + d.weyl.norm() ** 2
            - np.linalg.norm(r) ** 2
        ) < 1e-9

    def test_rejects_small_dimension(self):
        with pytest.raises(ArgumentError, match="needs n >= 4, got 3"):
            decompose(np.eye(3))

    def test_equivariant(self, rng):
        n = 6
        r = random_curvature(rng, n)
        g = random_orthogonal(rng, n)
        d1 = decompose(rotate_operator(g, r))
        d0 = decompose(r)
        assert abs(d1.scal - d0.scal) < 1e-9
        assert abs(d1.weyl.norm() - d0.weyl.norm()) < 1e-9
        assert np.max(np.abs(d1.ricci0 - g.T @ d0.ricci0 @ g)) < 1e-9

    @pytest.mark.parametrize("n", range(4, 21))
    def test_parts_match_the_wedge_oracle(self, n):
        # decompose scatters Ric0 back through the Ricci table; the oracle
        # forms 2/(n-2) Ric0 ^ id entry by entry
        r = random_curvature(np.random.default_rng(300 + n), n)
        ricci_part, weyl = parts_by_wedge(r, n)
        d = decompose(r)
        for got, want in ((d.ricci_part, ricci_part), (d.weyl.mat, weyl)):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", range(4, 21))
    def test_drop_ricci_leaves_the_weyl_part(self, n, rng):
        # the flow's projection reads the Ricci table and scatters back
        # through it; on an operator small enough to pass its drift check it
        # returns the Weyl part of the wedge oracle, up to rounding
        r = random_curvature(rng, n)
        r = r * (1e-12 / np.linalg.norm(r))
        want = parts_by_wedge(r, n)[1]
        got = _drop_ricci(r.copy(), n)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(r)
        assert np.max(np.abs(ricci(got))) <= 1e-15 * np.linalg.norm(r)

    @pytest.mark.parametrize("n", [4, 11])
    def test_drop_ricci_leaves_more_than_drift(self, n):
        # Ric(Id) = (n - 1) I: at 1e-12 Id every Ricci entry lies below
        # BIANCHI_TOL and the scalar part is removed; at 1e-10 Id one does
        # not, and the operator is left for the unit-Weyl check to refuse
        small = _drop_ricci(1e-12 * np.eye(wedge_count(n)), n)
        assert np.max(np.abs(small)) <= 1e-26
        large = 1e-10 * np.eye(wedge_count(n))
        assert np.array_equal(_drop_ricci(large.copy(), n), large)


# --- the unit-Weyl precondition, at every entry point that needs it ---------

def unit_four_form(n, quad):
    """Normalized 4-form generator on the 0-based quadruple quad."""
    rank, _ = _pair_table(n)
    i, j, k, l = quad
    g = np.zeros((wedge_count(n),) * 2)
    for (a, b), (c, d), s in (
        ((i, j), (k, l), 1.0),
        ((i, k), (j, l), -1.0),
        ((i, l), (j, k), 1.0),
    ):
        g[rank[a, b], rank[c, d]] = g[rank[c, d], rank[a, b]] = s
    return g / np.sqrt(6.0)


def not_unit_weyl(name):
    n = 8
    w0 = w_cp2(n).mat
    if name == "four-form":
        # on (5, 6, 7, 8): orthogonal to W0 and its orbit, so only the
        # Bianchi check can reject it
        return unit_four_form(n, (4, 5, 6, 7))
    if name == "twice-w0":
        return 2.0 * w0
    if name == "identity":
        ident = np.eye(wedge_count(n))
        return ident / np.linalg.norm(ident)
    skew = w0.copy()
    skew[0, 1] += 1e-6
    return skew


UNIT_WEYL_ENTRY_POINTS = {
    "hessian_matrix": hessian_matrix,
    "flow_state": flow_state,
    "fixed_point_residual": fixed_point_residual,
}


def test_four_form_fails_only_the_bianchi_identity():
    g = unit_four_form(8, (4, 5, 6, 7))
    assert np.array_equal(g, g.T)
    assert abs(np.linalg.norm(g) - 1.0) < 1e-15
    assert np.max(np.abs(ricci(g))) == 0.0
    assert abs(bianchi_residual(g) - 1.0) < 1e-15
    assert np.sum(g * w_cp2(8).mat) == 0.0


@pytest.mark.parametrize("bad", ["four-form", "twice-w0", "identity", "non-symmetric"])
@pytest.mark.parametrize("entry", sorted(UNIT_WEYL_ENTRY_POINTS))
def test_unit_weyl_entry_points_reject(entry, bad):
    with pytest.raises(ArgumentError):
        UNIT_WEYL_ENTRY_POINTS[entry](not_unit_weyl(bad))
