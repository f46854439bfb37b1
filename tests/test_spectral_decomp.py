import itertools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    block_bases,
    block_classes,
    block_diagonal,
    blocks_of,
    class_vector_counts,
    weyl_stack,
)

from curvlab import spectral_decomp
from curvlab.curvature_core import (
    bianchi_project,
    bianchi_residual,
    decompose,
    q_map,
    ricci,
)
from curvlab.errors import ArgumentError, UnsupportedDimensionError
from curvlab.lie_basis import (
    _bracket_table,
    structure_constants,
    wedge_count,
    wedge_vectors,
)
from curvlab.model_spaces import random_weyl, sphere, sphere_product, theta, w_cp2
from curvlab.spectral_decomp import (
    BASIS_DIMS,
    HessianBlocks,
    _group_rows,
    _null_space,
    _orbit_commutators,
    decomposition_dims,
    eigen_report,
    hessian_matrix,
    orbit_tangent_dim,
    triple_wedge_matrix,
    weyl_basis,
    weyl_dim,
    x_dim,
)

LADDER = (1.0, 0.5, 1.0 / 3.0, 0.0, -1.0 / 6.0, -0.5, -1.0)


def random_unit_weyl(rng, n):
    N = wedge_count(n)
    raw = rng.standard_normal((N, N))
    w = decompose(bianchi_project(0.5 * (raw + raw.T))).weyl.mat
    return w / np.linalg.norm(w)


def unit_product_weyl(k, l):
    report = decompose(sphere_product(k, l))
    return report.weyl.mat / report.weyl.norm()


# The Weyl basis as a dense stack, for the properties of the whole basis.
def dense_basis(n):
    basis = weyl_basis(n)
    return weyl_stack(basis, range(len(basis.characters)))


# Every dimension weyl_basis supports.
BASIS_DIMS = list(range(5, 21))
# The dimensions whose dense basis the tests assemble.
DENSE_DIMS = list(range(5, 13))


class TestWeylBasis:
    @pytest.mark.parametrize(
        "n,count",
        [(5, 35), (6, 84), (7, 168), (8, 300), (9, 495), (10, 770), (11, 1144),
         (12, 1638), (13, 2275), (16, 5304), (20, 13090)],
    )
    def test_counts(self, n, count):
        wb = weyl_basis(n)
        assert sum(v.shape[0] * v.shape[1] for v in wb.stacks) == count == weyl_dim(n)

    def test_dim_formula(self):
        assert [weyl_dim(n) for n in range(5, 13)] == [35, 84, 168, 300, 495, 770, 1144, 1638]
        assert weyl_dim(3) == 0

    def test_class_dimension_table(self):
        # the diagonal less the n traces, C(n,2) classes {a,b} of n - 3, and
        # C(n,4) quadruple classes of 2
        for n in range(4, 21):
            N = wedge_count(n)
            assert weyl_dim(n) == (N - n) + math.comb(n, 2) * (n - 3) + 2 * math.comb(n, 4)

    @pytest.mark.parametrize("n", BASIS_DIMS)
    def test_class_sizes(self, n):
        N = wedge_count(n)
        want = {0: (N, N - n), 2: (n - 2, n - 3), 4: (3, 2)}
        wb = weyl_basis(n)
        # one class per character of 0, 2 or 4 set bits, in ascending order
        chars = wb.characters.tolist()
        assert chars == [x for x in range(1 << n) if x.bit_count() in want]
        coords, count = np.array([want[x.bit_count()] for x in chars]).T
        widths = np.array([v.shape[2] for v in wb.stacks])[wb.stack]
        assert np.array_equal(wb.ncoord, coords)
        assert np.array_equal(widths, coords)
        assert len(wb.rows) == len(wb.cols) == np.sum(coords)
        assert np.array_equal(class_vector_counts(wb), count)
        assert np.all(wb.rows <= wb.cols)

    @pytest.mark.parametrize("n", BASIS_DIMS)
    def test_contract(self, n):
        # characters strictly ascend; every class sits at one slot of one
        # stack, and each stack's slots run 0..c-1; a stack's (d, k) is the
        # class dimension of its classes' bit count and their coordinate
        # count; the coordinates, class after class, cover each entry
        # (A, B), A <= B, of the N x N matrices exactly once, ascending
        # within each class, and each lies in its class's character
        wb = weyl_basis(n)
        N = wedge_count(n)
        assert wb.dim == n
        assert np.all(np.diff(wb.characters) > 0)
        assert wb.stack.shape == wb.slot.shape == wb.ncoord.shape == wb.characters.shape
        assert np.all((0 <= wb.stack) & (wb.stack < len(wb.stacks)))
        table = spectral_decomp._class_dims(n)
        for s, stack in enumerate(wb.stacks):
            mine = np.flatnonzero(wb.stack == s)
            assert sorted(wb.slot[mine].tolist()) == list(range(len(stack)))
            dims = {table[x.bit_count()] for x in wb.characters[mine].tolist()}
            assert dims == {stack.shape[1]}
            assert set(wb.ncoord[mine].tolist()) == {stack.shape[2]}
        assert np.sum(wb.ncoord) == N * (N + 1) // 2
        covered = np.zeros((N, N), dtype=int)
        np.add.at(covered, (wb.rows, wb.cols), 1)
        assert np.array_equal(covered, np.triu(np.ones((N, N), dtype=int)))
        char = spectral_decomp._pair_characters(n)
        owner = np.repeat(wb.characters, wb.ncoord)
        assert np.array_equal(char[wb.rows] ^ char[wb.cols], owner)
        assert np.all(np.diff(owner * N * N + wb.rows * N + wb.cols) > 0)

    def test_wrong_class_dimension_raises(self, monkeypatch):
        table = spectral_decomp._class_dims
        monkeypatch.setattr(
            spectral_decomp, "_class_dims", lambda n: {**table(n), 4: 3}
        )
        with pytest.raises(RuntimeError, match="has dimension 2, not 3"):
            weyl_basis.__wrapped__(6)

    def test_nan_class_vectors_fail_the_residual_check(self, monkeypatch):
        def nan_space(rows, expected, what):
            return np.full((len(rows), expected, rows.shape[-1]), np.nan)

        monkeypatch.setattr(spectral_decomp, "_null_space", nan_space)
        with pytest.raises(RuntimeError, match="violates its constraints"):
            weyl_basis.__wrapped__(6)

    @pytest.mark.parametrize("n", DENSE_DIMS)
    def test_orthonormal(self, n):
        flat = dense_basis(n).reshape(weyl_dim(n), -1)
        gram = flat @ flat.T
        assert np.max(np.abs(gram - np.eye(weyl_dim(n)))) <= 1e-12

    @pytest.mark.parametrize("n", DENSE_DIMS)
    def test_ricci_free(self, n):
        assert max(np.max(np.abs(ricci(m))) for m in dense_basis(n)) <= 1e-12

    @pytest.mark.parametrize("n", DENSE_DIMS)
    def test_bianchi_free(self, n):
        assert max(bianchi_residual(m) for m in dense_basis(n)) <= 1e-12

    @pytest.mark.parametrize("n", DENSE_DIMS)
    def test_projection_matches_decompose(self, rng, n):
        # decompose subtracts the scalar and Ricci parts by formula, sharing
        # no code with the constraint matrix the basis is the null space of
        flat = dense_basis(n).reshape(weyl_dim(n), -1)
        for _ in range(3):
            raw = rng.standard_normal((wedge_count(n),) * 2)
            r = bianchi_project(0.5 * (raw + raw.T)).mat
            projected = ((flat @ r.ravel()) @ flat).reshape(r.shape)
            assert np.max(np.abs(projected - decompose(r).weyl.mat)) <= 1e-12

    def test_deterministic(self):
        fresh = weyl_basis.__wrapped__(6)
        cached = weyl_basis(6)
        assert fresh.dim == cached.dim
        assert len(fresh.stacks) == len(cached.stacks)
        for x, y in zip(fresh.stacks, cached.stacks):
            assert np.array_equal(x, y)
        for name in ("characters", "rows", "cols", "ncoord", "stack", "slot"):
            assert np.array_equal(getattr(fresh, name), getattr(cached, name))

    def test_one_svd_per_class_shape(self, monkeypatch):
        # n = 12 has three class shapes (rows, coordinates): 495 of (1, 3),
        # 66 of (1, 10) and one of (12, 66).  The 495 quadruple classes all
        # carry the Bianchi row (1, -1, 1), so one SVD of it serves them
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        weyl_basis.__wrapped__(12)
        assert sorted(shapes) == sorted([(1, 1, 3), (66, 1, 10), (1, 12, 66)])

    @pytest.mark.parametrize("n", BASIS_DIMS)
    def test_arrays_own_their_memory(self, n):
        # every array is C-contiguous and, if a view at all, a view of no
        # larger array: no class stack keeps its SVD's right factor alive
        wb = weyl_basis(n)
        names = ("characters", "rows", "cols", "ncoord", "stack", "slot")
        for arr in (*(getattr(wb, name) for name in names), *wb.stacks):
            assert arr.flags.c_contiguous
            root = arr
            while isinstance(root.base, np.ndarray):
                root = root.base
            assert root.nbytes == arr.nbytes

    def test_null_space_stack_matches_per_matrix(self, rng):
        # rank-3 matrices of 4 rows: the stack's bases are the last six right
        # singular vectors of each matrix's own SVD, bit for bit
        stack = rng.standard_normal((6, 4, 9))
        stack[:, 3] = stack[:, 0] - 2.0 * stack[:, 1]
        got = _null_space(stack, 6, lambda i: f"matrix {i}")
        assert got.shape == (6, 6, 9)
        for m, basis in zip(stack, got):
            assert np.array_equal(basis, np.linalg.svd(m)[2][3:])

    def test_null_space_stack_names_the_wrong_item(self, rng):
        stack = rng.standard_normal((6, 4, 9))
        stack[:, 3] = stack[:, 0] - 2.0 * stack[:, 1]
        stack[4, 2] = 3.0 * stack[4, 1]
        with pytest.raises(RuntimeError, match="^matrix 4 has dimension 7, not 6$"):
            _null_space(stack, 6, lambda i: f"matrix {i}")

    @pytest.mark.parametrize("n", [4, 21])
    def test_out_of_range(self, n):
        with pytest.raises(UnsupportedDimensionError):
            weyl_basis(n)


class TestHessian:
    @pytest.mark.parametrize(
        "n,mults",
        [
            (10, (1, 26, 78, 483, 156, 24, 2)),
            (11, (1, 30, 105, 768, 210, 28, 2)),
            (12, (1, 34, 136, 1161, 272, 32, 2)),
            (13, (1, 38, 171, 1685, 342, 36, 2)),
            (14, (1, 42, 210, 2365, 420, 40, 2)),
            (15, (1, 46, 253, 3228, 506, 44, 2)),
            (16, (1, 50, 300, 4303, 600, 48, 2)),
            (17, (1, 54, 351, 5621, 702, 52, 2)),
            (18, (1, 58, 406, 7215, 812, 56, 2)),
            (19, (1, 62, 465, 9120, 930, 60, 2)),
            (20, (1, 66, 528, 11373, 1056, 64, 2)),
            (5, (1, 6, 3, 13, 6, 4, 2)),
            (6, (1, 10, 10, 33, 20, 8, 2)),
            (7, (1, 14, 21, 76, 42, 12, 2)),
            (8, (1, 18, 36, 155, 72, 16, 2)),
            (9, (1, 22, 55, 285, 110, 20, 2)),
        ],
    )
    def test_cp2_clusters(self, n, mults):
        h = hessian_matrix(w_cp2(n))
        rep = eigen_report(h)
        values = [v for v, _ in rep.clusters]
        expected = [math.sqrt(1.5) * x for x in LADDER]
        assert len(rep.clusters) == 7
        assert np.allclose(values, expected, atol=1e-8)
        assert tuple(m for _, m in rep.clusters) == mults
        assert sum(mults) == weyl_dim(n)
        # the closed form of the ladder's multiplicities, l = n - 4; the
        # zero rung takes the rest of the Weyl space
        l = n - 4
        rungs = (1, 4 * l + 2, l * (2 * l + 1), 2 * l * (2 * l + 1), 4 * l, 2)
        rest = weyl_dim(n) - sum(rungs)
        assert mults == (*rungs[:3], rest, *rungs[3:])
        assert abs(sum(np.trace(b) for b in blocks_of(h))) < 1e-8

    def test_eigenvalue_set_independent_of_n(self):
        reps = [
            eigen_report(hessian_matrix(w_cp2(n))) for n in (10, 11)
        ]
        v10 = sorted(v for v, _ in reps[0].clusters)
        v11 = sorted(v for v, _ in reps[1].clusters)
        assert np.allclose(v10, v11, atol=1e-8)

    def test_base_point_is_top_eigenvector(self):
        w0 = w_cp2(10)
        h = hessian_matrix(w0)
        for block, stack in zip(blocks_of(h), block_bases(h), strict=True):
            c = stack.reshape(len(block), -1) @ w0.mat.ravel()
            assert np.linalg.norm(block @ c - math.sqrt(1.5) * c) < 1e-10

    @pytest.mark.parametrize("k,l", [(5, 6), (4, 7), (5, 5)])
    def test_product_weyl_eigenvector(self, k, l):
        w0 = unit_product_weyl(k, l)
        h = hessian_matrix(w0)
        assert h.dim == k + l
        for block, stack in zip(blocks_of(h), block_bases(h), strict=True):
            c = stack.reshape(len(block), -1) @ w0.ravel()
            assert np.linalg.norm(block @ c - theta(k, l) * c) < 1e-10

    def test_block_structure(self, rng):
        # a random W0 couples every class, a product's diagonal Weyl part
        # none, and W_CP2 (entries of characters 0 and 0b1111) pairs chi
        # with chi ^ 0b1111
        w = random_unit_weyl(rng, 7)
        assert [len(b) for b in blocks_of(hessian_matrix(w))] == [weyl_dim(7)]
        basis = weyl_basis(8)
        h = hessian_matrix(unit_product_weyl(4, 4))
        assert len(blocks_of(h)) == len(basis.characters)
        widths = np.array([stack.shape[1] for stack in h.stacks])[h.stack]
        assert np.array_equal(widths, class_vector_counts(basis))
        for n in (8, 12):
            basis = weyl_basis(n)
            chars = set(basis.characters.tolist())
            got = {
                frozenset(basis.characters[classes].tolist())
                for classes in block_classes(hessian_matrix(w_cp2(n)))
            }
            assert got == {frozenset({x, x ^ 0b1111} & chars) for x in chars}
            assert len(got) == {8: 61, 12: 442}[n]

    @pytest.mark.parametrize("point", [f"cp2-{n}" for n in BASIS_DIMS] + ["s4xs5"])
    def test_blocks_contract(self, point):
        # every class of the basis sits in one block of one stack, each
        # stack's slots run 0..c-1, a block is as wide as its classes have
        # vectors, and each stack is symmetric to the last bit
        if point == "s4xs5":
            n, h = 9, hessian_matrix(unit_product_weyl(4, 5))
        else:
            n = int(point.removeprefix("cp2-"))
            h = hessian_matrix(w_cp2(n))
        nvec = class_vector_counts(weyl_basis(n))
        assert h.dim == n
        assert h.stack.shape == h.slot.shape == nvec.shape
        counts = np.array([len(stack) for stack in h.stacks])
        assert np.all((0 <= h.stack) & (h.stack < len(h.stacks)))
        assert np.all((0 <= h.slot) & (h.slot < counts[h.stack]))
        for s, stack in enumerate(h.stacks):
            mine = h.stack == s
            assert sorted(set(h.slot[mine].tolist())) == list(range(len(stack)))
            widths = np.bincount(h.slot[mine], weights=nvec[mine], minlength=len(stack))
            assert stack.shape[1] == stack.shape[2]
            assert np.all(widths == stack.shape[1])
            assert stack.tobytes() == np.ascontiguousarray(stack.transpose(0, 2, 1)).tobytes()
        assert sum(stack.shape[0] * stack.shape[1] for stack in h.stacks) == weyl_dim(n)

    def test_entries_between_blocks_are_exactly_zero(self):
        w0 = w_cp2(8).mat
        h = hessian_matrix(w0)
        stacks = block_bases(h)
        label = np.repeat(np.arange(len(stacks)), [len(s) for s in stacks])
        stack = np.concatenate(stacks)
        flat = stack.reshape(len(stack), -1)
        full = np.array([q_map(w0, b).mat.ravel() for b in stack]) @ flat.T
        across = label[:, None] != label[None, :]
        assert np.count_nonzero(full[across]) == 0
        assert np.max(np.abs(full - block_diagonal(h))) < 1e-13

    def test_memory_at_n12(self):
        # tracemalloc peaks, each bounded at about twice the one measured:
        # the graded basis build, one batched null space per class shape
        # (0.8 MiB with the pair-table and Bianchi index caches cold, 0.7 MiB
        # warm; one SVD per class peaked at 1.9 MiB), and, with the basis
        # cached, the Hessian at W_CP2 gathered in class coordinates
        # (1.3 MiB with the bracket table cold, most of it the index arrays
        # that place each class's vector entries in its block).  The dense
        # route peaked at 159 and 96 MiB, the sharp kernel on 16-vector
        # chunks at 10.8 MiB and the pairing through W_CP2's three
        # eigenpairs at 4.3 MiB.
        tracemalloc.start()
        try:
            weyl_basis.__wrapped__(12)
            build = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weyl_basis(12)
        w0 = w_cp2(12)
        tracemalloc.start()
        try:
            hessian_matrix(w0)
            hessian = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build < 1.5 * 2**20
        assert hessian < 2.25 * 2**20

    def test_full_rank_memory_at_n10(self):
        # a random unit Weyl point couples every class: one 770-wide block
        # over all 1035 coordinates.  Its pairing G (8.2 MiB) is gathered
        # only where a delta or both bracket signs are nonzero, and G and V
        # go before the symmetrization: 23.7 MiB traced, against 47 MiB when
        # every term of G was a dense 1035 x 1035 gather
        w0 = random_weyl(np.random.default_rng(0), 10)
        weyl_basis(10)
        tracemalloc.start()
        try:
            h = hessian_matrix(w0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (stack,) = h.stacks
        assert stack.shape == (1, weyl_dim(10), weyl_dim(10))
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_pairing_is_the_sum_of_its_terms(self, monkeypatch, n):
        # every G that hessian_matrix pairs holds, bit for bit, the six
        # terms of _coordinate_pairing's docstring added entry by entry in
        # their order: at W_CP2, at a sphere product and at a random unit
        # Weyl point, whose one block holds every coordinate
        calls = []
        pairing = spectral_decomp._coordinate_pairing

        def recording(mat, a, b, take, sign):
            g = pairing(mat, a, b, take, sign)
            calls.append((mat, a, b, take, sign, g))
            return g

        monkeypatch.setattr(spectral_decomp, "_coordinate_pairing", recording)
        rng = np.random.default_rng(n)
        for w0 in (w_cp2(n), unit_product_weyl(3, n - 3), random_unit_weyl(rng, n)):
            calls.clear()
            hessian_matrix(w0)
            assert calls
            for mat, a, b, take, sign, g in calls:
                # t = (A, B) runs along the rows of G, t' = (C, D) along its columns
                A, B = a[:, :, None], b[:, :, None]
                C, D = a[:, None, :], b[:, None, :]
                want = np.zeros(g.shape)
                want = want + (B == C) * mat[D, A]
                want = want + (A == D) * mat[C, B]
                want = want + (B == D) * mat[C, A]
                want = want + (A == C) * mat[D, B]
                want = want - sign[B, C] * sign[D, A] * mat[take[B, C], take[D, A]]
                want = want - sign[B, D] * sign[C, A] * mat[take[B, D], take[C, A]]
                assert g.tobytes() == want.tobytes()
        # the random point couples every coordinate in one block
        N = wedge_count(n)
        assert [a.shape for _, a, *_ in calls] == [(1, N * (N + 1) // 2)]

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_trace_vanishes(self, rng, n):
        w = random_unit_weyl(rng, n)
        assert abs(sum(np.trace(b) for b in blocks_of(hessian_matrix(w)))) < 1e-8

    def test_rejects_bad_base_points(self):
        with pytest.raises(ArgumentError):
            hessian_matrix(2.0 * w_cp2(5).mat)
        ident = sphere(5)
        with pytest.raises(ArgumentError):
            hessian_matrix(ident.mat / ident.norm())
        # the basis is read at W0's own dimension, which must have one
        with pytest.raises(UnsupportedDimensionError):
            hessian_matrix(w_cp2(4))


def _assert_matches_general_solver(rep, m):
    # np.linalg.eigvals is the nonsymmetric solver, which shares no code
    # path with the symmetric one behind eigen_report
    vals = np.sort(np.linalg.eigvals(m).real)[::-1]
    lo = 0
    for mean, mult in rep.clusters:
        # every value of the cluster sits at its mean, and no other does
        assert np.max(np.abs(vals[lo:lo + mult] - mean)) < 1e-10
        lo += mult
    assert lo == len(vals)


class TestGroupRows:
    @pytest.mark.parametrize("shape", [(200, 3), (50, 2), (1, 4), (30, 1), (1, 1)])
    def test_matches_unique_rows(self, shape):
        # small nonnegative integers, with repeated rows wherever there is room
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        table = rng.integers(0, 4, size=shape)
        rows, inverse = _group_rows(table)
        want_rows, want_inverse = np.unique(table, axis=0, return_inverse=True)
        assert rows.dtype == table.dtype
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(inverse, want_inverse.ravel())
        assert np.array_equal(rows[inverse], table)

    def test_wide_columns(self):
        # columns with very different ranges sort by the first, then the next
        table = np.array([[3, 1000, 0], [0, 7, 9], [3, 2, 0], [0, 7, 9], [3, 1000, 0]])
        rows, inverse = _group_rows(table)
        assert rows.tolist() == [[0, 7, 9], [3, 2, 0], [3, 1000, 0]]
        assert inverse.tolist() == [2, 0, 1, 0, 2]


class TestEigenReport:
    def test_two_clusters(self):
        m = np.diag([1.0, 1.0, 2.0])
        rep = eigen_report(m)
        assert rep.clusters == ((2.0, 1), (1.0, 2))
        assert sum(m for _, m in rep.clusters) == 3
        _assert_matches_general_solver(rep, m)
        assert rep.multiplicity_of(1.0) == 2
        assert rep.multiplicity_of(3.0) == 0

    def test_zero_matrix(self):
        rep = eigen_report(np.zeros((4, 4)))
        assert rep.clusters == ((0.0, 4),)

    def test_random_symmetric(self, rng):
        for _ in range(20):
            m = rng.standard_normal((8, 8))
            rep = eigen_report(0.5 * (m + m.T))
            values = [v for v, _ in rep.clusters]
            assert values == sorted(values, reverse=True)
            assert sum(mult for _, mult in rep.clusters) == 8
            _assert_matches_general_solver(rep, 0.5 * (m + m.T))

    def test_rejects_bad_input(self):
        with pytest.raises(ArgumentError):
            eigen_report(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ArgumentError):
            eigen_report(np.zeros((2, 3)))

    def test_blocks_match_the_assembled_matrix(self, rng):
        # eigen_report reads only the stacks: here three random blocks, each
        # its own stack
        stacks = tuple(
            0.5 * (m + m.transpose(0, 2, 1))
            for m in (rng.standard_normal((1, k, k)) for k in (3, 1, 5))
        )
        blocks = HessianBlocks(0, stacks, np.arange(3), np.zeros(3, dtype=np.intp))
        assert eigen_report(blocks) == eigen_report(block_diagonal(blocks))
        with pytest.raises(ArgumentError):
            eigen_report(replace(blocks, stacks=(
                stacks[0], np.array([[[0.0, 1.0], [0.0, 0.0]]])
            )))

    def test_shared_shapes_match_the_assembled_matrix(self):
        # the 61 blocks at n = 8 share six shapes; each shape's stack is
        # diagonalized at once
        blocks = hessian_matrix(w_cp2(8))
        got, want = eigen_report(blocks), eigen_report(block_diagonal(blocks))
        assert [m for _, m in got.clusters] == [m for _, m in want.clusters]
        assert np.allclose([v for v, _ in got.clusters],
                           [v for v, _ in want.clusters], rtol=0, atol=1e-12)

    def test_one_eigvalsh_per_block_shape(self, monkeypatch):
        h = hessian_matrix(w_cp2(12))
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        rep = eigen_report(h)
        assert sum(len(stack) for stack in h.stacks) == 442
        # one stack, and so one call, per block shape
        assert len({stack.shape[1:] for stack in h.stacks}) == len(h.stacks)
        assert sorted(shapes) == sorted(stack.shape for stack in h.stacks)
        assert len(shapes) == 6
        assert sum(m for _, m in rep.clusters) == weyl_dim(12)

    def test_rejects_one_asymmetric_block_among_its_shape(self):
        h = hessian_matrix(w_cp2(12))
        (pairs,) = [i for i, stack in enumerate(h.stacks) if stack.shape[1:] == (2, 2)]
        assert len(h.stacks[pairs]) == 294
        stacks = list(h.stacks)
        stacks[pairs] = stacks[pairs].copy()
        stacks[pairs][150, 0, 1] += 1e-9
        with pytest.raises(ArgumentError, match="must be symmetric"):
            eigen_report(replace(h, stacks=tuple(stacks)))

    def test_cluster_projectors(self):
        h = block_diagonal(hessian_matrix(w_cp2(10)))
        vals, vecs = np.linalg.eigh(h)
        order = np.argsort(vals)[::-1]
        vecs = vecs[:, order]
        projectors, pos = [], 0
        for _, mult in eigen_report(h).clusters:
            block = vecs[:, pos : pos + mult]
            projectors.append(block @ block.T)
            pos += mult
        for i, p in enumerate(projectors):
            assert np.max(np.abs(p @ p - p)) < 1e-8
            for q in projectors[i + 1 :]:
                assert np.max(np.abs(p @ q)) < 1e-8


class TestOrbitTangent:
    def test_identity_is_fixed(self):
        assert orbit_tangent_dim(sphere(7)) == 0

    def test_cp2_weyl_orbit(self):
        assert orbit_tangent_dim(w_cp2(11)) == 30

    @pytest.mark.parametrize("k,l", [(2, 3), (4, 6), (4, 7), (5, 5), (5, 6)])
    def test_product_weyl_orbit(self, k, l):
        assert orbit_tangent_dim(unit_product_weyl(k, l)) == k * l

    @pytest.mark.parametrize("n", range(4, 13))
    def test_commutators_match_the_structure_constants(self, n, rng):
        # each entry is at most two signed entries of W, which the matrix
        # products sum with exact zeros, so the bytes agree
        ad = structure_constants(n).transpose(0, 2, 1)
        points = [w_cp2(n).mat, unit_product_weyl(2, n - 2)]
        points += [random_unit_weyl(rng, n) for _ in range(2)]
        for w in points:
            want = ad @ w - w @ ad
            assert _orbit_commutators(w, n).tobytes() == want.tobytes()

    @staticmethod
    def replace_structure_constants(monkeypatch, fake):
        for name, module in list(sys.modules.items()):
            if name.startswith("curvlab") and hasattr(module, "structure_constants"):
                monkeypatch.setattr(module, "structure_constants", fake)

    def test_makes_no_structure_constants_call(self, monkeypatch):
        def refuse(n):
            raise AssertionError("orbit_tangent_dim built the structure constants")

        self.replace_structure_constants(monkeypatch, refuse)
        assert orbit_tangent_dim(w_cp2(11)) == 30

    def test_memory_at_n11(self, monkeypatch):
        # cold: every table the call reads is built uncached inside the
        # trace.  The (N, N, N) stack (1.27 MiB at n = 11) and the rank's
        # SVD of it peak at 2.6 MiB and keep nothing; through the dense
        # structure constants the peak was 3.8 MiB, and their 1.27 MiB
        # stayed cached.
        self.replace_structure_constants(monkeypatch, structure_constants.__wrapped__)
        monkeypatch.setattr(spectral_decomp, "_bracket_table", _bracket_table.__wrapped__)
        w0 = w_cp2(11)
        tracemalloc.start()
        try:
            assert orbit_tangent_dim(w0) == 30
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert kept < 2**14


def x_embedding(k):
    """Row m is sum_i (e_m ^ e_i) (x) e_i, with columns (pair rank, i)."""
    e = np.eye(k)
    return np.array([
        np.stack([wedge_vectors(e[m], e[i]) for i in range(k)], axis=1).ravel()
        for m in range(k)
    ])


class TestDimensionTables:
    @pytest.mark.parametrize("k", range(3, 10))
    def test_x_space(self, k):
        phi = triple_wedge_matrix(k)
        assert np.linalg.matrix_rank(phi) == math.comb(k, 3)
        # the null space of Phi stacked on the embedding, from its own SVD
        rows = spectral_decomp._x_space_rows(k)
        _, s, vt = np.linalg.svd(rows)
        rank = int(np.sum(s > 1e-10 * s[0]))
        basis = vt[rank:]
        assert basis.shape[0] == x_dim(k) == k * math.comb(k, 2) - math.comb(k, 3) - k
        assert np.max(np.abs(basis @ basis.T - np.eye(x_dim(k)))) < 1e-12
        assert np.max(np.abs(phi @ basis.T)) < 1e-12
        # orthogonal to the copy of R^k
        assert np.max(np.abs(x_embedding(k) @ basis.T)) < 1e-12

    @pytest.mark.parametrize("k", range(3, 18))
    def test_x_space_rows(self, k):
        # Phi stacked on the embedding, at every k that the tables reach
        rows = spectral_decomp._x_space_rows(k)
        assert np.array_equal(rows, np.vstack([triple_wedge_matrix(k), x_embedding(k)]))
        assert rows.flags.c_contiguous

    @pytest.mark.parametrize("k", range(3, 10))
    def test_triple_wedge_matches_minors(self, k):
        # Phi(e_i ^ e_j (x) e_m) has, on e_a ^ e_b ^ e_c, the minor of the
        # frame (e_i, e_j, e_m) on the coordinates (a, b, c)
        e = np.eye(k)
        triples = np.array(list(itertools.combinations(range(k), 3)))
        phi = triple_wedge_matrix(k)
        for i, j in itertools.combinations(range(k), 2):
            for m in range(k):
                frame = np.stack([e[i], e[j], e[m]])
                want = np.linalg.det(frame[:, triples].transpose(1, 0, 2))
                got = phi @ np.kron(wedge_vectors(e[i], e[j]), e[m])
                assert np.max(np.abs(got - want)) < 1e-12

    def test_tables_read_x_space_ranks(self, monkeypatch):
        # the table needs only dim X_k, which singular values give; a basis of
        # X_17 (n = 20, k = 3) would need the full SVD of a 697 x 2312 matrix
        table = decomposition_dims(20, 3)
        assert table.blocks["x_second_vectors"] == x_dim(17) * 3
        for k in range(3, 10):
            assert spectral_decomp._x_space_dim(k) == x_dim(k)
        monkeypatch.setattr(spectral_decomp, "x_dim", lambda k: 0)
        with pytest.raises(RuntimeError, match="X_5 has dimension 35, not 0"):
            spectral_decomp._x_space_dim.__wrapped__(5)

    def test_null_space_checks_its_dimension(self):
        # ker Phi on Lambda^2(R^4) (x) R^4 has dimension 24 - 4 = 20
        phi = triple_wedge_matrix(4)[None]
        assert _null_space(phi, 20, lambda i: "ker Phi").shape == (1, 20, 24)
        with pytest.raises(RuntimeError, match="ker Phi has dimension 20, not 21"):
            _null_space(phi, 21, lambda i: "ker Phi")

    def test_x_dim_values(self):
        assert [x_dim(k) for k in (3, 4, 5, 6, 7)] == [5, 16, 35, 64, 105]
        # appendix form for k = n - 1
        for n in range(4, 11):
            assert x_dim(n - 1) == (n + 1) * (n - 1) * (n - 3) // 3

    @pytest.mark.parametrize("n,k", [(11, 4), (11, 5), (10, 4), (10, 5), (6, 3), (12, 4)])
    def test_blocks_sum(self, n, k):
        table = decomposition_dims(n, k)
        assert sum(table.blocks.values()) == table.weyl_total == weyl_dim(n)

    def test_pin_refinement(self):
        table = decomposition_dims(11, 4)
        assert table.pin_blocks is not None
        assert len(table.pin_blocks) == 19
        assert sum(table.pin_blocks.values()) == 1144
        l = table.l
        assert table.pin_blocks["x4_plus_vectors"] == 8 * l
        assert (
            table.pin_blocks["x4_minus_1_vectors"]
            + table.pin_blocks["x4_minus_2_vectors"]
            == 8 * l
        )
        assert decomposition_dims(11, 5).pin_blocks is None

    def test_x4_split_fails_on_a_flipped_phi_sign(self, monkeypatch):
        # one wrong sign in the triple wedge map moves the X_4 split off
        # (8, 8), and the refined table refuses it (dim X_4 is cached first,
        # from the true map)
        decomposition_dims(8, 4)
        phi = triple_wedge_matrix(4)

        def flipped(k):
            out = phi.copy()
            out[0, np.flatnonzero(out[0])[0]] *= -1.0
            return out

        monkeypatch.setattr(spectral_decomp, "triple_wedge_matrix", flipped)
        spectral_decomp._x4_split_dims.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=r"X_4 split is \(7, 7\)"):
                decomposition_dims(8, 4)
        finally:
            spectral_decomp._x4_split_dims.cache_clear()

    def test_x4_split_is_computed_once(self, monkeypatch):
        decomposition_dims(10, 4)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        table = decomposition_dims(10, 4)
        assert calls == []
        assert table.pin_blocks["x4_plus_vectors"] == 8 * 6

    def test_rejects_thin_factors(self):
        with pytest.raises(ArgumentError):
            decomposition_dims(11, 2)
        with pytest.raises(ArgumentError):
            decomposition_dims(11, 9)
        with pytest.raises(ArgumentError):
            x_dim(2)
