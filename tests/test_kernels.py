"""The GEMM sharp kernel against its independent oracle, the Hessian assembly
against the per-vector definition and the bracket oracle, the flow's reuse of
Q(W) and its checks of each accepted state, and the read-only caches the
kernels share."""

from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from conftest import block_bases, block_diagonal, blocks_of
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import curvature_core, potential_flow
from curvlab.curvature_core import (
    _bianchi_flat,
    _ricci_gather,
    _sharp_gather,
    _sharp_mat,
    bianchi_project,
    decompose,
    potential,
    q_map,
    sharp,
    sharp_via_brackets,
)
from curvlab.errors import ArgumentError
from curvlab.lie_basis import (
    _bracket_table,
    _pair_table,
    sp1_basis,
    wedge_count,
)
from curvlab.model_spaces import random_weyl, sphere_product, w_cp2
from curvlab.potential_flow import (
    fixed_point_residual,
    flow_run,
    flow_state,
    flow_step,
)
from curvlab.spectral_decomp import hessian_matrix, weyl_basis

# Inputs have unit Frobenius norm; the routes differ only by rounding.
TOL = 1e-13


def unit_symmetric(rng, n, bianchi):
    s = rng.standard_normal((wedge_count(n),) * 2)
    mat = 0.5 * (s + s.T)
    if bianchi:
        mat = bianchi_project(mat).mat
    return mat / np.linalg.norm(mat)


def gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class TestSharpOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 12), st.booleans(), st.integers(0, 2**32 - 1))
    def test_sharp_and_potential(self, n, bianchi, seed):
        rng = np.random.default_rng(seed)
        r = unit_symmetric(rng, n, bianchi)
        s = unit_symmetric(rng, n, bianchi)
        oracle_rr = sharp_via_brackets(r).mat
        assert gap(sharp(r).mat, oracle_rr) < TOL
        assert gap(sharp(r, r.copy()).mat, oracle_rr) < TOL
        assert gap(sharp(r, s).mat, sharp_via_brackets(r, s).mat) < TOL
        assert gap(sharp(s, r).mat, sharp(r, s).mat) < TOL
        oracle_p = float(np.sum((r @ r + oracle_rr) * r))
        assert abs(potential(r) - oracle_p) < TOL

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 12), st.integers(0, 2**32 - 1))
    def test_q_map(self, n, seed):
        # Q only accepts first-Bianchi inputs: it returns a CurvatureOperator
        rng = np.random.default_rng(seed)
        r = unit_symmetric(rng, n, True)
        s = unit_symmetric(rng, n, True)
        assert gap(q_map(r).mat, r @ r + sharp_via_brackets(r).mat) < TOL
        oracle_rs = 0.5 * (r @ s + s @ r) + sharp_via_brackets(r, s).mat
        assert gap(q_map(r, s).mat, oracle_rs) < TOL

    def test_sharp_output_is_exactly_symmetric(self, rng):
        for n in (4, 9, 12):
            r = unit_symmetric(rng, n, False)
            s = unit_symmetric(rng, n, False)
            for out in (sharp(r).mat, sharp(r, s).mat):
                assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("n", [13, 14, 15, 16, 17, 18, 19, 20])
    def test_raw_kernel_beyond_the_basis_cap(self, n, rng):
        r = unit_symmetric(rng, n, True)
        s = unit_symmetric(rng, n, False)
        assert gap(_sharp_mat(r, r, n), sharp_via_brackets(r).mat) < TOL
        assert gap(_sharp_mat(r, s, n), sharp_via_brackets(r, s).mat) < TOL

    @pytest.mark.parametrize("n", [3, 4, 8, 11, 12, 16, 20])
    def test_gemm_rows_are_the_pairs_p_le_q(self, n):
        take, coef, _ = _sharp_gather(n)
        assert take.shape == coef.shape == (n * (n + 1) // 2, n * n)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_self_read_matches_polarized_read(self, n, rng):
        # sm is rm reads two planes of the symmetric B at twice the weight; a
        # copy reads the same two planes of the symmetrized B + B^T
        r = unit_symmetric(rng, n, True)
        assert gap(_sharp_mat(r, r, n), _sharp_mat(r, r.copy(), n)) < TOL

    @pytest.mark.parametrize("n", [4, 9, 12])
    def test_output_layout(self, n, rng):
        # the result is C-ordered, and the input's memory order does not
        # change a byte of it
        r = unit_symmetric(rng, n, True)
        s = unit_symmetric(rng, n, False)
        rf, sf = np.asfortranarray(r), np.asfortranarray(s)
        for got, want in ((_sharp_mat(rf, rf, n), _sharp_mat(r, r, n)),
                          (_sharp_mat(rf, sf, n), _sharp_mat(r, s, n))):
            assert want.flags.c_contiguous and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


class TestHessianAssembly:
    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_per_vector_q(self, n):
        # the blocks, laid on the diagonal, equal every entry
        # <Q(W0, b_i), b_j> over the whole basis, zeros between blocks included
        product = decompose(sphere_product(2, n - 2)).weyl.mat
        for w0 in (w_cp2(n).mat, product / np.linalg.norm(product),
                   random_weyl(np.random.default_rng(n), n)):
            h = hessian_matrix(w0)
            stacks = block_bases(h)
            basis = np.concatenate(stacks)
            q = [q_map(w0, bi).mat for bi in basis]
            naive = np.array([[float(np.sum(qi * bj)) for bj in basis] for qi in q])
            assert [len(b) for b in blocks_of(h)] == [len(s) for s in stacks]
            assert gap(block_diagonal(h), naive) < TOL

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_bracket_oracle(self, n):
        # each block against <q, b_j>, q = 1/2 (W0 b_i + b_i W0) + W0 # b_i
        # with the sharp product from sharp_via_brackets, which reads the
        # structure constants and shares no code with ad_matrix
        product = decompose(sphere_product(2, n - 2)).weyl.mat
        for w0 in (w_cp2(n).mat, product / np.linalg.norm(product),
                   random_weyl(np.random.default_rng(n), n)):
            h = hessian_matrix(w0)
            for block, stack in zip(blocks_of(h), block_bases(h), strict=True):
                q = np.array([0.5 * (w0 @ b + b @ w0) + sharp_via_brackets(w0, b).mat
                              for b in stack])
                oracle = q.reshape(len(q), -1) @ stack.reshape(len(stack), -1).T
                assert gap(block, oracle) < TOL

    @pytest.mark.parametrize("point", ["random-9", "s3xs6"])
    def test_full_rank_matches_per_vector_q(self, point):
        # at a full-rank W0 the assembly reads every entry of W0: a random
        # unit Weyl point couples all classes into one 495-wide block, and
        # the S^3 x S^6 Weyl part into many
        if point == "random-9":
            w0 = random_weyl(np.random.default_rng(9), 9)
        else:
            product = decompose(sphere_product(3, 6)).weyl.mat
            w0 = product / np.linalg.norm(product)
        assert np.linalg.matrix_rank(w0) == wedge_count(9)
        h = hessian_matrix(w0)
        stacks = block_bases(h)
        basis = np.concatenate(stacks)
        q = np.array([q_map(w0, b).mat for b in basis])
        naive = q.reshape(len(q), -1) @ basis.reshape(len(basis), -1).T
        assert [len(b) for b in blocks_of(h)] == [len(s) for s in stacks]
        if point == "random-9":
            assert [len(b) for b in blocks_of(h)] == [495]
        assert gap(block_diagonal(h), naive) < TOL

    @pytest.mark.parametrize("n", [8, 12])
    def test_input_layout(self, n, rng):
        # the blocks are gathered from W0's entries, so W0's memory order
        # does not change a byte of them (a random point is one block, so
        # it is checked at n = 8 only)
        points = [w_cp2(n).mat] + ([random_weyl(rng, n)] if n == 8 else [])
        for w0 in points:
            got = hessian_matrix(np.asfortranarray(w0))
            want = hessian_matrix(np.ascontiguousarray(w0))
            assert len(got.stacks) == len(want.stacks)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got.stacks, want.stacks))
            assert np.array_equal(got.stack, want.stack)
            assert np.array_equal(got.slot, want.slot)

    def test_makes_no_sharp_kernel_call(self, monkeypatch):
        # the assembly gathers each block's class-coordinate pairing from W0's
        # entries: it never forms Q(W0, b) and never diagonalizes W0
        calls = []
        kernel = curvature_core._sharp_mat

        def counting(rm, sm, n):
            calls.append(n)
            return kernel(rm, sm, n)

        def refuse(*args, **kwargs):
            raise AssertionError("hessian_matrix called a matrix factorization")

        weyl_basis(8)  # the basis build makes one SVD per class shape; cache it first
        monkeypatch.setattr(curvature_core, "_sharp_mat", counting)
        for name in ("eigh", "eigvalsh", "eig", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        hessian_matrix(w_cp2(8))
        assert calls == []


class TestFlowReusesQ:
    def test_samples_match_recomputed_values(self):
        start = flow_state(random_weyl(np.random.default_rng(3), 6))
        run = flow_run(start, steps=12, sample_every=1)
        state = start
        for t, p, residual in run.history:
            state = flow_run(state, steps=1)
            assert t == state.t
            assert abs(p - potential(state.w)) < TOL
            assert abs(residual - fixed_point_residual(state.w)) < TOL
        assert np.array_equal(run.w.mat, state.w.mat)
        assert (run.t, run.potential) == (state.t, state.potential)

    def test_strided_samples(self):
        start = flow_state(random_weyl(np.random.default_rng(4), 5))
        run = flow_run(start, steps=7, sample_every=3)
        state, rows = start, []
        for i in range(7):
            state = flow_run(state, steps=1)
            if i % 3 == 0 or i == 6:
                rows.append(
                    (state.t, potential(state.w), fixed_point_residual(state.w))
                )
        assert len(run.history) == len(rows)
        for got, want in zip(run.history, rows):
            assert got[0] == want[0]
            assert abs(got[1] - want[1]) < TOL and abs(got[2] - want[2]) < TOL

    def test_potential_is_bitwise_that_of_potential(self):
        state = flow_run(flow_state(random_weyl(np.random.default_rng(6), 7)), steps=3)
        assert state.potential == potential(state.w)
        assert np.array_equal(state.q, q_map(state.w).mat)
        assert "q=" not in repr(state)

    def test_four_sharp_evaluations_per_step(self, monkeypatch):
        start = flow_state(random_weyl(np.random.default_rng(7), 5))
        calls = Counter()

        def counting(name, kernel):
            def count(*args):
                calls[name] += 1
                return kernel(*args)
            return count

        for name in ("_sharp_mat", "bianchi_residual", "ricci"):
            monkeypatch.setattr(curvature_core, name,
                                counting(name, getattr(curvature_core, name)))
        flow_run(start, steps=6, sample_every=1)
        assert calls["_sharp_mat"] == 4 * 6
        # each accepted state: the Bianchi identity of W and of Q(W), and
        # W's Ricci trace; the RK4 stages are not checked
        calls.clear()
        state = start
        for _ in range(6):
            state = flow_step(state, 1e-2)
        assert calls == {"_sharp_mat": 4 * 6, "bianchi_residual": 2 * 6, "ricci": 6}


def antisymmetric_defect(n):
    defect = np.zeros((wedge_count(n),) * 2)
    defect[0, 1], defect[1, 0] = 1e-3, -1e-3
    return defect


def non_bianchi_defect(n):
    """A symmetric, Ricci-free defect orthogonal to ker(b)."""
    s = unit_symmetric(np.random.default_rng(8), n, bianchi=False)
    return 1e-3 * (s - bianchi_project(s).mat)


def ricci_defect(n):
    """A Bianchi defect with a nonzero Ricci trace: a multiple of Id."""
    return 1e-3 * np.eye(wedge_count(n))


class TestFlowChecksEachState:
    """A Q evaluation that leaves the Weyl space must stop the flow at the
    next accepted state, whichever of the per-state checks it breaks."""

    @pytest.mark.parametrize(
        "defect,check",
        [(antisymmetric_defect, "symmetric"), (non_bianchi_defect, "Bianchi"),
         (ricci_defect, "Weyl operator")],
        ids=["antisymmetric", "non-bianchi", "ricci"],
    )
    def test_defective_q_raises(self, monkeypatch, defect, check):
        n = 6
        state = flow_state(random_weyl(np.random.default_rng(9), n))
        kernel = potential_flow._q_mat
        bad = defect(n)
        monkeypatch.setattr(potential_flow, "_q_mat",
                            lambda rm, sm, dim: kernel(rm, sm, dim) + bad)
        with pytest.raises(ArgumentError, match=check):
            flow_step(state, 1e-2)


def weyl_basis_arrays(n):
    """Every array of weyl_basis(n): each field that is one, and each stack."""
    basis = weyl_basis(n)
    values = [getattr(basis, f.name) for f in fields(basis)]
    return [*basis.stacks, *(v for v in values if isinstance(v, np.ndarray))]


class TestReadOnlyCaches:
    @pytest.mark.parametrize(
        "arrays",
        [
            lambda: _bianchi_flat(6),
            lambda: _bianchi_flat(3),
            lambda: _ricci_gather(5),
            lambda: _sharp_gather(5),
            lambda: weyl_basis_arrays(6),
            lambda: _pair_table(5),
            lambda: _bracket_table(5),
        ],
        ids=["bianchi-flat", "bianchi-flat-empty", "ricci-gather", "sharp-gather",
             "weyl-basis", "pair-table", "bracket-table"],
    )
    def test_writes_raise(self, arrays):
        for arr in arrays():
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("mapping", [lambda: sp1_basis(6)], ids=["sp1-basis"])
    def test_mapping_writes_raise(self, mapping):
        with pytest.raises(TypeError):
            mapping()["i-"] = np.zeros(wedge_count(6))
