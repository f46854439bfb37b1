"""Curvature operators on so(n) and the algebra that drives everything else.

A curvature operator is a symmetric N x N matrix (N = n(n-1)/2) in the wedge
basis that satisfies the first Bianchi identity.  This module provides the
validated containers (in memory only: no file serialization), the Bianchi
projection onto that subspace, the Ricci trace and its adjoint, the
O(n)-irreducible decomposition, the sharp product (GEMM route, bracket route,
and the fast diagonal path), and the quadratic map Q with its potential and
trilinear form.  The scalar and Ricci parts have one route, the adjoint of the
Ricci contraction read through the Ricci table; the wedge product of symmetric
matrices is its test oracle, as the bracket route is the sharp product's.

The GEMM route expands R and S to 4-tensors and forms

    B_ijkl = sum_{p,q} R_piqj S_pkql,
    (R#S)_ijkl = 1/2 (B_ikjl - B_iljk + B_jlik - B_jkil),

where the last two terms are the first two with R and S swapped, so the
product is polarized in (R, S).  Swapping p and q in B swaps (ij) with (kl)
in the result, so B sums over the n(n+1)/2 pairs p <= q only, with weight 2
on p < q, and the result is symmetrized: B is one matrix product of two
n(n+1)/2 x n^2 factors.  For R # R, B is symmetric, so the last two terms
equal the first two and only those are read.  It costs O(n^6) against the
O(n^8) of the trace pairing -1/2 tr(ad_v R ad_w S) over all pairs of basis
bivectors.

Inner products: bivectors use the dot product in wedge coordinates (the
matrix pairing -1/2 tr(AB)); operators use the Frobenius pairing, so
||Id||^2 = N.  The (4,0)-tensor norm is twice the operator norm.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .lie_basis import (
    _pair_table,
    dim_from_wedge_count,
    structure_constants,
    wedge_count,
)

__all__ = [
    "SYMMETRY_TOL",
    "BIANCHI_TOL",
    "SymmetricOperator",
    "CurvatureOperator",
    "DecompositionReport",
    "bianchi_residual",
    "bianchi_project",
    "ricci",
    "decompose",
    "wedge_product",
    "sharp",
    "sharp_via_brackets",
    "sharp_pure",
    "alternative",
    "q_map",
    "potential",
    "potential_normalized",
    "tri",
]

SYMMETRY_TOL = 1e-12
BIANCHI_TOL = 1e-10


class SymmetricOperator:
    """Symmetric operator on the wedge space, without the Bianchi constraint."""

    def __init__(self, mat: np.ndarray):
        # a private copy, so that freezing it leaves the caller's array writable
        mat, self.dim = _as_mat(np.array(mat, dtype=float), "operator matrix")
        mat.setflags(write=False)
        self._mat = mat
        self.N = mat.shape[0]

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    def __array__(self, dtype=None, copy=None):
        # numpy 2 protocol: copy=True asks for a copy, copy=False forbids one,
        # copy=None (np.asarray) copies only for a dtype change
        if dtype is None or dtype == self._mat.dtype:
            return self._mat.copy() if copy else self._mat
        if copy is False:
            raise ArgumentError(f"a {dtype} view of the operator needs a copy")
        return self._mat.astype(dtype)

    def norm(self) -> float:
        return math.sqrt(_pairing(self._mat, self._mat))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, N={self.N})"


class CurvatureOperator(SymmetricOperator):
    """Symmetric operator satisfying the first Bianchi identity."""

    def __init__(self, mat: np.ndarray):
        super().__init__(mat)
        res = bianchi_residual(self)
        if not res < BIANCHI_TOL:
            raise ArgumentError(
                f"matrix violates the first Bianchi identity (residual {res:.3e})"
            )


@dataclass(frozen=True)
class DecompositionReport:
    """Irreducible parts of a curvature operator under O(n)."""

    scal: float
    ricci0: np.ndarray
    scalar_part: np.ndarray
    ricci_part: np.ndarray
    weyl: CurvatureOperator


def _symmetric(x, name: str, stack: bool = False) -> np.ndarray:
    """x as a float matrix, or with stack as a (c, k, k) stack of them;
    ArgumentError unless every matrix is square and symmetric."""
    mat = np.asarray(x, dtype=float)
    if mat.ndim != 2 + stack or mat.shape[-1] != mat.shape[-2]:
        raise ArgumentError(f"{name} must be a square matrix")
    # refused before the subtraction, where inf - inf would warn
    if not np.isfinite(mat).all():
        raise ArgumentError(f"{name} must be symmetric with finite entries")
    # skew is exactly antisymmetric (b - a == -(a - b) in floating point), so
    # its largest entry is its largest magnitude.  ndarray.max skips np.max's
    # Python wrapper, which on these small matrices costs more than the
    # reduction itself
    skew = mat - mat.swapaxes(-1, -2)
    if not skew.max(initial=0.0) < SYMMETRY_TOL:
        raise ArgumentError(f"{name} must be symmetric")
    return mat


def _as_mat(x, name: str = "operator") -> tuple[np.ndarray, int]:
    if isinstance(x, SymmetricOperator):
        return x.mat, x.dim
    mat = _symmetric(x, name)
    return mat, dim_from_wedge_count(mat.shape[0])


def _unit_weyl(x, name: str) -> CurvatureOperator:
    """x as a CurvatureOperator; ArgumentError unless it is a unit Weyl operator.

    The Bianchi residual, | ||W|| - 1 | and the largest Ricci entry must all
    lie below BIANCHI_TOL.
    """
    op = x if isinstance(x, CurvatureOperator) else CurvatureOperator(x)
    if not abs(op.norm() - 1.0) <= BIANCHI_TOL:
        raise ArgumentError(f"{name} must have unit norm")
    if not np.abs(ricci(op)).max() <= BIANCHI_TOL:
        raise ArgumentError(f"{name} must be a Weyl operator")
    return op


# --- first Bianchi identity ------------------------------------------------

@functools.lru_cache(maxsize=None)
def _bianchi_flat(n: int):
    """Read-only flat positions in an N x N matrix of the three Bianchi planes,
    (ij*N+kl, ik*N+jl, il*N+jk) over all quadruples i<j<k<l, followed by
    their transposes (kl*N+ij, jl*N+ik, jk*N+il).

    Below n = 4 there are no quadruples, and the six arrays are empty.
    """
    rank, _ = _pair_table(n)
    N = wedge_count(n)
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp)
    i, j, k, l = quads.reshape(-1, 4).T
    planes = ((rank[i, j], rank[k, l]), (rank[i, k], rank[j, l]),
              (rank[i, l], rank[j, k]))
    out = tuple(a * N + b for a, b in planes) + tuple(b * N + a for a, b in planes)
    for arr in out:
        arr.setflags(write=False)
    return out


def _bianchi_pairings(mat: np.ndarray, n: int) -> np.ndarray:
    """<R, G_q> of an N x N matrix for every quadruple generator G_q of the
    image of b."""
    a, b, c = _bianchi_flat(n)[:3]
    flat = mat.reshape(-1)
    pair = flat.take(a)
    pair -= flat.take(b)
    pair += flat.take(c)
    pair *= 2.0
    return pair


def bianchi_residual(mat) -> float:
    """Norm of the component of a symmetric operator orthogonal to ker(b)."""
    mat, n = _as_mat(mat)
    pair = _bianchi_pairings(mat, n)
    # each generator has squared norm 6, and distinct generators are orthogonal
    pair *= pair
    return float(np.sqrt(pair.sum() / 6.0))


def bianchi_project(s) -> CurvatureOperator:
    """Orthogonal projection of a symmetric operator onto ker(b).

    The complement of ker(b) is spanned by the 4-form generators G_q; the
    projection subtracts <S, G_q>/6 times each of them.
    """
    mat, n = _as_mat(s)
    coeff = _bianchi_pairings(mat, n)
    coeff /= 6.0
    out = mat.copy()
    flat = out.reshape(-1)
    # no matrix entry belongs to two generators: an entry's two index pairs
    # fix both the quadruple and its pairing, so no position repeats and
    # plain fancy-index updates equal ufunc.at
    a, b, c, at, bt, ct = _bianchi_flat(n)
    flat[a] -= coeff
    flat[at] -= coeff
    flat[b] += coeff
    flat[bt] += coeff
    flat[c] -= coeff
    flat[ct] -= coeff
    return CurvatureOperator(out)


# --- traces and decomposition ----------------------------------------------

@functools.lru_cache(maxsize=None)
def _ricci_gather(n: int):
    """Read-only (n, n, n) arrays (take, sign): take[a, b, i] is the flat
    position of R(e_a ^ e_i, e_b ^ e_i) in the N x N wedge matrix and sign its
    sign, 0 where i is a or b."""
    rank, sgn = _pair_table(n)
    take = rank[:, None, :] * wedge_count(n) + rank[None, :, :]
    sign = sgn[:, None, :] * sgn[None, :, :]
    for arr in (take, sign):
        arr.setflags(write=False)
    return take, sign


def _ricci_mat(mat: np.ndarray, n: int) -> np.ndarray:
    """ricci of a raw N x N operator matrix, without the input check."""
    take, sign = _ricci_gather(n)
    terms = mat.reshape(-1).take(take)
    terms *= sign
    return terms.sum(axis=-1)


def ricci(r) -> np.ndarray:
    """Ricci matrix Ric(v, w) = sum_i <R(v ^ e_i), w ^ e_i>."""
    mat, n = _as_mat(r)
    return _ricci_mat(mat, n)


def _ricci_adjoint(a: np.ndarray, n: int) -> np.ndarray:
    """G^T(A) as an N x N matrix, G the Ricci contraction and A an n x n matrix.

    G^T scatters sign * A[a, b] back onto take[a, b, i]; a diagonal position
    is reached from (a, a, i) and (i, i, a), so the scatter sums.  For
    symmetric A it is the Kulkarni-Nomizu product 2 A ^ id, so G^T(I) = 2 Id.
    """
    take, sign = _ricci_gather(n)
    N = wedge_count(n)
    out = np.bincount(take.ravel(), (sign * a[:, :, None]).ravel(), N * N)
    return out.reshape(N, N)


def _drop_ricci(mat: np.ndarray, n: int) -> np.ndarray:
    """Subtract the scalar and traceless-Ricci parts of mat in place when they
    are drift, and return it.

    Drift means no Ricci entry above BIANCHI_TOL, the bound of _unit_weyl: a
    larger Ricci part is left for that check to refuse.  With Ric = G(R),
    the Weyl part R - G^T(Ric0)/(n - 2) - scal/(n(n - 1)) Id of decompose is
    R - G^T(A), A = (Ric - scal/(2(n - 1)) I)/(n - 2), one scatter.
    """
    ric = _ricci_mat(mat, n)
    if np.abs(ric).max() > BIANCHI_TOL:
        return mat
    diag = ric.ravel()[::n + 1]
    diag -= diag.sum() / (2 * (n - 1))
    ric /= n - 2
    mat -= _ricci_adjoint(ric, n)
    return mat


@functools.lru_cache(maxsize=None)
def _wedge_gather(n: int) -> np.ndarray:
    """Read-only (4, N, N) flat indices into an n x n matrix: at row (i, j)
    and column (p, q) of the wedge basis, the entries (i, p), (j, q), (i, q)
    and (j, p)."""
    i, j = np.triu_indices(n, 1)
    table = np.stack([i[:, None] * n + i, j[:, None] * n + j,
                      i[:, None] * n + j, j[:, None] * n + i])
    table.setflags(write=False)
    return table


def wedge_product(a: np.ndarray, b: np.ndarray) -> SymmetricOperator:
    """Operator A ^ B on the wedge space: (A^B)(v^w) = 1/2 (Av^Bw + Bv^Aw).

    The test oracle for _ricci_adjoint: the program forms no wedge products.
    """
    a = _symmetric(a, "wedge_product factor")
    b = _symmetric(b, "wedge_product factor")
    if a.shape != b.shape:
        raise ArgumentError("wedge_product expects two n x n matrices")
    ip, jq, iq, jp = _wedge_gather(a.shape[0])
    a, b = a.ravel(), b.ravel()
    out = 0.5 * (a[ip] * b[jq] + b[ip] * a[jq] - a[iq] * b[jp] - b[iq] * a[jp])
    return SymmetricOperator(0.5 * (out + out.T))


def decompose(r) -> DecompositionReport:
    """Split R into scalar, traceless-Ricci and Weyl parts.

    R = scal/(n(n-1)) Id + 2/(n-2) (Ric0 ^ id) + W, the three parts pairwise
    orthogonal.  The Ricci part is G^T(Ric0)/(n - 2), one scatter through the
    Ricci table.  Needs n >= 4; below that the Weyl space is trivial and the
    formula degenerates.
    """
    mat, n = _as_mat(r)
    if n < 4:
        raise ArgumentError(f"decomposition needs n >= 4, got {n}")
    N = mat.shape[0]
    scal = 2.0 * float(np.trace(mat))
    ric0 = _ricci_mat(mat, n) - (scal / n) * np.eye(n)
    scalar_part = (scal / (n * (n - 1))) * np.eye(N)
    ricci_part = _ricci_adjoint(ric0, n)
    ricci_part /= n - 2
    weyl = CurvatureOperator(mat - scalar_part - ricci_part)
    return DecompositionReport(scal, ric0, scalar_part, ricci_part, weyl)


# --- sharp product ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sharp_gather(n: int):
    """Index arrays of the GEMM route to the sharp product in dimension n.

    The rows run over the n(n+1)/2 pairs p <= q.  take[(p,q),(k,l)] is the
    flat position of R_pkql in the N x N wedge matrix, and coef is its sign
    (0 where p = k or q = l), times sqrt(2) where p < q.  So
    mat.ravel()[take] * coef is the matrix Y[(p,q),(k,l)] = w_pq R_pkql with
    w_pq^2 = 2 for p < q and 1 for p = q.  read[:, ij, kl] holds the flat
    positions of B_ikjl and B_iljk in the n^2 x n^2 product B, for the wedge
    rows i<j and k<l.
    """
    N = wedge_count(n)
    rank, sgn = _pair_table(n)
    p, q = np.triu_indices(n)
    take = (rank[p, :, None] * N + rank[q, None, :]).reshape(len(p), -1)
    weight = np.where(p < q, np.sqrt(2.0), 1.0)[:, None, None]
    coef = (weight * sgn[p, :, None] * sgn[q, None, :]).reshape(len(p), -1)
    iu, ju = np.triu_indices(n, 1)
    i, j, k, l = iu[:, None], ju[:, None], iu[None, :], ju[None, :]
    read = np.stack([(i * n + k) * n * n + j * n + l, (i * n + l) * n * n + j * n + k])
    for arr in (take, coef, read):
        arr.setflags(write=False)
    return take, coef, read


def _sharp_mat(rm: np.ndarray, sm: np.ndarray, n: int) -> np.ndarray:
    """R # S by the GEMM route, for two N x N matrices.

    With Y(S)[(p,q),(k,l)] = w_pq S_pkql over the rows p <= q, the product
    B = Y(R)^T Y(S) holds B_ijkl = sum_{p<=q} w_pq^2 R_piqj S_pkql.  Row (q,p)
    of the full sum equals row (p,q) with (i,j) and (k,l) swapped, because
    R_qipj = R_pjqi, and that swap maps the read planes at (ij, kl) onto those
    at (kl, ij).  So the wedge entry (ij, kl) of R # S is the (ij, kl)
    symmetrization of 1/2 (B_ikjl + B_jlik - B_iljk - B_jkil), and the weight
    w_pq^2 = 2 stands in for the rows p > q.  Plane B_jlik of B is plane
    B_ikjl of B^T, and B_jkil is B_iljk of B^T, so the sum is the two planes
    B_ikjl - B_iljk of B + B^T.  When sm is rm, B is symmetric and B + B^T
    is 2B, so B itself is read at twice the weight.
    """
    take, coef, read = _sharp_gather(n)
    y = rm.reshape(-1)[take]
    y *= coef
    if sm is rm:
        b = y.T @ y
    else:
        b = y.T @ (sm.reshape(-1)[take] * coef)
        b = b + b.T
    b = b.reshape(-1)
    m = b[read[0]]
    m -= b[read[1]]
    m = m + m.T
    m *= 0.5 if sm is rm else 0.25
    return m


def _q_mat(rm: np.ndarray, sm: np.ndarray, n: int) -> np.ndarray:
    """Q(R, S) = 1/2 (RS + SR) + R # S as a raw matrix (R^2 + R # R if sm is rm)."""
    out = _sharp_mat(rm, sm, n)
    out += rm @ rm if sm is rm else 0.5 * (rm @ sm + sm @ rm)
    return out


def sharp(r, s=None) -> SymmetricOperator:
    """Sharp product R # S (R # R when s is omitted)."""
    rm, n = _as_mat(r)
    if s is None:
        sm, m = rm, n
    else:
        sm, m = _as_mat(s)
    if m != n:
        raise ArgumentError("sharp factors live in different dimensions")
    return SymmetricOperator(_sharp_mat(rm, sm, n))


def sharp_via_brackets(r, s=None) -> SymmetricOperator:
    """Reference route for the sharp product from the dense structure constants.

    <(R#S)v, w> = 1/2 sum_{a,b} <[R b_a, S b_b], v> <[b_a, b_b], w>,
    symmetrized in (R, S), with the constants spread from the bracket table.
    Slower than sharp(), and shares only the pair table with it.
    """
    rm, n = _as_mat(r)
    sm = rm if s is None else _as_mat(s)[0]
    if sm.shape != rm.shape:
        raise ArgumentError("sharp factors live in different dimensions")
    C = structure_constants(n)
    B1 = np.einsum("abc,ad,be->dec", C, rm, sm, optimize=True)
    M = 0.5 * np.einsum("abg,abd->gd", B1, C, optimize=True)
    return SymmetricOperator(0.5 * (M + M.T))


def alternative(r) -> np.ndarray:
    """Alternative operator: the read-only symmetric n x n symbol matrix with
    zero diagonal, whose entry (i, j) is R(e_i^e_j, e_i^e_j)."""
    mat, n = _as_mat(r)
    rank, sign = _pair_table(n)
    tilde = np.where(sign != 0, np.diag(mat)[rank], 0.0)
    tilde.setflags(write=False)
    return tilde


def sharp_pure(r) -> CurvatureOperator:
    """Sharp of an operator diagonal in the wedge basis, via its symbol matrix.

    The result is again diagonal, with symbol matrix the off-diagonal part of
    the square of the input's symbol matrix.
    """
    mat, n = _as_mat(r)
    off = mat - np.diag(np.diag(mat))
    if not np.max(np.abs(off), initial=0.0) < 1e-12:
        raise ArgumentError("sharp_pure needs a diagonal operator matrix")
    tilde = alternative(mat)
    sq = tilde @ tilde
    return CurvatureOperator(np.diag(sq[np.triu_indices(n, 1)]))


# --- Q, potential, trilinear form -------------------------------------------

def q_map(r, s=None) -> CurvatureOperator:
    """Q(R, S) = 1/2 (RS + SR) + R # S; Q(R) = R^2 + R # R when s is omitted.

    Inputs should satisfy the first Bianchi identity; Q then does too.
    """
    rm, n = _as_mat(r)
    if s is None:
        sm = rm
    else:
        sm, m = _as_mat(s)
        if m != n:
            raise ArgumentError("q_map arguments live in different dimensions")
    return CurvatureOperator(_q_mat(rm, sm, n))


def _pairing(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius pairing <A, B> = sum_xy A_xy B_xy of two matrices of one shape."""
    # ndarray.dot: on 1-D operands the @ operator costs about twice as much
    return float(a.ravel().dot(b.ravel()))


def potential(r) -> float:
    """Cubic potential P(R) = <Q(R), R> in the Frobenius pairing."""
    mat, n = _as_mat(r)
    return _pairing(_q_mat(mat, mat, n), mat)


def potential_normalized(r) -> float:
    """P(R / ||R||); rejects operators with norm below 1e-14."""
    mat, _ = _as_mat(r)
    norm = np.linalg.norm(mat)
    if not norm > 1e-14:
        raise ArgumentError("potential_normalized needs a nonzero operator")
    return potential(mat / norm)


def tri(r, s, t) -> float:
    """Trilinear form <Q(R,S), T>, fully symmetric in its three arguments."""
    tm, n = _as_mat(t, "third argument")
    return _pairing(q_map(r, s).mat, tm)

