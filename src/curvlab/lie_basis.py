"""Coordinate model of so(n) as the wedge space of R^n.

The basis is {e_i ^ e_j : 1 <= i < j <= n}, ordered lexicographically, which is
orthonormal for the inner product <A, B> = -1/2 tr(AB) on antisymmetric
matrices.  Under the isometry e_i ^ e_j -> E_ij = e_i e_j^T - e_j e_i^T the
bracket of basis bivectors is

    [e_i^e_j, e_p^e_q] = d_jp e_i^e_q + d_iq e_j^e_p + d_jq e_p^e_i + d_ip e_q^e_j

and everything here (the bracket table, ad matrices, the sp(1)+- bases of
so(4), the rotation action on bivectors) is derived from that formula.

The module keeps two tables, one per fact.  The pair table _pair_table(n)
encodes the basis order: e_{a+1} ^ e_{b+1} = sign[a, b] b_rank[a, b], with
sign 0 on the diagonal.  It numbers the pairs in np.triu_indices(n, 1)
order, the order in which adjoint_rotation, cpn, sharp_pure and the
gathers of curvature_core enumerate the basis.  The bracket table
_bracket_table(n) encodes the bracket: ad_v[x, y] = sign[x, y] v[take[x, y]].
The ad matrices, the Hessian, the orbit commutators and structure_constants,
its dense spread for the sharp oracle, read the bracket table; the sp(1)
bases and every index map of curvature_core, spectral_decomp and suite read
the pair table.  wedge_rank, wedge_index, wedge_vectors, so_matrix and
so_coords keep their own code: they are the oracles the tables are tested
against, and the commutators of so_matrix basis matrices, read back through
the inner product, are the oracle of the bracket.
"""

from __future__ import annotations

import functools
import types

import numpy as np

from .errors import ArgumentError, need_int

__all__ = [
    "wedge_count",
    "wedge_pairs",
    "wedge_rank",
    "wedge_index",
    "wedge_vectors",
    "so_matrix",
    "so_coords",
    "structure_constants",
    "ad_matrix",
    "sp1_basis",
    "adjoint_rotation",
    "dim_from_wedge_count",
]


def wedge_count(n: int) -> int:
    """Number of wedge basis elements N = n(n-1)/2."""
    n = need_int(n, 2)
    return n * (n - 1) // 2


@functools.lru_cache(maxsize=None)
def dim_from_wedge_count(count: int) -> int:
    """Inverse of wedge_count; raises if count is not triangular."""
    count = need_int(count, 1, "count")
    n = int(round((1 + np.sqrt(1 + 8 * count)) / 2))
    if wedge_count(n) != count:
        raise ArgumentError(f"{count} is not n(n-1)/2 for any integer n")
    return n


@functools.lru_cache(maxsize=None)
def wedge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All index pairs (i, j), 1-based, i < j, in lexicographic order."""
    n = need_int(n, 2)
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def wedge_rank(i: int, j: int, n: int) -> int:
    """0-based position of e_i ^ e_j in the lexicographic wedge basis."""
    i, j, n = need_int(i, 1, "i"), need_int(j, 2, "j"), need_int(n, 2)
    if not i < j <= n:
        raise ArgumentError(f"need 1 <= i < j <= n, got (i, j, n) = ({i}, {j}, {n})")
    return (i - 1) * n - i * (i - 1) // 2 + (j - i) - 1


def wedge_index(rank: int, n: int) -> tuple[int, int]:
    """Inverse of wedge_rank."""
    pairs, rank = wedge_pairs(n), need_int(rank, 0, "rank")
    if rank >= len(pairs):
        raise ArgumentError(f"rank {rank} out of range for n = {n}")
    return pairs[rank]


def wedge_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge coordinates of a ^ b for two vectors in R^n."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ArgumentError("wedge_vectors expects two vectors of equal length")
    outer = np.outer(a, b)
    iu, ju = np.triu_indices(a.shape[0], k=1)
    return (outer - outer.T)[iu, ju]


def so_matrix(coords: np.ndarray, n: int | None = None) -> np.ndarray:
    """Antisymmetric n x n matrix of a bivector (e_i^e_j -> e_i e_j^T - e_j e_i^T)."""
    coords = np.asarray(coords, dtype=float)
    n = dim_from_wedge_count(coords.shape[0]) if n is None else need_int(n, 2)
    if coords.shape[0] != wedge_count(n):
        raise ArgumentError("coordinate length does not match dimension")
    mat = np.zeros((n, n))
    for r, (i, j) in enumerate(wedge_pairs(n)):
        mat[i - 1, j - 1] += coords[r]
        mat[j - 1, i - 1] -= coords[r]
    return mat


def so_coords(mat: np.ndarray) -> np.ndarray:
    """Wedge coordinates of an antisymmetric matrix (inverse of so_matrix)."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n) or not np.max(np.abs(mat + mat.T)) <= 1e-10:
        raise ArgumentError("expected an antisymmetric square matrix")
    iu, ju = np.triu_indices(n, k=1)
    return mat[iu, ju].copy()


@functools.lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) arrays (rank, sign): e_{a+1} ^ e_{b+1} = sign[a, b] b_rank[a, b].

    rank is symmetric and sign antisymmetric, with sign 0 (and rank 0) on the
    diagonal; b_r is the r-th basis bivector.
    """
    iu, ju = np.triu_indices(n, 1)
    rank = np.zeros((n, n), dtype=np.intp)
    rank[iu, ju] = rank[ju, iu] = np.arange(len(iu))
    sign = np.zeros((n, n))
    sign[iu, ju], sign[ju, iu] = 1.0, -1.0
    rank.setflags(write=False)
    sign.setflags(write=False)
    return rank, sign


@functools.lru_cache(maxsize=None)
def _bracket_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N, N) arrays (take, sign): ad_v[x, y] = sign[x, y] * v[take[x, y]].

    So <[b_z, b_y], b_x> is sign[x, y] for z = take[x, y] and 0 for every
    other z: at most one basis bivector brackets b_y into b_x, and where
    none does, sign and take are 0.  With V the matrix of v, column (p, q)
    of ad_v is [V, E_pq] = (V e_p) ^ e_q - (V e_q) ^ e_p = sum over x not in
    {p, q} of V_xp e_x ^ e_q - V_xq e_x ^ e_p, and V_xp = sign[x, p]
    v[rank[x, p]] in the pair table; these are its 2(n - 2) nonzero entries.
    """
    rank, pair_sign = _pair_table(n)
    p, q = np.triu_indices(n, 1)
    x, col = np.nonzero((np.arange(n)[:, None] != p) & (np.arange(n)[:, None] != q))
    p, q = p[col], q[col]
    s = pair_sign[x, p] * pair_sign[x, q]
    row, col = np.concatenate([rank[x, q], rank[x, p]]), np.concatenate([col, col])
    N = wedge_count(n)
    take = np.zeros((N, N), dtype=np.intp)
    sign = np.zeros((N, N))
    take[row, col] = np.concatenate([rank[x, p], rank[x, q]])
    sign[row, col] = np.concatenate([s, -s])
    take.setflags(write=False)
    sign.setflags(write=False)
    return take, sign


@functools.lru_cache(maxsize=None)
def structure_constants(n: int) -> np.ndarray:
    """Structure constants of so(n) in the wedge basis, cached and read-only.

    tensor[a, b, g] = <[b_a, b_b], b_g>, an (N, N, N) array, so tensor[a].T
    is the matrix of ad_{b_a}.  It is the bracket table spread into a dense
    array: tensor[take[x, y], y, x] = sign[x, y], and 0 everywhere else.
    """
    n = need_int(n, 3)
    take, sign = _bracket_table(n)
    x, y = np.nonzero(sign)
    tensor = np.zeros((wedge_count(n),) * 3)
    tensor[take[x, y], y, x] = sign[x, y]
    tensor.setflags(write=False)
    return tensor


def ad_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix of ad_v = [v, .] in the wedge basis (antisymmetric, N x N).

    Every entry is 0 or one coordinate of v up to sign, so the matrix equals
    the contraction of v with structure_constants exactly.  It is returned
    in C order, because callers feed ad matrices to GEMMs, whose rounding
    depends on the operand layout.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ArgumentError("ad_matrix expects one bivector")
    N = v.shape[0]
    n = need_int(dim_from_wedge_count(N), 3)
    take, sign = _bracket_table(n)
    out = v[take]
    out *= sign
    # adding 0.0 turns -1 * 0.0 and 0 * -x into the +0.0 that the
    # contraction gives
    out += 0.0
    return out


@functools.lru_cache(maxsize=None)
def sp1_basis(n: int) -> types.MappingProxyType:
    """The sp(1)+ and sp(1)- generators of so(4), zero-padded into so(n).

    Satisfies [i+-, j+-] = 2 k+- (cyclically) and [x+, y-] = 0; the vectors
    x/sqrt(2) are orthonormal.  The cached mapping and its vectors are
    read-only.
    """
    n = need_int(n, 4)
    # each generator is e_i ^ e_j + e_p ^ e_q; the order of each pair carries its sign
    terms = {
        "i+": ((1, 2), (3, 4)),
        "j+": ((1, 3), (4, 2)),
        "k+": ((4, 1), (3, 2)),
        "i-": ((1, 2), (4, 3)),
        "j-": ((1, 3), (2, 4)),
        "k-": ((1, 4), (3, 2)),
    }
    rank, sign = _pair_table(n)
    out = {}
    for name, pairs in terms.items():
        a, b = np.subtract(pairs, 1).T
        vec = np.zeros(wedge_count(n))
        vec[rank[a, b]] = sign[a, b]
        vec.setflags(write=False)
        out[name] = vec
    return types.MappingProxyType(out)


def adjoint_rotation(g: np.ndarray) -> np.ndarray:
    """Matrix of v ^ w -> gv ^ gw on the wedge basis, for orthogonal g.

    The induced matrix is orthogonal; entry [(i,j), (p,q)] is
    g_ip g_jq - g_iq g_jp.  g must be orthogonal to within 1e-10.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ArgumentError("rotation must be a square matrix")
    if not np.max(np.abs(g.T @ g - np.eye(n))) <= 1e-10:
        raise ArgumentError("rotation is not orthogonal within tolerance")
    i, j = np.triu_indices(n, 1)
    return g[np.ix_(i, i)] * g[np.ix_(j, j)] - g[np.ix_(i, j)] * g[np.ix_(j, i)]
