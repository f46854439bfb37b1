"""Coordinate model of so(n) as the wedge space of R^n.

The basis is {e_i ^ e_j : 1 <= i < j <= n}, ordered lexicographically, which is
orthonormal for the inner product <A, B> = -1/2 tr(AB) on antisymmetric
matrices.  Under the isometry e_i ^ e_j -> E_ij = e_i e_j^T - e_j e_i^T the
bracket of basis bivectors is

    [e_i^e_j, e_p^e_q] = d_jp e_i^e_q + d_iq e_j^e_p + d_jq e_p^e_i + d_ip e_q^e_j

and everything here (structure constants, ad matrices, the sp(1)+- bases of
so(4), the rotation action on bivectors) is derived from that formula.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ArgumentError

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
    return n * (n - 1) // 2


def dim_from_wedge_count(count: int) -> int:
    """Inverse of wedge_count; raises if count is not triangular."""
    n = int(round((1 + np.sqrt(1 + 8 * count)) / 2))
    if wedge_count(n) != count:
        raise ArgumentError(f"{count} is not n(n-1)/2 for any integer n")
    return n


@functools.lru_cache(maxsize=None)
def wedge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All index pairs (i, j), 1-based, i < j, in lexicographic order."""
    if n < 2:
        raise ArgumentError(f"need n >= 2, got {n}")
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def wedge_rank(i: int, j: int, n: int) -> int:
    """0-based position of e_i ^ e_j in the lexicographic wedge basis."""
    if not (1 <= i < j <= n):
        raise ArgumentError(f"need 1 <= i < j <= n, got (i, j, n) = ({i}, {j}, {n})")
    return (i - 1) * n - i * (i - 1) // 2 + (j - i) - 1


def wedge_index(rank: int, n: int) -> tuple[int, int]:
    """Inverse of wedge_rank."""
    pairs = wedge_pairs(n)
    if not 0 <= rank < len(pairs):
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
    if n is None:
        n = dim_from_wedge_count(coords.shape[0])
    elif coords.shape[0] != wedge_count(n):
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
    if mat.shape != (n, n) or np.max(np.abs(mat + mat.T)) > 1e-10:
        raise ArgumentError("expected an antisymmetric square matrix")
    iu, ju = np.triu_indices(n, k=1)
    return mat[iu, ju].copy()


def _bracket_pair(i: int, j: int, p: int, q: int) -> list[tuple[int, int, float]]:
    """Signed wedge terms of [e_i^e_j, e_p^e_q]; entries (a, b, coeff) with a < b."""
    raw = []
    if j == p:
        raw.append((i, q, 1.0))
    if i == q:
        raw.append((j, p, 1.0))
    if j == q:
        raw.append((p, i, 1.0))
    if i == p:
        raw.append((q, j, 1.0))
    terms = []
    for a, b, c in raw:
        if a == b:
            continue
        if a > b:
            a, b, c = b, a, -c
        terms.append((a, b, c))
    return terms


@functools.lru_cache(maxsize=None)
def structure_constants(n: int) -> np.ndarray:
    """Structure constants of so(n) in the wedge basis, cached and read-only.

    tensor[a, b, g] = <[b_a, b_b], b_g>, an (N, N, N) array, so tensor[a].T
    is the matrix of ad_{b_a}.
    """
    if n < 3:
        raise ArgumentError(f"need n >= 3, got {n}")
    pairs = wedge_pairs(n)
    N = len(pairs)
    tensor = np.zeros((N, N, N))
    for alpha, (i, j) in enumerate(pairs):
        for beta, (p, q) in enumerate(pairs):
            for a, b, c in _bracket_pair(i, j, p, q):
                tensor[alpha, beta, wedge_rank(a, b, n)] += c
    tensor.setflags(write=False)
    return tensor


def ad_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix of ad_v = [v, .] in the wedge basis (antisymmetric, N x N)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ArgumentError("ad_matrix expects one bivector")
    N = v.shape[0]
    tensor = structure_constants(dim_from_wedge_count(N))
    # row b of the product is [v, b_b]; the transpose is copied to C order
    # because callers feed ad matrices to GEMMs, whose rounding depends on
    # the operand layout
    brackets = (v @ tensor.reshape(N, -1)).reshape(N, N)
    return np.ascontiguousarray(brackets.T)


def _wedge_vector(n: int, terms: list[tuple[int, int, float]]) -> np.ndarray:
    out = np.zeros(wedge_count(n))
    for i, j, c in terms:
        out[wedge_rank(i, j, n)] = c
    return out


@functools.lru_cache(maxsize=None)
def sp1_basis(n: int) -> dict[str, np.ndarray]:
    """The sp(1)+ and sp(1)- generators of so(4), zero-padded into so(n).

    Satisfies [i+-, j+-] = 2 k+- (cyclically) and [x+, y-] = 0; the vectors
    x/sqrt(2) are orthonormal.
    """
    if n < 4:
        raise ArgumentError(f"sp(1) bases need n >= 4, got {n}")
    basis = {
        "i+": [(1, 2, 1.0), (3, 4, 1.0)],
        "j+": [(1, 3, 1.0), (2, 4, -1.0)],
        "k+": [(1, 4, -1.0), (2, 3, -1.0)],
        "i-": [(1, 2, 1.0), (3, 4, -1.0)],
        "j-": [(1, 3, 1.0), (2, 4, 1.0)],
        "k-": [(1, 4, 1.0), (2, 3, -1.0)],
    }
    out = {}
    for name, terms in basis.items():
        vec = _wedge_vector(n, terms)
        vec.setflags(write=False)
        out[name] = vec
    return out


def adjoint_rotation(g: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Matrix of v ^ w -> gv ^ gw on the wedge basis, for orthogonal g.

    The induced matrix is orthogonal; entry [(i,j), (p,q)] is
    g_ip g_jq - g_iq g_jp.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ArgumentError("rotation must be a square matrix")
    if np.max(np.abs(g.T @ g - np.eye(n))) > tol:
        raise ArgumentError("rotation is not orthogonal within tolerance")
    pairs = np.array(wedge_pairs(n)) - 1
    i, j = pairs[:, 0], pairs[:, 1]
    return g[np.ix_(i, i)] * g[np.ix_(j, j)] - g[np.ix_(i, j)] * g[np.ix_(j, i)]
