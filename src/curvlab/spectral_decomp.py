"""Weyl-space bases, the Hessian-type operator at a critical point, and the
dimension bookkeeping of the invariant decompositions.

Every subspace and rank here comes from two private helpers: _null_space
(one full SVD, checked against the expected dimension) and _rank (singular
values only).  weyl_basis(n) is the null space of the first Bianchi and zero
Ricci constraints, in orthonormal coordinates of the symmetric N x N
matrices: x_aa = R_aa and x_ab = sqrt(2) R_ab for a < b, so that the
Frobenius norm of R is the Euclidean norm of x; it is built only for n in
BASIS_DIMS (5..12), the one range its users read.  hessian_matrix represents
W -> Q(W0, W) on that basis; eigen_report clusters a symmetric spectrum;
orbit_tangent_dim measures rotation orbits; decomposition_dims reproduces
every dimension count of the SO(k) x SO(l) and Pin(2)-refined splittings,
including the X_k spaces: the kernel of the triple wedge map on
Lambda^2(R^k) (x) R^k, less the embedded copy of R^k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curvature_core import (
    BIANCHI_TOL,
    _as_mat,
    _bianchi_indices,
    _bianchi_pairings,
    _q_mat,
    ricci,
)
from .errors import ArgumentError, UnsupportedDimensionError
from .lie_basis import (
    _pair_table,
    _vertex_embedding,
    sp1_basis,
    structure_constants,
    wedge_count,
)

__all__ = [
    "BASIS_DIMS",
    "SpectralReport",
    "weyl_dim",
    "x_dim",
    "weyl_basis",
    "hessian_matrix",
    "eigen_report",
    "orbit_tangent_dim",
    "triple_wedge_matrix",
    "x_space_basis",
    "DimensionTable",
    "decomposition_dims",
]


def weyl_dim(n: int) -> int:
    """Dimension of the Weyl space: (n-3)/2 * C(n+2, 3)."""
    if n < 3:
        raise UnsupportedDimensionError(f"need n >= 3, got {n}")
    return (n - 3) * math.comb(n + 2, 3) // 2


def x_dim(k: int) -> int:
    """Dimension of X_k: k C(k,2) - C(k,3) - k = k(k-2)(k+2)/3."""
    if k < 3:
        raise ArgumentError(f"need k >= 3, got {k}")
    return k * (k - 2) * (k + 2) // 3


def _null_space(rows: np.ndarray, expected: int, what: str) -> np.ndarray:
    """Orthonormal basis, as rows, of the null space of rows.

    The rank counts singular values above 1e-10 times the largest; raises
    RuntimeError unless the null space has dimension expected.
    """
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    null = vt[int(np.sum(s > 1e-10 * s[0])):]
    if len(null) != expected:
        raise RuntimeError(f"{what} has dimension {len(null)}, not {expected}")
    return null


def _rank(mat: np.ndarray, rtol: float) -> int:
    """Number of singular values above rtol times the largest; 0 for a zero matrix."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


#: the dimensions at which weyl_basis builds the dense Weyl basis
BASIS_DIMS = range(5, 13)


@functools.lru_cache(maxsize=None)
def weyl_basis(n: int) -> np.ndarray:
    """Orthonormal Weyl basis: the null space of the Bianchi and Ricci constraints.

    Returns one read-only (count, N, N) array; entry i is the wedge-basis
    matrix of the i-th basis operator.

    In the coordinates x_aa = R_aa, x_ab = sqrt(2) R_ab (a < b) of the
    symmetric N x N matrices, every quadruple i<j<k<l gives the Bianchi row
    R_ij,kl - R_ik,jl + R_il,jk and every pair a <= b the Ricci row Ric_ab.
    The null space of this (C(n,4) + n(n+1)/2) x N(N+1)/2 matrix is the
    Weyl space.  Deterministic: each vector's sign makes its
    largest-magnitude entry positive.
    """
    if n not in BASIS_DIMS:
        raise UnsupportedDimensionError(f"weyl_basis supports {min(BASIS_DIMS)} "
                                        f"<= n <= {max(BASIS_DIMS)}, got {n}")
    N = wedge_count(n)
    iu, ju = np.triu_indices(N)
    col = np.zeros((N, N), dtype=np.intp)
    col[iu, ju] = col[ju, iu] = np.arange(len(iu))
    # coefficient of x_ab for a linear form sum_AB K_AB R_AB on symmetric R
    weight = np.where(iu == ju, 0.5, np.sqrt(0.5))
    ij, kl, ik, jl, il, jk = _bianchi_indices(n)
    bianchi = np.zeros((len(ij), len(iu)))
    rows = np.arange(len(ij))
    # all three entries lie off the diagonal, so the identity reads
    # (x_ij,kl - x_ik,jl + x_il,jk) / sqrt(2) = 0; the rows omit the factor
    bianchi[rows, col[ij, kl]] = 1.0
    bianchi[rows, col[ik, jl]] = -1.0
    bianchi[rows, col[il, jk]] = 1.0
    B = _vertex_embedding(n)
    a, b = np.triu_indices(n)
    # Ric_ab = sum_AB K_AB R_AB with K = sum_i B[a, i] (x) B[b, i]
    k = np.einsum("xiA,xiB->xAB", B[a], B[b])
    ric = (k[:, iu, ju] + k[:, ju, iu]) * weight
    expected = weyl_dim(n)
    null = _null_space(np.vstack([bianchi, ric]), expected, f"Weyl space at n={n}")
    mats = np.zeros((expected, N, N))
    mats[:, iu, ju] = mats[:, ju, iu] = null * np.where(iu == ju, 1.0, np.sqrt(0.5))
    flat = mats.reshape(expected, -1)
    lead = flat[np.arange(expected), np.argmax(np.abs(flat), axis=1)]
    mats[lead < 0] *= -1.0
    # the checks CurvatureOperator makes, once over the whole stack
    if not np.array_equal(mats, mats.transpose(0, 2, 1)):
        raise RuntimeError(f"Weyl basis matrices are not symmetric at n={n}")
    residual = np.sqrt(np.sum(_bianchi_pairings(mats, n) ** 2, axis=1) / 6.0)
    if np.max(residual) >= BIANCHI_TOL:
        raise RuntimeError(
            f"Weyl basis violates the first Bianchi identity at n={n} "
            f"(residual {np.max(residual):.3e})"
        )
    mats.setflags(write=False)
    return mats


# Basis operators per batch of Q(W0, b_i) in hessian_matrix; at n = 12 each
# of a batch's 16 x n^2 x n^2 arrays takes 2.5 MiB.
_HESSIAN_CHUNK = 16


def hessian_matrix(w0) -> np.ndarray:
    """Matrix of W -> Q(W0, W) on weyl_basis(n): entries <Q(W0, b_i), b_j>.

    W0 must be a unit Weyl operator; n is its dimension.
    """
    mat, n = _as_mat(w0)
    if abs(np.linalg.norm(mat) - 1.0) > 1e-8:
        raise ArgumentError("hessian base point must have unit norm")
    if np.max(np.abs(ricci(mat))) > 1e-8:
        raise ArgumentError("hessian base point must be a Weyl operator")
    stack = weyl_basis(n)
    q = np.empty_like(stack)
    for lo in range(0, len(stack), _HESSIAN_CHUNK):
        q[lo:lo + _HESSIAN_CHUNK] = _q_mat(mat, stack[lo:lo + _HESSIAN_CHUNK], n)
    h = q.reshape(len(q), -1) @ stack.reshape(len(stack), -1).T
    return 0.5 * (h + h.T)


@dataclass(frozen=True)
class SpectralReport:
    """Clustered spectrum of a symmetric matrix."""

    clusters: tuple[tuple[float, int], ...]
    size: int

    def __post_init__(self):
        if sum(m for _, m in self.clusters) != self.size:
            raise ArgumentError("cluster multiplicities must sum to the matrix size")

    def multiplicity_of(self, value: float) -> int:
        """Multiplicity of the first cluster within 1e-6 of value, or 0."""
        for val, mult in self.clusters:
            if abs(val - value) <= 1e-6:
                return mult
        return 0


def eigen_report(mat: np.ndarray, cluster_tol: float = 1e-8) -> SpectralReport:
    """Eigenvalues of a symmetric matrix, grouped into clusters.

    Values are scaled by the spectral radius before gap detection, so
    cluster_tol is a relative tolerance; clusters are reported as
    (mean eigenvalue, multiplicity), sorted descending.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ArgumentError("eigen_report expects a square matrix")
    if np.max(np.abs(mat - mat.T), initial=0.0) >= 1e-10:
        raise ArgumentError("eigen_report expects a symmetric matrix")
    vals = np.linalg.eigvalsh(mat)[::-1]
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    # a cluster ends where the scaled spectrum drops by more than cluster_tol
    gaps = np.flatnonzero(-np.diff(vals / scale) > cluster_tol) + 1
    cuts = [0, *gaps.tolist(), len(vals)]
    clusters = tuple(
        (float(np.mean(vals[lo:hi])), hi - lo) for lo, hi in zip(cuts, cuts[1:])
    )
    return SpectralReport(clusters=clusters, size=len(vals))


def _orbit_commutators(mat: np.ndarray, n: int) -> np.ndarray:
    """The stack [ad_a, W] over every basis bivector b_a, shape (N, N, N)."""
    # ad[a] is the matrix of ad_{b_a}: ad[a, g, b] = tensor[a, b, g]
    ad = structure_constants(n).transpose(0, 2, 1)
    return ad @ mat - mat @ ad


def orbit_tangent_dim(w) -> int:
    """Dimension of the rotation orbit through W: rank of {[ad_v, W]}."""
    mat, n = _as_mat(w)
    comms = _orbit_commutators(mat, n)
    return _rank(comms.reshape(comms.shape[0], -1), 1e-8)


# --- dimension tables --------------------------------------------------------

def triple_wedge_matrix(k: int) -> np.ndarray:
    """Matrix of the map Lambda^2(R^k) (x) R^k -> Lambda^3(R^k), v^w (x) x -> v^w^x.

    Domain coordinates are (pair rank, vector index), column = rank * k + m.
    """
    if k < 3:
        raise ArgumentError(f"need k >= 3, got {k}")
    rank, _ = _pair_table(k)
    # row t is the e_a^e_b^e_c coefficient, for the t-th triple a < b < c:
    # e_a^e_b (x) e_c and e_b^e_c (x) e_a map to +1 times it, e_a^e_c (x) e_b to -1
    a, b, c = np.array(list(itertools.combinations(range(k), 3)), dtype=np.intp).T
    t = np.arange(len(a))
    phi = np.zeros((len(a), wedge_count(k) * k))
    phi[t, rank[a, b] * k + c] = 1.0
    phi[t, rank[a, c] * k + b] = -1.0
    phi[t, rank[b, c] * k + a] = 1.0
    return phi


@functools.lru_cache(maxsize=None)
def x_space_basis(k: int) -> np.ndarray:
    """Orthonormal basis of X_k = ker(Phi) minus the embedded copy of R^k.

    The copy x -> sum_i (x ^ e_i) (x) e_i already lies in ker(Phi), so X_k is
    the null space of Phi stacked on that embedding.
    """
    embed = _vertex_embedding(k).transpose(0, 2, 1).reshape(k, -1)
    basis = _null_space(np.vstack([triple_wedge_matrix(k), embed]), x_dim(k), f"X_{k}")
    basis.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=None)
def _x4_split_dims() -> tuple[int, int]:
    """Dimensions of X_4 intersected with sp(1)+- (x) R^4."""
    x4 = x_space_basis(4)
    sp = sp1_basis(4)
    out = []
    for sign in "+-":
        sub = np.kron(np.stack([sp[x + sign] for x in "ijk"]) / np.sqrt(2), np.eye(4))
        out.append(len(x4) + len(sub) - _rank(np.vstack([x4, sub]), 1e-10))
    return tuple(out)


@dataclass(frozen=True)
class DimensionTable:
    """Predicted dimensions of the invariant decomposition of the Weyl space."""

    n: int
    k: int
    l: int
    weyl_total: int
    blocks: dict
    pin_blocks: dict | None


def decomposition_dims(n: int, k: int) -> DimensionTable:
    """Dimension table of the Weyl space under SO(k) x SO(n-k).

    The ten generic blocks always sum to dim Weyl_n; for k = 4 the finer
    splitting (self-dual/anti-self-dual forms, X_4 = X_4+ + X_4-, the
    Pin(2)-invariant pieces) is returned as well.  X-space dimensions are
    verified against the kernel rank of the triple wedge map.
    """
    l = n - k
    if not (3 <= k <= n - 3):
        raise ArgumentError(f"need 3 <= k <= n-3, got k={k}, n={n}")
    # x_space_basis raises unless the kernel dimension matches x_dim
    xk, xl = len(x_space_basis(k)), len(x_space_basis(l))
    sym0 = lambda m: m * (m + 1) // 2 - 1
    blocks = {
        "product_weyl_span": 1,
        "weyl_first": weyl_dim(k),
        "weyl_second": weyl_dim(l),
        "vector_pair": k * l,
        "traceless_sym_first": sym0(k),
        "traceless_sym_second": sym0(l),
        "traceless_sym_pair": sym0(k) * sym0(l),
        "biform_pair": math.comb(k, 2) * math.comb(l, 2),
        "x_first_vectors": xk * l,
        "x_second_vectors": xl * k,
    }
    total = weyl_dim(n)
    if sum(blocks.values()) != total:
        raise RuntimeError(f"decomposition blocks sum to {sum(blocks.values())}, "
                           f"not dim Weyl_{n} = {total}")
    pin_blocks = None
    if k == 4:
        plus, minus = _x4_split_dims()
        if (plus, minus) != (8, 8):
            raise RuntimeError(f"X_4 split is ({plus}, {minus}), expected (8, 8)")
        pin_blocks = {
            "cp2_weyl_span": 1,
            "weyl4_selfdual": 5,
            "weyl4_antiselfdual_1": 2,
            "weyl4_antiselfdual_2": 2,
            "product_weyl_span": 1,
            "weyl_second": weyl_dim(l),
            "vector_pair": 4 * l,
            "sym_pin_1": 3,
            "sym_pin_2": 6,
            "traceless_sym_second": sym0(l),
            "sym_pin_1_pair": 3 * sym0(l),
            "sym_pin_2_pair": 6 * sym0(l),
            "selfdual_biform_pair": 3 * math.comb(l, 2),
            "x4_plus_vectors": plus * l,
            "x4_minus_1_vectors": 4 * l,
            "x4_minus_2_vectors": 4 * l,
            "x_second_vectors": xl * 4,
            "antiselfdual_1_biform_pair": math.comb(l, 2),
            "antiselfdual_2_biform_pair": 2 * math.comb(l, 2),
        }
        if sum(pin_blocks.values()) != total:
            raise RuntimeError("refined decomposition does not sum to dim Weyl_n")
    return DimensionTable(
        n=n, k=k, l=l, weyl_total=total, blocks=blocks, pin_blocks=pin_blocks
    )
