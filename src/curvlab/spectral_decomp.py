"""Weyl-space bases, the Hessian-type operator at a critical point, and the
dimension bookkeeping of the invariant decompositions.

Every subspace and rank here comes from two private helpers: _null_space
(one full SVD of a stack of matrices, each checked against the expected
dimension) and _rank (singular values only).  weyl_basis(n) is the
null space of the first Bianchi and zero Ricci constraints, in orthonormal
coordinates of the symmetric N x N matrices: x_aa = R_aa and
x_ab = sqrt(2) R_ab for a < b, so that the Frobenius norm of R is the
Euclidean norm of x.  It is graded by the sign flips of the n coordinates:
the entry R_ab,cd has the character bit(a)^bit(b)^bit(c)^bit(d), every
constraint row lies in one character, and so the basis is one small null
space per character class, of dimension N - n, n - 3 or 2 for 0, 2 or 4 set
bits.  The classes of one constraint shape are solved as one stack, in one
batched SVD, or in one SVD of one matrix where every class of the stack
carries it: the C(n, 4) quadruple classes all carry the Bianchi row
(1, -1, 1).  The WeylBasis holds those stacks, each a C-contiguous array
of its own: three at n = 12 for 562 classes.  It is built for n in
BASIS_DIMS (5..20).  hessian_matrix represents W -> Q(W0, W) on that
basis as diagonal blocks: Q(W0, .) couples two classes only through the
characters of W0's nonzero entries.  Each block is V G V^T in the
coordinates of its own classes: G pairs the coordinate matrices, each of
its entries a few entries of W0 read through the so(n) bracket table, and
V holds the class vectors.
Q(W0, b), N x N basis matrices and eigenpairs of W0 are never formed, so the
cost grows with the sum over blocks of their squared coordinate counts, not
with the O(n^6) sharp kernel or with rank(W0).  The blocks come back as
HessianBlocks: one stack per block shape, and each class's place in them.
eigen_report clusters a symmetric spectrum, given as one matrix or as
those stacks, with one eigvalsh per stack; orbit_tangent_dim measures
rotation orbits, with the commutators [ad_a, W] read from the same bracket
table (signed rows and columns of W, no matrix product and no dense
structure constants); decomposition_dims reproduces every dimension count
of the SO(k) x SO(l) and Pin(2)-refined splittings, including the X_k
spaces: the kernel of the triple wedge map on Lambda^2(R^k) (x) R^k, less
the embedded copy of R^k.
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
    _bianchi_flat,
    _ricci_gather,
    _symmetric,
    _unit_weyl,
)
from .errors import ArgumentError, need_int
from .lie_basis import (
    _bracket_table,
    _pair_table,
    sp1_basis,
    wedge_count,
)

__all__ = [
    "BASIS_DIMS",
    "HessianBlocks",
    "SpectralReport",
    "WeylBasis",
    "weyl_dim",
    "x_dim",
    "weyl_basis",
    "hessian_matrix",
    "eigen_report",
    "orbit_tangent_dim",
    "triple_wedge_matrix",
    "DimensionTable",
    "decomposition_dims",
]


def weyl_dim(n: int) -> int:
    """Dimension of the Weyl space: (n-3)/2 * C(n+2, 3)."""
    n = need_int(n, 3)
    return (n - 3) * math.comb(n + 2, 3) // 2


def x_dim(k: int) -> int:
    """Dimension of X_k: k C(k,2) - C(k,3) - k = k(k-2)(k+2)/3."""
    k = need_int(k, 3, "k")
    return k * (k - 2) * (k + 2) // 3


def _null_space(rows: np.ndarray, expected: int, what) -> np.ndarray:
    """Orthonormal bases, as rows, of the null spaces of a (c, r, k) stack of
    matrices: the (c, expected, k) stack of them.

    One SVD for the whole stack; each rank counts singular values above
    1e-10 times that matrix's largest.  The result is a C-contiguous copy,
    so it holds no (c, k, k) right factor alive.  Raises RuntimeError unless
    every null space has dimension expected, naming item i of the stack
    what(i).
    """
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    dims = rows.shape[-1] - np.sum(s > 1e-10 * s[:, :1], axis=-1)
    wrong = np.flatnonzero(dims != expected)
    if wrong.size:
        i = int(wrong[0])
        raise RuntimeError(f"{what(i)} has dimension {dims[i]}, not {expected}")
    return vt[:, rows.shape[-1] - expected:, :].copy()


def _rank(mat: np.ndarray, rtol: float) -> int:
    """Number of singular values above rtol times the largest; 0 for a zero matrix."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


#: the dimensions at which weyl_basis builds the Weyl basis
BASIS_DIMS = range(5, 21)
#: the relative drop in the scaled spectrum that ends an eigen_report cluster
_CLUSTER_TOL = 1e-8


def _pair_characters(n: int) -> np.ndarray:
    """Sign character bit(a) ^ bit(b) of each wedge-basis vector e_a ^ e_b.

    Flipping the signs of the coordinates in a set F multiplies the entry
    R_AB by -1 to the number of bits that the XOR of A's and B's characters
    shares with F; that XOR is the entry's character.
    """
    rank, _ = _pair_table(n)
    a, b = np.triu_indices(n, 1)
    out = np.zeros(wedge_count(n), dtype=np.int64)
    out[rank[a, b]] = (1 << a) ^ (1 << b)
    return out


def _class_dims(n: int) -> dict:
    """Weyl dimension of a character class by its number of set bits.

    0: the N diagonal entries less the n traces Ric_aa; 2 ({a, b}): the n - 2
    entries R_ac,bc less Ric_ab; 4 ({i, j, k, l}): the three entries of the
    quadruple less its Bianchi row.
    """
    return {0: wedge_count(n) - n, 2: n - 3, 4: 2}


@dataclass(frozen=True, eq=False)
class WeylBasis:
    """Orthonormal Weyl basis at n = dim, as stacks of its sign-character classes.

    Class i has character characters[i], ascending, and the next ncoord[i]
    coordinates t, class after class: entry (rows[t], cols[t]), rows <= cols,
    of the wedge-basis matrix, with x_AA = R_AA, x_AB = sqrt(2) R_AB (A < B).
    Its vectors are the rows of stacks[stack[i]][slot[i]], in one (c, d, k)
    stack per class shape.  All arrays are read-only.
    """

    dim: int
    characters: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    ncoord: np.ndarray
    stacks: tuple[np.ndarray, ...]
    stack: np.ndarray
    slot: np.ndarray


@functools.lru_cache(maxsize=None)
def weyl_basis(n: int) -> WeylBasis:
    """Orthonormal Weyl basis: the null space of the Bianchi and Ricci constraints.

    Returns a WeylBasis with one class per sign character of 0, 2 or 4 set
    bits; together they hold weyl_dim(n) vectors.

    In the coordinates x_aa = R_aa, x_ab = sqrt(2) R_ab (a < b) of the
    symmetric N x N matrices, every quadruple i<j<k<l gives the Bianchi row
    R_ij,kl - R_ik,jl + R_il,jk and every pair a <= b the Ricci row Ric_ab.
    Each row lies in one character (bit(i)^bit(j)^bit(k)^bit(l) and
    bit(a)^bit(b)), so the constraint matrix is block-diagonal by
    character, and each class is the null space of its own rows.  The
    classes of one constraint shape (grouped by _group_rows) share one
    batched SVD, sign fix and residual check; where they all carry the same
    constraint matrix, as the C(n, 4) quadruple classes do, the SVD, sign
    fix and check run on that one matrix and its vectors are repeated over
    the classes.  Deterministic: each vector's sign makes its
    largest-magnitude entry positive.  Every array is C-contiguous and owns
    its memory.
    """
    n = need_int(n, 0)
    if n not in BASIS_DIMS:
        raise ArgumentError(f"weyl_basis supports {min(BASIS_DIMS)} "
                            f"<= n <= {max(BASIS_DIMS)}, got {n}")
    N = wedge_count(n)
    take, sign = _ricci_gather(n)
    char = _pair_characters(n)
    iu, ju = np.triu_indices(N)
    coord = np.zeros((N, N), dtype=np.intp)
    coord[iu, ju] = coord[ju, iu] = np.arange(len(iu))
    coord_char = char[iu] ^ char[ju]
    # The constraint rows as (row, coordinate, value) entries, Bianchi rows
    # first.  All three entries of a Bianchi row lie off the diagonal, so the
    # identity reads (x_ij,kl - x_ik,jl + x_il,jk) / sqrt(2) = 0; the rows
    # omit the factor, as the Ricci rows omit theirs (1 for a = b,
    # 1/sqrt(2) off it): Ric_ab = sum_c sign(a, c) sign(b, c) R_ac,bc, read
    # from the Ricci table of curvature_core.ricci.
    bianchi = coord.ravel()[np.stack(_bianchi_flat(n)[:3], axis=1)]
    nquad = len(bianchi)
    a, b = np.triu_indices(n)
    entry_coord = np.concatenate([bianchi.ravel(), coord.ravel()[take[a, b]].ravel()])
    entry_row = np.concatenate([
        np.repeat(np.arange(nquad), 3), nquad + np.repeat(np.arange(len(a)), n)
    ])
    entry_val = np.concatenate([np.tile([1.0, -1.0, 1.0], nquad), sign[a, b].ravel()])
    row_char = np.concatenate([coord_char[bianchi[:, 0]], (1 << a) ^ (1 << b)])
    keep = entry_val != 0
    entry_coord, entry_row, entry_val = entry_coord[keep], entry_row[keep], entry_val[keep]
    if np.any(coord_char[entry_coord] != row_char[entry_row]):
        raise RuntimeError(f"a constraint row mixes sign characters at n={n}")
    # (return_inverse also keeps np.unique off its numpy.ma import)
    chars, coord_class = np.unique(coord_char, return_inverse=True)
    row_class = np.searchsorted(chars, row_char)
    entry_class = row_class[entry_row]
    ncoord = np.bincount(coord_class)
    nrow = np.bincount(row_class, minlength=len(chars))
    table = _class_dims(n)
    bits = np.sum((chars[:, None] >> np.arange(n)) & 1, axis=1)
    dims = np.choose(bits // 2, [table[0], table[2], table[4]])
    # the classes of one shape (rows, coordinates, Weyl dimension) form one
    # stack, in which a class sits at its slot; a constraint entry lands at
    # its row's and its coordinate's places within their class
    shapes, shape = _group_rows(np.stack([nrow, ncoord, dims], axis=1))
    slot = _offsets(np.ones_like(shape), shape)
    row_at = _offsets(np.ones_like(row_class), row_class)
    coord_at = _offsets(np.ones_like(coord_class), coord_class)
    stacks = []
    for s, (r, k, dim) in enumerate(shapes.tolist()):
        members = np.flatnonzero(shape == s)
        here = shape[entry_class] == s
        constraints = np.zeros((len(members), r, k))
        constraints[slot[entry_class[here]], row_at[entry_row[here]],
                    coord_at[entry_coord[here]]] = entry_val[here]
        # classes that all carry one constraint matrix (every quadruple's is
        # its Bianchi row (1, -1, 1)) share one solve, repeated below
        if np.all(constraints == constraints[:1]):
            constraints = constraints[:1]
        vectors = _null_space(constraints, dim,
                              lambda i: f"Weyl class {chars[members[i]]:#b} at n={n}")
        lead = np.take_along_axis(
            vectors, np.argmax(np.abs(vectors), axis=2)[:, :, None], axis=2
        )
        vectors *= np.where(lead < 0, -1.0, 1.0)
        residual = np.max(np.abs(constraints @ vectors.transpose(0, 2, 1)), axis=(1, 2))
        worst = int(np.argmax(residual))
        if not residual[worst] < BIANCHI_TOL:
            raise RuntimeError(f"Weyl class {chars[members[worst]]:#b} violates its "
                               f"constraints at n={n} (residual {residual[worst]:.3e})")
        if len(vectors) < len(members):
            vectors = np.repeat(vectors, len(members), axis=0)
        vectors.setflags(write=False)
        stacks.append(vectors)
    # each class's coordinates, ascending, class after class
    order = np.argsort(coord_class, kind="stable")
    rows, cols = iu[order], ju[order]
    for arr in (chars, rows, cols, ncoord, shape, slot):
        arr.setflags(write=False)
    return WeylBasis(n, chars, rows, cols, ncoord, tuple(stacks), shape, slot)


def _block_keys(keys: np.ndarray, mat: np.ndarray, n: int) -> np.ndarray:
    """For each class character in keys, its block's key in the Hessian at mat.

    Q(W0, .) maps character chi into the characters chi ^ psi, psi those of
    W0's nonzero entries, since every term of an entry of another character
    holds an exactly zero factor.  So classes chi and chi' share a block when
    chi ^ chi' lies in the GF(2) span of the psi: the blocks are its cosets,
    and the key is the least character of the coset.
    """
    char = _pair_characters(n)
    rows, cols = np.nonzero(mat)
    pivots = []  # a basis of the span with distinct leading bits, descending
    for psi in sorted(set((char[rows] ^ char[cols]).tolist())):
        for p in pivots:
            psi = min(psi, psi ^ p)
        if psi:
            pivots = sorted(pivots + [psi], reverse=True)
    # reduced by every pivot, each character becomes its coset's representative
    for p in pivots:
        keys = np.minimum(keys, keys ^ p)
    return keys


def _group_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(table, axis=0, return_inverse=True) for a nonempty 2-D table
    of small nonnegative integers: its distinct rows, ascending, and each
    row's place among them.

    Each row is one integer key (np.ravel_multi_index, first column most
    significant), so the rows sort as one 1-D array, in the same order.
    """
    bounds = tuple(table.max(axis=0) + 1)
    keys, inverse = np.unique(np.ravel_multi_index(table.T, bounds), return_inverse=True)
    rows = np.stack(np.unravel_index(keys, bounds), axis=1).astype(table.dtype)
    return rows, inverse


def _offsets(sizes: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Start of each item within its group, when the items of a group lie
    one after another in index order, each taking its size."""
    order = np.argsort(group, kind="stable")
    before = np.cumsum(sizes[order]) - sizes[order]
    keys = group[order]
    out = np.empty_like(before)
    out[order] = before - before[np.searchsorted(keys, keys)]
    return out


def _coordinate_pairing(mat, a, b, take, sign) -> np.ndarray:
    """The stack G[p, i, j] = <Q(W0, E_t), E_t'> of hessian_matrix, for the
    coordinates t = (a[p, i], b[p, i]) and t' = (a[p, j], b[p, j]) of each
    block p of a stack; mat is W0.

    E_t's entries (a, b), (b, a) against E_t''s (c, d), (d, c) give four
    delta terms, d_bc W0[d, a], d_ad W0[c, b], d_bd W0[c, a] and
    d_ac W0[d, b], and two bracket terms that each occur twice,
    - sign[b, c] sign[d, a] W0[take[b, c], take[d, a]] and
    - sign[b, d] sign[c, a] W0[take[b, d], take[c, a]].  Each term is
    gathered only where its delta holds or both its signs are nonzero (the
    bracket table has 2(n - 2) nonzeros per row), through flat indices
    row * N + column into W0, sign and take, each formed once per term; the
    terms are added in that order, so G holds, bit for bit, the values of
    the sum of the dense terms.
    """
    k, N = a.shape[1], len(mat)
    g = np.zeros((len(a), k, k))
    out = g.reshape(-1)
    # every gather reads a flat N * N table at row * N + column
    mat, take, sign = mat.ravel(), take.ravel(), sign.ravel()
    bracket = sign != 0

    def pairs(mask):
        # the flat positions in g where mask holds, and there the positions
        # of t and t' in a.ravel() and b.ravel()
        at = np.flatnonzero(mask)
        t, j = np.divmod(at, k)
        return at, t, t - t % k + j

    for x, y, u, w in ((b, a, b, a), (a, b, a, b), (b, b, a, a), (a, a, b, b)):
        at, t, s = pairs(x[:, :, None] == y[:, None, :])
        out[at] += mat.take(u.ravel().take(s) * N + w.ravel().take(t))
    for x, y, u, w in ((b, a, b, a), (b, b, a, a)):
        at, t, s = pairs(bracket.take(x[:, :, None] * N + y[:, None, :])
                         & bracket.take(u[:, None, :] * N + w[:, :, None]))
        xy = x.ravel().take(t) * N + y.ravel().take(s)
        uw = u.ravel().take(s) * N + w.ravel().take(t)
        out[at] -= sign.take(xy) * sign.take(uw) * mat.take(take.take(xy) * N + take.take(uw))
    return g


@dataclass(frozen=True, eq=False)
class HessianBlocks:
    """Matrix of W -> Q(W0, W) on weyl_basis(dim), as stacks of diagonal blocks.

    stacks holds one (c, m, m) stack per block shape.  Class i of the basis
    lies in block slot[i] of stacks[stack[i]]; the classes of a block take
    its rows in basis order, as many as each has vectors.  Every entry
    between two blocks is exactly zero.
    """

    dim: int
    stacks: tuple[np.ndarray, ...]
    stack: np.ndarray
    slot: np.ndarray


def hessian_matrix(w0) -> HessianBlocks:
    """Matrix of W -> Q(W0, W) on weyl_basis(n), as its diagonal blocks.

    Each block holds the entries <Q(W0, b_i), b_j> between the basis vectors
    of one coupled set of classes (see _block_keys).  W0 must be a unit Weyl
    operator; n is its dimension.

    Each block is V G V^T over the coordinates of its classes: V holds the
    class vectors from the basis stacks, laid out block-diagonally, and
    G[t, t'] = <Q(W0, E_t), E_t'> pairs the coordinate matrices E_t of
    t = (A, B), A <= B: e_A e_A^T, or (e_A e_B^T + e_B e_A^T) / sqrt(2) if A < B.
    With the bracket formula of sharp_via_brackets and
    ad_v[x, y] = sign[x, y] v[take[x, y]] (lie_basis._bracket_table), any
    W0 = sum_k lam_k u_k u_k^T gives for symmetric X, Y

        <Q(W0, X), Y> = tr(X Y W0) - 1/2 sum_k lam_k <ad_k X, (ad_k Y)^T>
                      = sum X[a, b] Y[c, d] (d_bc W0[d, a]
                          - 1/2 sign[b, c] sign[d, a] W0[take[b, c], take[d, a]])

    over the entries (a, b) of X and (c, d) of Y, so G is gathered from W0
    entry by entry: no eigenpair, no Q(W0, b) and no N x N basis matrix.
    Blocks of one shape (vectors, coordinates) are assembled together, in
    two batched matrix products, and returned as one stack: w_cp2 has six
    shapes at n = 8..16, for example 294 blocks of (2, 3) and one of
    (56, 69) at n = 12.
    sharp_via_brackets and q_map are the oracles the tests check it against.
    """
    op = _unit_weyl(w0, "hessian base point")
    mat, n = op.mat, op.dim
    basis = weyl_basis(n)
    take, sign = _bracket_table(n)
    _, block = np.unique(_block_keys(basis.characters, mat, n), return_inverse=True)
    nvec = np.array([v.shape[1] for v in basis.stacks])[basis.stack]
    ncoord, rows, cols = basis.ncoord, basis.rows, basis.cols
    # the blocks of one shape (vectors, coordinates) form one stack, in which
    # a block sits at its slot; in its block, a class's vectors start at row
    # vec_at and its coordinates at column coord_at
    sizes = [np.bincount(block, count).astype(np.intp) for count in (nvec, ncoord)]
    shapes, shape = _group_rows(np.stack(sizes, axis=1))
    slot = _offsets(np.ones_like(shape), shape)
    vec_at, coord_at = _offsets(nvec, block), _offsets(ncoord, block)
    # a stack of c blocks of shape (m, k) pairs a (c, k) array of their
    # coordinates and holds their vectors in a (c, m, k) array; the
    # coordinate arrays of all stacks lie one after another in one flat
    # buffer, stack s from coord_start[s]
    count = np.bincount(shape)
    m, k = shapes.T
    coord_end = np.cumsum(count * k)
    coord_start = coord_end - count * k
    # every coordinate t = (rows[t], cols[t]) of every class, with its stack,
    # slot and column, and its place in the coordinate buffer
    first = np.cumsum(ncoord) - ncoord
    cls = np.repeat(np.arange(len(ncoord)), ncoord)
    t_stack, t_slot = shape[block[cls]], slot[block[cls]]
    t_col = coord_at[cls] + np.arange(len(cls)) - first[cls]
    t_at = coord_start[t_stack] + t_slot * k[t_stack] + t_col
    # every entry of every class vector, classes in stack-then-slot order as
    # the basis stacks hold them, with its stack and its place in that
    # stack's flat (c, m, k) array; E_t holds (A, B) and (B, A), and a
    # diagonal t (A, A) twice, so each is weighted by 1/sqrt(2), or 1/2 on
    # the diagonal
    by_stack = np.lexsort((basis.slot, basis.stack))
    size = (nvec * ncoord)[by_stack]
    owner = np.repeat(by_stack, size)
    at = np.arange(len(owner)) - np.repeat(np.cumsum(size) - size, size)
    e_row = vec_at[owner] + at // ncoord[owner]
    e_coord = first[owner] + at % ncoord[owner]
    e_stack = t_stack[e_coord]
    e_at = (t_slot[e_coord] * m[e_stack] + e_row) * k[e_stack] + t_col[e_coord]
    weight = np.where(rows == cols, 0.5, np.sqrt(0.5))
    values = np.concatenate([v.ravel() for v in basis.stacks]) * weight[e_coord]
    a_all, b_all = np.empty_like(rows), np.empty_like(cols)
    a_all[t_at], b_all[t_at] = rows, cols
    stacks = []
    for s, (lo, hi) in enumerate(zip(coord_start, coord_end)):
        a, b = a_all[lo:hi].reshape(-1, k[s]), b_all[lo:hi].reshape(-1, k[s])
        g = _coordinate_pairing(mat, a, b, take, sign)
        v = np.zeros(count[s] * m[s] * k[s])
        here = e_stack == s
        v[e_at[here]] = values[here]
        v = v.reshape(-1, m[s], k[s])
        # g and v go before the symmetrization, which then needs one copy of h
        h = v @ g
        del g
        h = h @ v.transpose(0, 2, 1)
        del v
        h += h.transpose(0, 2, 1)
        h *= 0.5
        stacks.append(h)
    return HessianBlocks(n, tuple(stacks), shape[block], slot[block])


@dataclass(frozen=True)
class SpectralReport:
    """Clustered spectrum of a symmetric matrix."""

    clusters: tuple[tuple[float, int], ...]

    def multiplicity_of(self, value: float) -> int:
        """Multiplicity of the first cluster within 1e-6 of value, or 0."""
        for val, mult in self.clusters:
            if abs(val - value) <= 1e-6:
                return mult
        return 0


def eigen_report(mat) -> SpectralReport:
    """Eigenvalues of a symmetric matrix, grouped into clusters.

    mat may also be the HessianBlocks that hessian_matrix returns: the
    spectrum is then that of its block-diagonal matrix, taken with one
    eigvalsh per stack.
    Values are scaled by the spectral radius before gap detection, so
    _CLUSTER_TOL is a relative tolerance; clusters are reported as
    (mean eigenvalue, multiplicity), sorted descending.
    """
    stacks = mat.stacks if isinstance(mat, HessianBlocks) else ([mat],)
    spectra = [
        np.linalg.eigvalsh(_symmetric(s, "eigen_report block", stack=True)).ravel()
        for s in stacks
    ]
    vals = np.sort(np.concatenate(spectra))[::-1]
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    # a cluster ends where the scaled spectrum drops by more than _CLUSTER_TOL
    gaps = np.flatnonzero(-np.diff(vals / scale) > _CLUSTER_TOL) + 1
    cuts = [0, *gaps.tolist(), len(vals)]
    clusters = tuple(
        (float(np.mean(vals[lo:hi])), hi - lo) for lo, hi in zip(cuts, cuts[1:])
    )
    return SpectralReport(clusters)


def _orbit_commutators(mat: np.ndarray, n: int) -> np.ndarray:
    """The stack [ad_a, W] over every basis bivector b_a, shape (N, N, N).

    Read from the bracket table, with no matrix product: ad_a[x, y] is
    sign[x, y] where take[x, y] = a, and for each (a, x) at most one y has
    that, so row x of ad_a W is sign[x, y] W[y] and, ad_a being
    antisymmetric, column x of -W ad_a is sign[x, y] W[:, y].  Each entry
    of the stack is the sum of at most these two terms, as in
    ad_a W - W ad_a, so the two agree bit for bit.
    """
    take, sign = _bracket_table(n)
    x, y = np.nonzero(sign)
    a, s = take[x, y], sign[x, y][:, None]
    N = len(sign)
    out = np.zeros((N, N, N))
    # adding 0.0 turns -1 * 0.0 into the +0.0 that the matrix products give
    out[a, x] = s * mat[y] + 0.0
    out[a, :, x] += s * mat.T[y] + 0.0
    return out


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
    k = need_int(k, 3, "k")
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


def _x_space_rows(k: int) -> np.ndarray:
    """Phi stacked on the embedding x -> sum_i (x ^ e_i) (x) e_i of R^k.

    The copy of R^k already lies in ker(Phi), so X_k is the null space of
    these rows.
    """
    # row x holds the coordinates of (e_x ^ e_i) (x) e_i at column rank * k + i
    rank, sign = _pair_table(k)
    x, i = np.indices((k, k))
    embed = np.zeros((k, wedge_count(k) * k))
    embed[x, rank * k + i] = sign
    return np.vstack([triple_wedge_matrix(k), embed])


@functools.lru_cache(maxsize=None)
def _x_space_dim(k: int) -> int:
    """dim X_k: the columns of _x_space_rows(k) less their rank.

    Singular values only, so no basis of X_k and no square factor of side
    k C(k, 2) is formed (a full SVD would form one, 2312 x 2312 at k = 17).
    RuntimeError unless the dimension is x_dim(k).
    """
    rows = _x_space_rows(k)
    dim = rows.shape[1] - _rank(rows, 1e-10)
    if dim != x_dim(k):
        raise RuntimeError(f"X_{k} has dimension {dim}, not {x_dim(k)}")
    return dim


@functools.lru_cache(maxsize=None)
def _x4_split_dims() -> tuple[int, int]:
    """Dimensions of X_4 intersected with sp(1)+- (x) R^4.

    The 12 rows of sub are orthonormal, so the intersection is the kernel of
    the X_4 constraints _x_space_rows(4) on their span: 12 less one rank.
    """
    rows = _x_space_rows(4)
    sp = sp1_basis(4)
    out = []
    for sign in "+-":
        sub = np.kron(np.stack([sp[x + sign] for x in "ijk"]) / np.sqrt(2), np.eye(4))
        out.append(len(sub) - _rank(rows @ sub.T, 1e-10))
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
    n, k = need_int(n, 0), need_int(k, 0, "k")
    l = n - k
    if not (3 <= k <= n - 3):
        raise ArgumentError(f"need 3 <= k <= n-3, got k={k}, n={n}")
    xk, xl = _x_space_dim(k), _x_space_dim(l)
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
