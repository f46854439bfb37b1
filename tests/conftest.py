import numpy as np
import pytest

from curvlab.lie_basis import adjoint_rotation, wedge_count
from curvlab.spectral_decomp import weyl_basis


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # fix signs so the distribution is Haar rather than QR-convention skewed
    return q * np.sign(np.diag(r))


def rotate_operator(g: np.ndarray, r) -> np.ndarray:
    """Rotation action (g.R)(v ^ w, x ^ y) = R(gv ^ gw, gx ^ gy), as a raw matrix."""
    ad = adjoint_rotation(g)
    return ad.T @ np.asarray(r) @ ad


def class_vector_counts(basis) -> np.ndarray:
    """The number of vectors of each class of basis = weyl_basis(n)."""
    return np.array([v.shape[1] for v in basis.stacks])[basis.stack]


def weyl_stack(basis, classes) -> np.ndarray:
    """The basis operators of the given classes of basis = weyl_basis(n) as
    one dense (count, N, N) stack, in class order; a class vector holds
    x_AA = R_AA and x_AB = sqrt(2) R_AB."""
    size = wedge_count(basis.dim)
    first = np.cumsum(basis.ncoord) - basis.ncoord
    mats = []
    for i in classes:
        rows = basis.rows[first[i]:first[i] + basis.ncoord[i]]
        cols = basis.cols[first[i]:first[i] + basis.ncoord[i]]
        for vec in basis.stacks[basis.stack[i]][basis.slot[i]]:
            mat = np.zeros((size, size))
            mat[rows, cols] = vec / np.where(rows == cols, 1.0, np.sqrt(2.0))
            mat[cols, rows] = mat[rows, cols]
            mats.append(mat)
    return np.array(mats)


def block_classes(h) -> list:
    """For each block of h = hessian_matrix(w0), in stack-then-slot order,
    the indices of its classes in weyl_basis(h.dim), in the block's own
    order."""
    places = sorted(set(zip(h.stack.tolist(), h.slot.tolist())))
    return [np.flatnonzero((h.stack == s) & (h.slot == i)) for s, i in places]


def block_bases(h) -> list:
    """For each block of h = hessian_matrix(w0), in stack-then-slot order,
    its basis operators as a dense stack, in the block's own order."""
    basis = weyl_basis(h.dim)
    return [weyl_stack(basis, classes) for classes in block_classes(h)]


def blocks_of(h) -> list:
    """The blocks of h = hessian_matrix(w0), in stack-then-slot order."""
    return [block for stack in h.stacks for block in stack]


def block_diagonal(h) -> np.ndarray:
    """The square matrix with the blocks of h = hessian_matrix(w0) on its
    diagonal, in stack-then-slot order."""
    blocks = blocks_of(h)
    size = sum(len(b) for b in blocks)
    out, lo = np.zeros((size, size)), 0
    for b in blocks:
        out[lo:lo + len(b), lo:lo + len(b)] = b
        lo += len(b)
    return out
