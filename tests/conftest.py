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


def weyl_stack(classes, size: int) -> np.ndarray:
    """The basis operators of the given Weyl classes as one dense
    (count, size, size) stack, in class order; a class vector holds
    x_AA = R_AA and x_AB = sqrt(2) R_AB."""
    mats = []
    for c in classes:
        for vec in c.vectors:
            mat = np.zeros((size, size))
            mat[c.rows, c.cols] = vec / np.where(c.rows == c.cols, 1.0, np.sqrt(2.0))
            mat[c.cols, c.rows] = mat[c.rows, c.cols]
            mats.append(mat)
    return np.array(mats)


def block_classes(h) -> list:
    """For each block of h = hessian_matrix(w0), in stack-then-slot order,
    its classes of weyl_basis(h.dim), in the block's own order."""
    members = {}
    for c, place in zip(weyl_basis(h.dim), zip(h.stack.tolist(), h.slot.tolist())):
        members.setdefault(place, []).append(c)
    return [members[place] for place in sorted(members)]


def block_bases(h) -> list:
    """For each block of h = hessian_matrix(w0), in stack-then-slot order,
    its basis operators as a dense stack, in the block's own order."""
    return [weyl_stack(classes, wedge_count(h.dim)) for classes in block_classes(h)]


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
