import numpy as np
import pytest

from curvlab.lie_basis import adjoint_rotation


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
