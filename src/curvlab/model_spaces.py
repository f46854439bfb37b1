"""Constructors for the named curvature operators used throughout the package.

Round spheres, products of round spheres, complex projective spaces, the unit
Weyl operator of CP^2 embedded in higher dimensions and the Einstein family
lambda/(n-1) Id + cos(phi) W_CP2.  Everything returns a validated
CurvatureOperator in the lexicographic wedge basis, except the seeded random
draws random_curvature and random_weyl, which return raw matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature_core import CurvatureOperator, bianchi_project, decompose
from .errors import ArgumentError, need_int
from .lie_basis import adjoint_rotation, sp1_basis, wedge_count

__all__ = [
    "LAMBDA_CRIT",
    "sphere",
    "sphere_product",
    "cpn",
    "w_cp2",
    "r_lambda",
    "theta",
    "theta_threshold",
    "Interval",
    "intermediate_range",
    "random_curvature",
    "random_weyl",
]

#: potential of the embedded CP^2 Weyl operator; the upper end of every
#: intermediate parameter range
LAMBDA_CRIT = math.sqrt(1.5)


def sphere(n: int) -> CurvatureOperator:
    """Curvature operator of the round unit sphere: the identity."""
    return CurvatureOperator(np.eye(wedge_count(need_int(n, 3))))


def sphere_product(k: int, l: int) -> CurvatureOperator:
    """Curvature operator of S^k x S^l with both factors round and Einstein.

    P ^ P + (k-1)/(l-1) P' ^ P', where P projects onto R^k and P' onto R^l:
    diagonal in the wedge basis, 1 on the pairs inside R^k, (k-1)/(l-1) on
    those inside R^l, 0 on the mixed pairs.  Einstein with constant k-1.
    """
    k, l = need_int(k, 0, "k"), need_int(l, 0, "l")
    if k < 2 or l < 2:
        raise ArgumentError(f"both factors need dimension >= 2, got ({k}, {l})")
    i, j = np.triu_indices(k + l, 1)
    diag = np.where(j < k, 1.0, np.where(i >= k, (k - 1) / (l - 1), 0.0))
    return CurvatureOperator(np.diag(diag))


def cpn(n_half: int) -> CurvatureOperator:
    """Curvature operator of CP^{n_half} (real dimension 2 n_half), Fubini-Study.

    Coordinates: e_k is the k-th complex direction and J e_k = e_{n_half+k}
    its image under the complex structure J.  The operator is
    Id + Lambda^2 J + 2 omega omega^T, with omega = sum_k e_k ^ J e_k the
    Kaehler form.
    """
    n_half = need_int(n_half, 1, "n_half")
    n = 2 * n_half
    j = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(n_half))
    iu, ju = np.triu_indices(n, 1)
    omega = j[ju, iu]  # coordinate (a, b) of omega is <J e_a, e_b>
    mat = np.eye(wedge_count(n)) + adjoint_rotation(j) + 2.0 * np.outer(omega, omega)
    return CurvatureOperator(mat)


def w_cp2(n: int) -> CurvatureOperator:
    """Unit Weyl operator of CP^2, zero-padded onto the first four coordinates.

    W = (2 P_i - P_j - P_k)/sqrt(6) where P_x projects onto the unit sp(1)-
    generator x/sqrt(2); an eigenvector of Q with Q(W) = sqrt(3/2) W.
    """
    sp = sp1_basis(need_int(n, 4))
    proj = {x: 0.5 * np.outer(sp[x + "-"], sp[x + "-"]) for x in "ijk"}
    mat = (2.0 * proj["i"] - proj["j"] - proj["k"]) / math.sqrt(6.0)
    return CurvatureOperator(mat)


def r_lambda(lam: float, n: int, phi: float = 0.0) -> CurvatureOperator:
    """Einstein operator lambda/(n-1) Id + cos(phi) W_CP2."""
    if not 0 < lam < math.inf:
        raise ArgumentError(f"lambda must be positive and finite, got {lam}")
    if not 0 <= phi <= math.pi / 2:
        raise ArgumentError(f"phi must lie in [0, pi/2], got {phi}")
    base = w_cp2(n)
    mat = (lam / (n - 1)) * np.eye(base.N) + math.cos(phi) * base.mat
    return CurvatureOperator(mat)


def theta(k: int, l: int) -> float:
    """Normalized potential of the Weyl part of a sphere product:
    sqrt(2 (k-1)/k * (l-1)/l * (n-1)/(n-2)) with n = k + l."""
    k, l = need_int(k, 2, "k"), need_int(l, 2, "l")
    n = k + l
    return math.sqrt(2.0 * (k - 1) / k * (l - 1) / l * (n - 1) / (n - 2))


def theta_threshold(n: int) -> float:
    """theta for the balanced sphere product in dimension n:
    theta(ceil(n/2), floor(n/2)).

    In closed form sqrt(2(n-1)(n-2))/n for even n and
    sqrt(2 (n-1)(n-3)/((n+1)(n-2))) for odd n.
    """
    n = need_int(n, 4)
    return theta((n + 1) // 2, n // 2)


@dataclass(frozen=True)
class Interval:
    """Closed real interval; empty when lo > hi."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def intermediate_range(n: int) -> Interval:
    """Einstein constants between the sphere-product and CP^2 critical values.

    [theta_threshold(n), sqrt(3/2)]; empty from n = 12 on, where the
    sphere-product threshold overtakes the CP^2 one.
    """
    return Interval(theta_threshold(need_int(n, 5)), LAMBDA_CRIT)


# --- seeded random operators --------------------------------------------------

def random_curvature(rng: np.random.Generator, n: int) -> np.ndarray:
    """Bianchi projection of a symmetrized standard normal N x N matrix.

    Draws exactly one (N, N) standard normal array from rng, so seeded callers
    reproduce the same operator.
    """
    s = rng.standard_normal((wedge_count(n),) * 2)
    return bianchi_project(0.5 * (s + s.T)).mat


def random_weyl(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm Weyl part of random_curvature(rng, n), as a raw matrix."""
    w = decompose(random_curvature(rng, n)).weyl.mat
    return w / np.linalg.norm(w)
