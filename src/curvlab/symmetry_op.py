"""Second symmetry derivative of a curvature operator and its lower bounds.

For a curvature operator R and a bivector v, the operator D^2_v R =
[R, ad_{Rv}] measures the failure of R to be locally symmetric in the
direction v.  This module evaluates it as a CurvatureOperator, so the
container's constructor checks its symmetry and Bianchi identity.  It also
holds the closed forms for the one-parameter family lambda/(n-1) Id +
cos(phi) W_CP2, and the scalar lower-bound function G(lambda, psi, phi)
together with the sine-power integrals and sphere volumes that feed its
integral prefactor.

All scalar helpers accept a `lib` argument (math by default) so they can run
under mpmath when extra precision is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature_core import CurvatureOperator, _as_mat
from .errors import ArgumentError, need_int
from .lie_basis import ad_matrix, wedge_count

__all__ = [
    "d2",
    "d2_family_norm",
    "g_lower_bound",
    "sin_power_integral",
    "sphere_volume",
]


def _direction(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (wedge_count(n),):
        raise ArgumentError("direction length does not match the operator dimension")
    return v


def d2(r, v) -> CurvatureOperator:
    """D^2_v R = [R, ad_{Rv}], the second symmetry derivative of R at v."""
    mat, n = _as_mat(r)
    ad = ad_matrix(mat @ _direction(v, n))
    return CurvatureOperator(mat @ ad - ad @ mat)


def d2_family_norm(lam: float, n: int, phi: float, pair) -> float:
    """Closed form for || D^2_v (lambda/(n-1) Id + cos(phi) W_CP2) ||.

    v = e_i ^ e_j is the basis bivector of the index pair (i, j).  The
    result is zero on e1^e2, e3^e4 and on all pairs outside the first four
    coordinates, sqrt(2) cos(phi) |cos(phi)/2 - 3 lam_bar/sqrt(6)| on the
    remaining so(4) pairs, and cos(phi) lam_bar on the mixed pairs.
    """
    if not 0 < lam < math.inf:
        raise ArgumentError(f"lambda must be positive and finite, got {lam}")
    if not 0 <= phi < math.pi / 2:
        raise ArgumentError(f"phi must lie in [0, pi/2), got {phi}")
    n = need_int(n, 5)
    i, j = (need_int(index, 1, "pair index") for index in pair)
    if not i < j <= n:
        raise ArgumentError(f"invalid index pair ({i}, {j})")
    lam_bar = lam / (n - 1)
    if j <= 4:
        if (i, j) in ((1, 2), (3, 4)):
            return 0.0
        return math.sqrt(2) * math.cos(phi) * abs(
            math.cos(phi) / 2 - 3 * lam_bar / math.sqrt(6)
        )
    if i <= 4:
        return math.cos(phi) * lam_bar
    return 0.0


def g_lower_bound(lam, psi, phi, n: int, lib=math):
    """Scalar lower bound G(lambda, psi, phi) for the symmetry derivative mass.

    Evaluates, with lam_bar = lambda/(n-1),

        sqrt(2 cos^4(psi) cos^2(phi) (cos(phi)/2 - 3 lam_bar/sqrt(6))^2
             + cos^2(psi) sin^2(psi) cos^2(phi) lam_bar^2)
        - 1/2 sin(phi) (sqrt(lambda n/(2(n-1)) + cos^2(phi)) + sin(phi))

    exactly as displayed; the subtracted term's "lambda n" is suspected to be
    a misprint for "lambda^2 n".  The value goes negative for large phi; it
    is returned unclamped.
    """
    if not 0 < lam < math.inf:
        raise ArgumentError(f"lambda must be positive and finite, got {lam}")
    if not 0 <= phi < math.inf:
        raise ArgumentError(f"phi must be nonnegative and finite, got {phi}")
    if not 0 < psi <= lib.pi / 4:
        raise ArgumentError(f"psi must lie in (0, pi/4], got {psi}")
    n = need_int(n, 5)
    lam_bar = lam / (n - 1)
    cphi, sphi = lib.cos(phi), lib.sin(phi)
    cpsi, spsi = lib.cos(psi), lib.sin(psi)
    gain = lib.sqrt(
        2 * cpsi**4 * cphi**2 * (cphi / 2 - 3 * lam_bar / lib.sqrt(6)) ** 2
        + cpsi**2 * spsi**2 * cphi**2 * lam_bar**2
    )
    loss = sphi / 2 * (lib.sqrt(lam * n / (2 * (n - 1)) + cphi**2) + sphi)
    return gain - loss


def sin_power_integral(m: int, psi, lib=math):
    """Integral of sin^m over [0, psi], by the exact reduction formula."""
    m = need_int(m, 0, "m")
    if not 0 <= psi <= lib.pi:
        raise ArgumentError(f"psi must lie in [0, pi], got {psi}")
    cos_psi, sin_psi = lib.cos(psi), lib.sin(psi)
    prev, cur = psi, 1 - cos_psi  # S_0, S_1
    if m == 0:
        return prev
    for k in range(2, m + 1):
        prev, cur = cur, ((k - 1) * prev - cos_psi * sin_psi ** (k - 1)) / k
    return cur


def sphere_volume(m: int, lib=math):
    """Volume of the round unit m-sphere: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    m = need_int(m, 0, "m")
    try:
        return 2 * lib.pi ** ((m + 1) / 2) / lib.gamma((m + 1) / 2)
    except OverflowError:
        raise ArgumentError(f"sphere volume at m = {m} needs Gamma beyond the "
                            "float range; use lib=mpmath") from None
