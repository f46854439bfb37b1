"""The explicit angle-margin certificate for dimensions 10 and 11.

The chain being certified: an Einstein operator whose angle to the identity
stays below alpha0 = beta_n + epsilon forces, at points of near-maximal
potential, an averaged derivative mass (lhs) that must exceed the potential
gap on the right-hand side (rhs).  Every quantity is assembled from scratch:

    lambda0 = theta_threshold(n), the balanced-product potential threshold,
    kappa0  = sqrt((7n-4)/(4(n-1)))  (norm ceiling at the critical angle),
    G       = derivative-mass lower bound at (lambda0, pi/4, phi0),
    C       = third-derivative ceiling (2 kappa0 - lambda0)^(5/2) C3(n),
    r       = 2G/C  (the radius where the integrand factor vanishes),
    lhs     = prefactor (G^2/13 - G C r/14 + C^2 r^2/60) r^2
            = 4 prefactor G^4 / (1365 C^2)  (the bracket is G^2/1365 at r),
    rhs(e)  = 8 s (cot(beta_n) - cot(beta_n + e))
            = 8 s (1 + c^2) t / (1 + c t),

with prefactor = 4 vol(S^(n-2)) Sn(n-2, pi/4) / vol(B_1^n), s = sqrt(2(n-1)/n),
c = cot(beta_n) = sqrt(3n/(4n-4)), 1 + c^2 = (7n-4)/(4n-4) and t = tan(e).
The second rhs form subtracts nothing, so float64 holds it, and its inverse
in t gives the angle margin.  Quoted constants are catalogued for n = 11; the
recomputed chain disagrees with some of them, and the certificate's job is to
surface those gaps as flags plus an honest margin, never to hide them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ArgumentError, need_int
from .model_spaces import theta_threshold
from .shi_bounds import shi_constants
from .symmetry_op import g_lower_bound, sin_power_integral, sphere_volume

__all__ = [
    "Certificate",
    "CERTIFIED_DIMS",
    "QUOTED_CONSTANTS",
    "CERT_EPSILON",
    "GAMMA0",
    "kappa0",
    "beta_angle",
    "ball_volume",
    "certificate_prefactor",
    "rhs_bound",
    "lhs_bound",
    "alpha0_margin",
    "alpha0_certificate",
]

# the dimensions whose chain alpha0_certificate assembles
CERTIFIED_DIMS = (10, 11)
# headline constants quoted for the n = 11 chain
QUOTED_CONSTANTS = {
    11: {"G": 0.303088, "C": 1035846.0, "r": 5.86e-7, "lhs": 2.86e-15, "rhs": 2.6e-15},
}
CERT_EPSILON = 1.015e-15
GAMMA0 = 1e-6

_MODES = ("recomputed", "quoted")
_MODE_ALIASES = {"paper-constants": "quoted"}


def kappa0(n: int) -> float:
    """Curvature-norm ceiling sqrt((7n-4)/(4(n-1))) at the critical angle."""
    n = need_int(n, 2)
    return math.sqrt((7.0 * n - 4.0) / (4.0 * (n - 1.0)))


def beta_angle(n: int) -> float:
    """Angle between the distinguished critical operator and the identity."""
    n = need_int(n, 5)
    return math.acos(math.sqrt(3.0 * n / (7.0 * n - 4.0)))


def _cot_beta(n: int) -> tuple[float, float]:
    """c = cot(beta_n) = sqrt(3n/(4n-4)) and the rhs slope 8 s (1 + c^2)."""
    n = need_int(n, 5)
    c = math.sqrt(3.0 * n / (4.0 * n - 4.0))
    return c, 8.0 * math.sqrt(2.0 * (n - 1) / n) * (1.0 + c * c)


def ball_volume(n: int, lib=math):
    """Volume of the unit n-ball: pi^(n/2) / Gamma(n/2 + 1)."""
    n = need_int(n, 0)
    try:
        return lib.pi ** (n / 2.0) / lib.gamma(n / 2.0 + 1.0)
    except OverflowError:
        raise ArgumentError(f"ball volume at n = {n} needs Gamma beyond the "
                            "float range; use lib=mpmath") from None


def certificate_prefactor(n: int, lib=math):
    """4 vol(S^(n-2)) Sn(n-2, pi/4) / vol(B_1^n)."""
    n = need_int(n, 2)
    return (
        4.0
        * sphere_volume(n - 2, lib)
        * sin_power_integral(n - 2, lib.pi / 4, lib)
        / ball_volume(n, lib)
    )


def rhs_bound(n: int, eps: float) -> float:
    """8 s (cot(beta_n) - cot(beta_n + eps)) = 8 s (1 + c^2) t / (1 + c t).

    With s = sqrt(2(n-1)/n), c = cot(beta_n) and t = tan(eps), the second
    form subtracts nothing, so float64 holds it to a few ulps at every eps
    and it is exactly zero at eps = 0.
    """
    if not 0 <= eps < math.inf:
        raise ArgumentError(f"angle margin must be nonnegative and finite, got {eps}")
    c, slope = _cot_beta(n)
    t = math.tan(eps)
    return slope * t / (1.0 + c * t)


def lhs_bound(n: int, G: float, C: float) -> float:
    """Ball average prefactor (G^2/13 - G C r/14 + C^2 r^2/60) r^2 at r = 2G/C.

    There the bracket is G^2 (1/13 - 1/7 + 1/15) = G^2/1365, so the average
    is 4 prefactor G^4 / (1365 C^2).  The closed form avoids the float sum,
    which cancels 99.5% of its terms.
    """
    if not (math.isfinite(G) and 0 < C < math.inf):
        raise ArgumentError(f"need finite G and 0 < C < inf, got G={G}, C={C}")
    return 4.0 * certificate_prefactor(n) * G**4 / (1365.0 * C**2)


def alpha0_margin(n: int, lhs: float) -> float:
    """Largest eps with rhs_bound(n, eps) <= lhs: atan(lhs / (8 s (1 + c^2) - c lhs)).

    The exact inverse of rhs_bound's closed form while the margin is below
    pi/2, that is for lhs < 8 s (1 + c^2) / c (21.7 at n = 11); the chain's
    lhs stays below 1e-13.
    """
    if not math.isfinite(lhs):
        raise ArgumentError(f"lhs must be finite, got {lhs}")
    c, slope = _cot_beta(n)
    if lhs <= 0:
        return 0.0
    return math.atan(lhs / (slope - c * lhs))


@dataclass(frozen=True)
class Certificate:
    """Full arithmetic chain of the angle-margin estimate for one dimension."""

    n: int
    mode: str
    lambda0: float
    kappa0: float
    phi0: float
    alpha0: float
    beta: float
    G_recomputed: float
    G_quoted: float | None
    C_recomputed: float
    C_quoted: float | None
    r: float
    prefactor: float
    lhs_bound: float
    rhs_bound: float
    rhs_bound_no_prefactor: float
    alpha0_margin: float
    verdict: str
    flags: tuple

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float | None" and value is None:
                continue
            if field.type.startswith("float") and not math.isfinite(value):
                raise ArgumentError(f"certificate field {field.name} must be finite")


def alpha0_certificate(n: int, mode: str = "recomputed") -> Certificate:
    """Assemble the certificate chain for n in CERTIFIED_DIMS.

    mode "recomputed" builds every constant from first principles; mode
    "quoted" substitutes the catalogued G and C where they exist.  In both
    modes r = 2G/C, discrepancies against catalogued values are flagged,
    and the verdict states whether the inequality lhs > rhs holds at the
    catalogued angle margin.
    """
    mode = _MODE_ALIASES.get(mode, mode)
    if mode not in _MODES:
        raise ArgumentError(f"unknown certificate mode {mode!r}")
    n = need_int(n, 0)
    if n not in CERTIFIED_DIMS:
        raise ArgumentError(f"certificate supports n in {set(CERTIFIED_DIMS)}, got {n}")
    flags = []
    lam0 = theta_threshold(n)
    kap0 = kappa0(n)
    beta = beta_angle(n)
    g_rec = float(g_lower_bound(lam0, math.pi / 4.0, GAMMA0, n))
    c_rec = (2.0 * kap0 - lam0) ** 2.5 * shi_constants(n).C3
    quoted = QUOTED_CONSTANTS.get(n)
    g_quo = quoted["G"] if quoted else None
    c_quo = quoted["C"] if quoted else None
    if mode == "quoted" and quoted is None:
        flags.append(
            f"no quoted constants catalogued for n={n}; quoted mode falls back "
            "to the recomputed chain"
        )
    use_quoted = mode == "quoted" and quoted is not None
    G = g_quo if use_quoted else g_rec
    C = c_quo if use_quoted else c_rec
    r = 2.0 * G / C
    pref = certificate_prefactor(n)
    lhs = lhs_bound(n, G, C)
    rhs = rhs_bound(n, CERT_EPSILON)
    rhs_bare = rhs / 8.0  # exact: 8 is a power of two
    margin = alpha0_margin(n, lhs)

    if quoted:
        if abs(g_rec - quoted["G"]) > 1e-3 * quoted["G"]:
            flags.append(
                f"quoted G {quoted['G']} not reproduced: recomputed {g_rec:.9f} "
                f"(ratio {g_rec / quoted['G']:.4f})"
            )
        if abs(c_rec - quoted["C"]) > 1e-3 * quoted["C"]:
            flags.append(
                f"quoted C {quoted['C']} not reproduced: recomputed {c_rec:.1f}"
            )
        if abs(r - quoted["r"]) > 1e-3 * quoted["r"]:
            flags.append(
                f"r = 2G/C = {r:.4e} differs from the quoted choice {quoted['r']:.2e}"
            )
        if lhs < 0.5 * quoted["lhs"]:
            flags.append(
                f"quoted lhs {quoted['lhs']:.2e} not reproduced: evaluated "
                f"{lhs:.3e} ({quoted['lhs'] / lhs:.0f}x smaller)"
            )
        if abs(rhs_bare - quoted["rhs"]) <= 0.1 * quoted["rhs"]:
            flags.append(
                f"quoted rhs {quoted['rhs']:.2e} matches the prefactor-free value "
                f"{rhs_bare:.4e}; with the factor 8 it is {rhs:.4e}"
            )

    if not (lhs > 0 and margin > 0):
        verdict = "inconclusive"
    elif lhs > rhs:
        verdict = "holds"
    elif use_quoted:
        verdict = "fails_at_quoted_constants"
    else:
        verdict = "holds_with_recomputed_constants"
        flags.append(
            f"catalogued angle margin {CERT_EPSILON:.3e} is too large for the "
            f"recomputed chain; the inequality holds up to eps = {margin:.3e}"
        )

    return Certificate(
        n=n,
        mode=mode,
        lambda0=lam0,
        kappa0=kap0,
        phi0=GAMMA0,
        alpha0=beta + CERT_EPSILON,
        beta=beta,
        G_recomputed=g_rec,
        G_quoted=g_quo,
        C_recomputed=c_rec,
        C_quoted=c_quo,
        r=r,
        prefactor=pref,
        lhs_bound=lhs,
        rhs_bound=rhs,
        rhs_bound_no_prefactor=rhs_bare,
        alpha0_margin=margin,
        verdict=verdict,
        flags=tuple(flags),
    )
