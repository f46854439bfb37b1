"""Normalized gradient flow of the cubic potential on the unit sphere of Weyl
operators, the one-parameter profile toward the distinguished critical point,
and the closed-form neighborhood bounds used to separate critical values.

The flow integrates W' = Q(W) - <Q(W), W> W with RK4 and renormalizes after
every step, so trajectories stay on the unit sphere and the potential is
non-decreasing for step sizes below the stability bound.  flow_run keeps
sampled (t, P, residual) rows as numbers in the state history.  The profile
f(phi) = cos^3(phi) + 3 cos(phi) sin^2(phi) alpha + sin^3(phi) gamma
describes the potential along great circles from the distinguished point
toward an admissible direction W (orthogonal to the point and its rotation
orbit), with alpha = sqrt(2/3) <Q(W), W0> and gamma = sqrt(2/3) P(W).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature_core import (
    CurvatureOperator,
    _as_mat,
    _q_mat,
    _unit_weyl,
    q_map,
)
from .errors import ArgumentError, DomainError, UnsupportedDimensionError
from .model_spaces import w_cp2
from .spectral_decomp import _orbit_commutators

__all__ = [
    "FlowState",
    "ProfileCoefficients",
    "flow_state",
    "flow_step",
    "flow_run",
    "fixed_point_residual",
    "admissibility_defect",
    "admissible_part",
    "profile_coefficients",
    "f_profile",
    "gamma_bound",
    "neighborhood_potential_bound",
    "neighborhood_deficit",
]

@dataclass(frozen=True)
class FlowState:
    """A point on the unit sphere of Weyl operators, with flow time and value.

    q is Q(W) as a read-only matrix, so that the flow evaluates it once per
    state; flow_state and flow_step set it.  A state that replaces w must
    replace q too.
    """

    w: CurvatureOperator
    t: float
    potential: float
    q: np.ndarray = field(compare=False, repr=False)
    history: tuple = ()

    def __post_init__(self):
        _unit_weyl(self.w, "flow state")


def _evaluated(op: CurvatureOperator, **changes) -> dict:
    """Fields w, q and potential of a state at op: Q(W) once, P = <Q(W), W>."""
    q = q_map(op).mat
    return dict(changes, w=op, q=q, potential=float((q * op.mat).sum()))


def flow_state(w) -> FlowState:
    """Wrap a unit Weyl operator as an initial flow state at t = 0."""
    op = w if isinstance(w, CurvatureOperator) else CurvatureOperator(w)
    return FlowState(**_evaluated(op, t=0.0))


def _tangent(q: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Q(W) - <Q(W), W> W, the sphere-projected gradient at W."""
    return q - float((q * mat).sum()) * mat


def _field(mat: np.ndarray, n: int) -> np.ndarray:
    return _tangent(_q_mat(mat, mat, n), mat)


def fixed_point_residual(w) -> float:
    """Distance from being an eigenvector of Q: ||Q(W) - P(W) W|| for unit Weyl W."""
    op = _unit_weyl(w, "fixed-point candidate")
    return float(np.linalg.norm(_tangent(q_map(op).mat, op.mat)))


def flow_step(state: FlowState, dt: float) -> FlowState:
    """One RK4 step of the sphere-projected potential gradient, renormalized."""
    if dt <= 0:
        raise ArgumentError(f"step size must be positive, got {dt}")
    mat, n = state.w.mat, state.w.dim
    # the stages are unvalidated intermediates; the new state is checked once
    k1 = _tangent(state.q, mat)
    k2 = _field(mat + 0.5 * dt * k1, n)
    k3 = _field(mat + 0.5 * dt * k2, n)
    k4 = _field(mat + dt * k3, n)
    new = mat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    new /= np.linalg.norm(new)
    op = CurvatureOperator(new)
    return replace(state, **_evaluated(op, t=state.t + dt))


def flow_run(
    state: FlowState,
    steps: int,
    dt: float | None = None,
    sample_every: int = 0,
) -> FlowState:
    """Iterate flow_step; dt defaults to 1/(10 ||Q(W)||), refreshed each step.

    When sample_every > 0, rows (t, P, ||Q(W) - P W||) are appended to the
    state history at that stride (and at the final step).
    """
    if steps < 0:
        raise ArgumentError("steps must be non-negative")
    if sample_every < 0:
        raise ArgumentError(f"sample_every must be non-negative, got {sample_every}")
    history = list(state.history)
    for i in range(steps):
        step = dt
        if step is None:
            step = 1.0 / (10.0 * max(np.linalg.norm(state.q), 1e-12))
        state = flow_step(state, step)
        if sample_every and (i % sample_every == 0 or i == steps - 1):
            residual = float(np.linalg.norm(_tangent(state.q, state.w.mat)))
            history.append((state.t, state.potential, residual))
    return replace(state, history=tuple(history))


# --- profile toward the distinguished critical point -------------------------

@functools.lru_cache(maxsize=None)
def _excluded_span(n: int) -> np.ndarray:
    """Orthonormal rows spanning R W0 + orbit tangent at W0."""
    w0 = w_cp2(n).mat
    comms = _orbit_commutators(w0, n)
    rows = np.vstack([w0.ravel()[None, :], comms.reshape(comms.shape[0], -1)])
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > 1e-8 * s[0]))
    span = vt[:rank]
    span.setflags(write=False)
    return span


def admissibility_defect(w) -> float:
    """Norm of the component of unit Weyl W inside the excluded span at its
    dimension."""
    op = _unit_weyl(w, "profile direction")
    return float(np.linalg.norm(_excluded_span(op.dim) @ op.mat.ravel()))


def admissible_part(w) -> np.ndarray:
    """W minus its component in R W0 + orbit tangent, as a raw matrix."""
    mat, n = _as_mat(w)
    span = _excluded_span(n)
    flat = mat.ravel() - span.T @ (span @ mat.ravel())
    return flat.reshape(mat.shape)


@dataclass(frozen=True)
class ProfileCoefficients:
    """Cubic profile coefficients of an admissible direction."""

    alpha: float
    gamma: float


def profile_coefficients(w) -> ProfileCoefficients:
    """alpha = sqrt(2/3) <Q(W), W0>, gamma = sqrt(2/3) P(W) for unit Weyl W."""
    op = _unit_weyl(w, "profile direction")
    mat, n = op.mat, op.dim
    q = q_map(op).mat
    scale = math.sqrt(2.0 / 3.0)
    return ProfileCoefficients(
        alpha=scale * float(np.sum(q * w_cp2(n).mat)),
        gamma=scale * float(np.sum(q * mat)),
    )


def f_profile(w, phi: float) -> float:
    """Normalized potential along cos(phi) W0 + sin(phi) W for admissible W.

    Returns cos^3(phi) + 3 cos(phi) sin^2(phi) alpha + sin^3(phi) gamma.
    W must be a unit Weyl operator orthogonal to R W0 + orbit tangent.
    """
    coeffs = profile_coefficients(w)
    if admissibility_defect(w) > 1e-8:
        raise ArgumentError(
            "profile direction must be orthogonal to the critical point's "
            "span and orbit tangent"
        )
    c, s = math.cos(phi), math.sin(phi)
    return c**3 + 3.0 * c * s**2 * coeffs.alpha + s**3 * coeffs.gamma


def gamma_bound(alpha: float) -> float:
    """Ceiling sqrt(1 - 2 alpha) (1 + alpha) for the cubic profile coefficient."""
    if alpha > 0.5:
        raise DomainError(f"gamma_bound needs alpha <= 1/2, got {alpha}")
    return math.sqrt(1.0 - 2.0 * alpha) * (1.0 + alpha)


def neighborhood_potential_bound(n: int, gamma: float, lib=math) -> float:
    """max over alpha <= 1/3 of the profile upper bound at angle gamma.

    The maximum sits at alpha = 1/3 throughout 0 < gamma <= pi/6, where the
    bound collapses to cos(gamma) + 4/(3 sqrt 3) sin^3(gamma).
    """
    if n < 5:
        raise UnsupportedDimensionError(f"need n >= 5, got {n}")
    if not 0.0 < gamma <= math.pi / 6.0 + 1e-12:
        raise ArgumentError(f"angle must lie in (0, pi/6], got {gamma}")
    coeff = 4.0 / (3.0 * lib.sqrt(3.0))
    return lib.cos(gamma) + coeff * lib.sin(gamma) ** 3


def neighborhood_deficit(gamma: float) -> float:
    """sqrt(3/2) (1 - bound(gamma)), evaluated in high precision.

    At gamma near 1e-6 the deficit lives at the 1e-13 scale where plain
    doubles cancel badly, so the subtraction is done at 50 digits.
    """
    import mpmath

    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        bound = mpmath.cos(g) + 4 / (3 * mpmath.sqrt(3)) * mpmath.sin(g) ** 3
        return float(mpmath.sqrt(mpmath.mpf(3) / 2) * (1 - bound))
