"""Normalized gradient flow of the cubic potential on the unit sphere of Weyl
operators, and the closed-form neighborhood bound used to separate critical
values.

The flow integrates W' = Q(W) - <Q(W), W> W with RK4, renormalizes after
every step and removes the rounding drift off the Weyl space, so trajectories
stay on the unit sphere of Weyl operators and the potential is
non-decreasing for step sizes below the stability bound.  flow_run keeps
sampled (t, P, residual) rows as numbers in the state history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature_core import (
    CurvatureOperator,
    _drop_ricci,
    _pairing,
    _q_mat,
    _unit_weyl,
    q_map,
)
from .errors import ArgumentError, need_int

__all__ = [
    "FlowState",
    "flow_state",
    "flow_step",
    "flow_run",
    "fixed_point_residual",
    "neighborhood_potential_bound",
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


def _evaluated(op: CurvatureOperator, t: float, history: tuple = ()) -> FlowState:
    """The state at op: Q(W) once, and P = <Q(W), W>."""
    q = q_map(op).mat
    return FlowState(op, t, _pairing(q, op.mat), q, history)


def flow_state(w) -> FlowState:
    """Wrap a unit Weyl operator as an initial flow state at t = 0."""
    op = w if isinstance(w, CurvatureOperator) else CurvatureOperator(w)
    return _evaluated(op, 0.0)


def _tangent(q: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Q(W) - <Q(W), W> W, the sphere-projected gradient at W."""
    return q - _pairing(q, mat) * mat


def _stage(mat: np.ndarray, h: float, k: np.ndarray, n: int) -> np.ndarray:
    """_tangent at x = mat + h k, computed in place in the fresh Q(x)."""
    x = h * k
    x += mat
    q = _q_mat(x, x, n)
    q -= _pairing(q, x) * x
    return q


def fixed_point_residual(w) -> float:
    """Distance from being an eigenvector of Q: ||Q(W) - P(W) W|| for unit Weyl W."""
    op = _unit_weyl(w, "fixed-point candidate")
    return float(np.linalg.norm(_tangent(q_map(op).mat, op.mat)))


def flow_step(state: FlowState, dt: float) -> FlowState:
    """One RK4 step of the sphere-projected potential gradient, renormalized
    and cleared of Ricci drift."""
    dt = float(dt)
    if not 0.0 < dt < math.inf:
        raise ArgumentError(f"step size must be finite and positive, got {dt}")
    mat, n = state.w.mat, state.w.dim
    # the stages are unvalidated intermediates; the new state is checked once
    k1 = _tangent(state.q, mat)
    k2 = _stage(mat, 0.5 * dt, k1, n)
    k3 = _stage(mat, 0.5 * dt, k2, n)
    k4 = _stage(mat, dt, k3, n)
    # new = mat + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right in the
    # buffers of k2 and k3
    new = k2
    new *= 2.0
    new += k1
    k3 *= 2.0
    new += k3
    new += k4
    new *= dt / 6.0
    new += mat
    new /= math.sqrt(_pairing(new, new))
    # near a product point, rounding drift off the Weyl space grows along the
    # flow, so each new state loses its scalar and Ricci parts; a Ricci part
    # beyond drift stays, and the state's own check refuses it
    _drop_ricci(new, n)
    return _evaluated(CurvatureOperator(new), state.t + dt, state.history)


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
    steps = need_int(steps, 0, "steps")
    sample_every = need_int(sample_every, 0, "sample_every")
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


def neighborhood_potential_bound(gamma: float, lib=math) -> float:
    """Bound on sqrt(2/3) P at angle gamma from the distinguished point.

    The maximum over alpha <= 1/3 of the cubic profile bound
    cos^3 + 3 alpha cos sin^2 + sqrt(1 - 2 alpha) (1 + alpha) sin^3 at gamma.
    The maximum sits at alpha = 1/3 throughout 0 < gamma <= pi/6, where the
    bound collapses to cos(gamma) + 4/(3 sqrt 3) sin^3(gamma).
    """
    if not 0.0 < gamma <= math.pi / 6.0 + 1e-12:
        raise ArgumentError(f"angle must lie in (0, pi/6], got {gamma}")
    coeff = 4.0 / (3.0 * lib.sqrt(3.0))
    return lib.cos(gamma) + coeff * lib.sin(gamma) ** 3
