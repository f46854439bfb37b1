"""Algebraic curvature operators on so(n).

Subpackage tour:

- lie_basis: wedge coordinates on so(n), kept as two tables (the basis
  order and the bracket), ad matrices, the dense structure constants for
  the sharp oracle.
- curvature_core: the CurvatureOperator container, Bianchi projection,
  Ricci trace and its adjoint (the one route to the scalar and Ricci parts
  of the irreducible decomposition), the sharp product and the quadratic
  map Q.
- model_spaces: curvature operators of spheres, sphere products, complex
  projective spaces, and the one-parameter families built from them.
- symmetry_op: the second symmetry derivative of a curvature operator, a
  CurvatureOperator, and the closed forms / lower bounds attached to it.
- spectral_decomp: Weyl bases, the Hessian-type operator at a critical
  point, eigenvalue clustering, orbit tangent dimensions.
- potential_flow: the normalized gradient flow of the cubic potential and
  the closed-form bound on the potential near the distinguished point.
- shi_bounds: explicit derivative bounds for curvature under bounded
  geometry.
- certificate: the end-to-end numerical certificate comparing the gradient
  term with the pinching defect.
- report / suite / cli: machine-readable reports and the curvlab command.

Every bad argument raises curvlab.ArgumentError, a ValueError; the curvlab
command turns it into exit code 2.  Internal faults raise RuntimeError.
"""

from .errors import ArgumentError

__version__ = "0.1.0"

from . import (  # noqa: E402  (errors must exist before the submodules load)
    certificate,
    curvature_core,
    lie_basis,
    model_spaces,
    potential_flow,
    report,
    shi_bounds,
    spectral_decomp,
    suite,
    symmetry_op,
)

__all__ = [
    "ArgumentError",
    "__version__",
    "certificate",
    "curvature_core",
    "lie_basis",
    "model_spaces",
    "potential_flow",
    "report",
    "shi_bounds",
    "spectral_decomp",
    "suite",
    "symmetry_op",
]
