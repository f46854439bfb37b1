"""
Model curvature operators and their potentials
==============================================

Build the catalogue of model operators, split them into irreducible parts,
and evaluate the cubic potential that drives everything else.
"""

import numpy as np

from curvlab.curvature_core import decompose, potential, potential_normalized
from curvlab.model_spaces import (
    cpn,
    intermediate_range,
    sphere,
    sphere_product,
    theta,
    theta_threshold,
    w_cp2,
)

# the round sphere is the identity on the wedge space: pure scalar curvature
round_sphere = sphere(6)
d = decompose(round_sphere)
print("S^6 parts:", np.linalg.norm(d.scalar_part), np.linalg.norm(d.ricci_part),
      d.weyl.norm())

# a product of spheres is Einstein exactly when k-1 == l-1; its Weyl part
# never vanishes, and its normalized potential has the closed form theta
for k, l in ((2, 3), (3, 3), (4, 5), (5, 6)):
    w = decompose(sphere_product(k, l)).weyl.mat
    print(
        f"S^{k} x S^{l}: normalized potential "
        f"{potential_normalized(w):.12f} vs theta {theta(k, l):.12f}"
    )

# the complex projective plane seen inside so(2m): three eigenvalues only
op = cpn(2)
vals = sorted(set(np.round(np.linalg.eigvalsh(np.asarray(op.mat)), 10)))
print("CP^2 eigenvalues:", vals)

# its unit Weyl operator is the distinguished critical point: P = sqrt(3/2)
for n in (5, 8, 11):
    print(f"P(W_CP2) in dim {n}: {potential(w_cp2(n)):.15f}")

# the threshold theta_n separates the two candidate second-place models;
# between the two values only the balanced products survive
for n in (10, 11):
    rng = intermediate_range(n)
    print(
        f"dim {n}: threshold {theta_threshold(n):.12f}, "
        f"intermediate range [{rng.lo:.6f}, {rng.hi:.6f}]"
    )
