"""
Second-variation spectrum at the distinguished critical point
=============================================================

Restrict the second derivative of the potential to the sphere of unit Weyl
operators and read off its eigenvalue ladder and multiplicities.
"""

import math

import numpy as np

from curvlab.model_spaces import sphere_product, theta, w_cp2
from curvlab.curvature_core import decompose, q_map
from curvlab.spectral_decomp import (
    decomposition_dims,
    eigen_report,
    hessian_matrix,
    orbit_tangent_dim,
    weyl_dim,
)

# the Weyl space grows fast with dimension: (n-3) C(n+2,3) / 2
for n in range(5, 13):
    print(f"dim Weyl_{n} = {weyl_dim(n)}")

# assemble the Hessian at W_CP2 for n = 10 and cluster its spectrum;
# every eigenvalue is sqrt(3/2) times a rational from a fixed ladder
n = 10
rep = eigen_report(hessian_matrix(w_cp2(n)))
scale = math.sqrt(1.5)
print(f"\nHessian clusters at W_CP2, n={n}:")
for mean, mult in rep.clusters:
    # the zero cluster's mean is rounding noise of either sign; + 0.0 turns -0.0 into 0.0
    mean = round(mean, 12) + 0.0
    print(f"  {mean:+.12f}  (x{mult})  = sqrt(3/2) * {mean / scale:+.6f}")

# the 1/2-eigenspace is exactly the tangent space of the rotation orbit
print("orbit tangent dimension:", orbit_tangent_dim(w_cp2(n)))
print("1/2-cluster multiplicity:", rep.multiplicity_of(scale * 0.5))

# sphere-product Weyl operators are eigenvectors of the quadratic map with
# eigenvalue theta, visible as a Rayleigh quotient here
k, l = 5, 5
w = decompose(sphere_product(k, l)).weyl.mat
w = w / np.linalg.norm(w)
print(f"\n<Q(W), W> for S^{k} x S^{l}: {float(np.sum(q_map(w).mat * w)):.12f}")
print(f"theta({k}, {l})          : {theta(k, l):.12f}")

# the block bookkeeping behind the multiplicities, for one subgroup choice
table = decomposition_dims(10, 4)
print(f"\nblocks of Weyl_10 under SO(4) x SO(6), total {table.weyl_total}:")
for label, dim in table.blocks.items():
    print(f"  {label:24s} {dim}")
