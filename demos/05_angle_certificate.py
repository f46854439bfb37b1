"""
Angle-margin certificate for the distinguished critical orbit
=============================================================

Assemble the pinching certificate in dimension 11 twice -- once from
recomputed constants, once from the catalogued ones -- and compare what
each chain can actually certify.
"""

import math

from curvlab.certificate import alpha0_certificate
from curvlab.model_spaces import theta_threshold
from curvlab.potential_flow import neighborhood_potential_bound

for mode in ("recomputed", "quoted"):
    cert = alpha0_certificate(11, mode=mode)
    print(f"mode = {mode}")
    print(f"  lambda0        = {cert.lambda0:.12f}")
    print(f"  kappa0         = {cert.kappa0:.12f}")
    print(f"  beta           = {cert.beta:.12f}")
    print(f"  G              = {cert.G_quoted if mode == 'quoted' else cert.G_recomputed:.9f}")
    print(f"  C              = {cert.C_quoted if mode == 'quoted' else cert.C_recomputed:.4f}")
    print(f"  r = 2G/C       = {cert.r:.6e}")
    print(f"  lhs bound      = {cert.lhs_bound:.6e}")
    print(f"  rhs bound      = {cert.rhs_bound:.6e}")
    print(f"  angle margin   = {cert.alpha0_margin:.6e}")
    print(f"  verdict        = {cert.verdict}")
    for flag in cert.flags:
        print(f"  flag: {flag}")
    print()

# the certified alpha0 is beta plus the angle margin the lhs can afford
cert = alpha0_certificate(11)
print(f"alpha0 = beta + margin = {cert.alpha0:.15f} (beta = {cert.beta:.15f})")

# the supporting neighborhood estimate: on the sphere of angular radius
# gamma around the critical orbit the potential is at most bound * sqrt(3/2),
# strictly below the product threshold theta_n -- so a flow line that starts
# inside the ball with potential above theta_n can never reach its boundary
for n, gamma in ((11, 0.13), (10, 0.26)):
    bound = neighborhood_potential_bound(gamma)
    gate = math.sqrt(2 / 3) * theta_threshold(n)
    print(
        f"n={n}, gamma={gamma}: profile bound {bound:.6f}"
        f" < theta_{n}/sqrt(3/2) = {gate:.6f}: {bound < gate}"
    )
