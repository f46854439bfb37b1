"""The verification suite: invariant checks and table reproductions.

Every check is a pure function of (dimension, seeded generator, tolerance)
returning one CheckRecord.  Checks draw randomness only from a generator
seeded by crc32(check name) xor suite seed, so the suite is deterministic
under any execution order.

Status policy: mismatches against catalogued values whose recomputed chain
is internally consistent are "flag" (warn, exit 0); violated mathematical
invariants are "fail" (exit 1).
"""

from __future__ import annotations

import math
import zlib
from time import perf_counter

import mpmath
import numpy as np

from .certificate import QUOTED_CONSTANTS, alpha0_certificate, certificate_prefactor
from .curvature_core import (
    bianchi_project,
    bianchi_residual,
    decompose,
    potential_normalized,
    q_map,
    sharp,
    sharp_pure,
    tri,
)
from .errors import ArgumentError
from .lie_basis import adjoint_rotation, wedge_count, wedge_rank
from .model_spaces import cpn, sphere_product, theta, theta_threshold
from .potential_flow import flow_run, flow_state, neighborhood_potential_bound
from .report import CheckRecord, SuiteReport
from .shi_bounds import CATALOGUED_TABLE, shi_constants
from .spectral_decomp import (
    decomposition_dims,
    eigen_report,
    hessian_matrix,
    orbit_tangent_dim,
    weyl_basis,
    weyl_dim,
)
from .symmetry_op import d2, d2_family_norm
from .model_spaces import r_lambda, random_curvature, random_weyl, w_cp2

__all__ = ["DEFAULT_TOLERANCES", "SUPPORTED_DIMS", "run_suite"]

SUPPORTED_DIMS = tuple(range(4, 13))

DEFAULT_TOLERANCES = {
    "bianchi-idempotence": 1e-12,
    "decomposition-orthogonality": 1e-9,
    "bw-identity": 1e-9,
    "sharp-routes": 1e-10,
    "q-equivariance": 1e-9,
    "sharp-equivariance": 1e-9,
    "d2-equivariance": 1e-9,
    "tri-symmetry": 1e-9,
    "product-potential": 1e-10,
    "d2-closed-form": 1e-10,
    "symmetric-space-flatness": 1e-10,
    "cpn-spectrum": 1e-10,
    "weyl-dimension": 0.5,
    "hessian-clusters": 1e-8,
    "shi-table": 0.0,
    "neighborhood-bound": 5e-4,
    "certificate-identity": 1e-12,
    "flow-monotonicity": 1e-12,
}

_SAMPLES = 8
_LADDER = (1.0, 0.5, 1.0 / 3.0, 0.0, -1.0 / 6.0, -0.5, -1.0)
_NEIGHBORHOOD_QUOTES = {11: (0.13, 0.9934), 10: (0.26, 0.9796)}


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _residual_record(name, tag, tol, worst, detail="") -> CheckRecord:
    status = "pass" if worst <= tol else "fail"
    return CheckRecord(
        name=name,
        tag=tag,
        expected=0.0,
        computed=float(worst),
        tolerance=tol,
        status=status,
        detail=detail,
    )


# --- checks, one function per family ----------------------------------------

def _check_bianchi_idempotence(name, n, rng, tol):
    worst = 0.0
    for _ in range(_SAMPLES):
        once = random_curvature(rng, n)
        twice = bianchi_project(once).mat
        worst = max(worst, float(np.max(np.abs(twice - once))), bianchi_residual(once))
    return _residual_record(name, "bianchi-idempotence", tol, worst)


def _check_decomposition_orthogonality(name, n, rng, tol):
    worst = 0.0
    for _ in range(_SAMPLES):
        r = random_curvature(rng, n)
        d = decompose(r)
        parts = (d.scalar_part, d.ricci_part, d.weyl.mat)
        worst = max(worst, float(np.max(np.abs(sum(parts) - r))))
        for i in range(3):
            for j in range(i + 1, 3):
                na, nb = np.linalg.norm(parts[i]), np.linalg.norm(parts[j])
                if na > 1e-12 and nb > 1e-12:
                    inner = abs(float(np.sum(parts[i] * parts[j]))) / (na * nb)
                    worst = max(worst, inner)
    return _residual_record(name, "decomposition-orthogonality", tol, worst)


def _check_bw_identity(name, n, rng, tol):
    worst = 0.0
    eye = np.eye(wedge_count(n))
    for _ in range(_SAMPLES):
        r = random_curvature(rng, n)
        d = decompose(r)
        lhs = r + sharp(r, eye).mat
        rhs = (n - 1) * d.scalar_part + 0.5 * (n - 2) * d.ricci_part
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        w = d.weyl.mat
        worst = max(worst, float(np.max(np.abs(w + sharp(w, eye).mat))))
    return _residual_record(name, "bw-identity", tol, worst)


def _check_sharp_routes(name, n, rng, tol):
    worst = 0.0
    for _ in range(_SAMPLES):
        mat = np.diag(rng.standard_normal(wedge_count(n)))
        worst = max(
            worst, float(np.max(np.abs(sharp_pure(mat).mat - sharp(mat).mat)))
        )
    return _residual_record(name, "sharp-routes", tol, worst)


def _check_q_equivariance(name, n, rng, tol):
    worst = 0.0
    for _ in range(_SAMPLES // 2):
        r = random_curvature(rng, n)
        ad = adjoint_rotation(_random_orthogonal(rng, n))
        lhs = q_map(ad.T @ r @ ad).mat
        worst = max(worst, float(np.max(np.abs(lhs - ad.T @ q_map(r).mat @ ad))))
    return _residual_record(name, "q-equivariance", tol, worst)


def _check_sharp_equivariance(name, n, rng, tol):
    worst = 0.0
    for _ in range(_SAMPLES // 2):
        r = random_curvature(rng, n)
        ad = adjoint_rotation(_random_orthogonal(rng, n))
        lhs = sharp(ad.T @ r @ ad).mat
        worst = max(worst, float(np.max(np.abs(lhs - ad.T @ sharp(r).mat @ ad))))
    return _residual_record(name, "sharp-equivariance", tol, worst)


def _check_d2_equivariance(name, n, rng, tol):
    worst = 0.0
    for _ in range(_SAMPLES // 2):
        r = random_curvature(rng, n)
        g = _random_orthogonal(rng, n)
        ad = adjoint_rotation(g)
        v = rng.standard_normal(wedge_count(n))
        lhs = d2(ad.T @ r @ ad, v).operator
        rhs = ad.T @ d2(r, ad @ v).operator @ ad
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _residual_record(name, "d2-equivariance", tol, worst)


def _check_tri_symmetry(name, n, rng, tol):
    worst = 0.0
    for _ in range(_SAMPLES // 2):
        ops = [random_curvature(rng, n) for _ in range(3)]
        vals = [
            tri(ops[i], ops[j], ops[k])
            for i, j, k in (
                (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
            )
        ]
        worst = max(worst, max(vals) - min(vals))
    return _residual_record(name, "tri-symmetry", tol, worst)


def _check_product_potential(name, n, rng, tol):
    worst = 0.0
    for k in range(2, n // 2 + 1):
        l = n - k
        weyl = decompose(sphere_product(k, l)).weyl.mat
        worst = max(worst, abs(potential_normalized(weyl) - theta(k, l)))
    return _residual_record(name, "product-potential", tol, worst)


def _check_cpn_spectrum(name, n, rng, tol):
    m = n // 2
    rep = eigen_report(np.asarray(cpn(m).mat))
    want = [
        (2.0 * m + 2.0, 1),
        (2.0, m * m - 1),
        (0.0, m * (m - 1)),
    ]
    if [mult for _, mult in rep.clusters] != [mult for _, mult in want]:
        return CheckRecord(
            name=name, tag="cpn-spectrum", expected=str(want),
            computed=str(rep.clusters), tolerance=tol, status="fail",
            detail="multiplicity pattern mismatch",
        )
    worst = max(abs(got[0] - exp[0]) for got, exp in zip(rep.clusters, want))
    return _residual_record(name, "cpn-spectrum", tol, worst)


def _check_weyl_dimension(name, n, rng, tol):
    got = len(weyl_basis(n))
    want = weyl_dim(n)
    detail = f"rank {got}"
    for k in range(3, n - 2):
        total = sum(decomposition_dims(n, k).blocks.values())
        if total != want:
            return CheckRecord(
                name=name, tag="weyl-dimension", expected=want, computed=total,
                tolerance=tol, status="fail",
                detail=f"block sum mismatch at split k={k}",
            )
    return CheckRecord(
        name=name, tag="weyl-dimension", expected=want, computed=got,
        tolerance=tol, status="pass" if got == want else "fail", detail=detail,
    )


def _check_hessian_clusters(name, n, rng, tol):
    basis = weyl_basis(n)
    h = hessian_matrix(w_cp2(n), basis)
    rep = eigen_report(h)
    scale = math.sqrt(1.5)
    want = [scale * v for v in _LADDER]
    if len(rep.clusters) != len(want):
        return CheckRecord(
            name=name, tag="hessian-table", expected=str(want),
            computed=str([c[0] for c in rep.clusters]), tolerance=tol,
            status="fail", detail=f"expected 7 clusters, got {len(rep.clusters)}",
        )
    worst = max(abs(c[0] - w) for c, w in zip(rep.clusters, want))
    mults = [c[1] for c in rep.clusters]
    problems = []
    if sum(mults) != weyl_dim(n):
        problems.append(f"multiplicities sum to {sum(mults)} != {weyl_dim(n)}")
    half = rep.multiplicity_of(scale * 0.5)
    orbit = orbit_tangent_dim(w_cp2(n))
    if half != orbit:
        problems.append(f"1/2-eigenspace {half} != orbit dimension {orbit}")
    status = "pass" if worst <= tol and not problems else "fail"
    return CheckRecord(
        name=name, tag="hessian-table", expected=0.0, computed=float(worst),
        tolerance=tol, status=status,
        detail="; ".join(problems) or f"multiplicities {mults}",
    )


def _check_shi_table(name, n, rng, tol):
    c = shi_constants(n)
    table = CATALOGUED_TABLE[n]
    violations = []
    for label, value, entry in (
        ("C1", c.C1, table[0]), ("C2", c.C2, table[1]), ("C3", c.C3, table[2])
    ):
        if not 0.97 * entry <= value <= entry:
            violations.append(f"{label}={value:.4f} vs table {entry}")
    status = "pass" if not violations else "flag"
    return CheckRecord(
        name=name, tag="shi-table", expected="0.97*table <= formula <= table",
        computed="ok" if not violations else "; ".join(violations),
        tolerance=tol, status=status,
        detail="" if not violations else "table entry inconsistent with formula",
    )


def _check_neighborhood_bound(name, n, rng, tol):
    gamma, quoted = _NEIGHBORHOOD_QUOTES[n]
    bound = neighborhood_potential_bound(n, gamma)
    ceiling = math.sqrt(2.0 / 3.0) * theta_threshold(n)
    if bound >= ceiling:
        return CheckRecord(
            name=name, tag="neighborhood-bound", expected=f"< {ceiling}",
            computed=bound, tolerance=tol, status="fail",
            detail="strict separation from the product threshold lost",
        )
    diff = abs(bound - quoted)
    status = "pass" if diff <= tol else "flag"
    return CheckRecord(
        name=name, tag="neighborhood-bound", expected=quoted, computed=bound,
        tolerance=tol, status=status,
        detail=f"strictly below sqrt(2/3) theta_{n} = {ceiling:.6f}",
    )


def _check_certificate_identity(name, n, rng, tol):
    c = alpha0_certificate(n, "recomputed")
    G, C = c.G_recomputed, c.C_recomputed
    # the closed-form lhs against the uncollapsed bracket at r = 2G/C, in 50 digits
    with mpmath.workdps(50):
        g, cc = mpmath.mpf(G), mpmath.mpf(C)
        r = 2 * g / cc
        bracket = g**2 / 13 - g * cc * r / 14 + cc**2 * r**2 / 60
        direct = certificate_prefactor(n, lib=mpmath) * bracket * r**2
        rel = float(abs(c.lhs_bound - direct) / direct)
    rel = max(rel, abs(c.r - 2.0 * G / C) / (2.0 * G / C))
    return _residual_record(
        name, "certificate-chain", tol, rel, detail=f"verdict {c.verdict}"
    )


def _check_certificate_quoted(name, n, rng, tol):
    c = alpha0_certificate(n, "quoted")
    return CheckRecord(
        name=name, tag="certificate-chain", expected="catalogued constants",
        computed=c.verdict, tolerance=tol, status="flag",
        detail=" | ".join(c.flags),
    )


def _check_flow_monotonicity(name, n, rng, tol):
    state = flow_state(random_weyl(rng, n))
    state = flow_run(state, steps=60, sample_every=1)
    values = [row[1] for row in state.history]
    worst = max(
        (prev - curr for prev, curr in zip(values, values[1:])), default=0.0
    )
    return _residual_record(name, "flow-monotonicity", tol, max(worst, 0.0))


def _check_d2_closed_form(name, n, rng, tol):
    worst = 0.0
    pairs = [(1, 2), (1, 3), (3, 4), (2, min(5, n)), (5, n) if n > 5 else (1, 4)]
    for _ in range(6):
        lam = float(rng.uniform(0.5, 2.0))
        phi = float(rng.uniform(0.0, math.pi / 2 - 1e-6))
        mat = r_lambda(lam, n, phi).mat
        for i, j in pairs:
            v = np.zeros(wedge_count(n))
            v[wedge_rank(i, j, n)] = 1.0
            direct = d2(mat, v).norm
            closed = d2_family_norm(lam, n, phi, (i, j))
            worst = max(worst, abs(direct - closed))
    return _residual_record(name, "d2-closed-form", tol, worst)


def _check_symmetric_space(name, n, rng, tol):
    k = n // 2
    mat = sphere_product(k, n - k).mat
    worst = 0.0
    for idx in range(wedge_count(n)):
        v = np.zeros(wedge_count(n))
        v[idx] = 1.0
        worst = max(worst, d2(mat, v).norm)
    return _residual_record(name, "symmetric-space-flatness", tol, worst)


_REGISTRY = (
    # family name, check, applicability predicate over n
    ("bianchi-idempotence", _check_bianchi_idempotence, lambda n: True),
    ("decomposition-orthogonality", _check_decomposition_orthogonality, lambda n: True),
    ("bw-identity", _check_bw_identity, lambda n: True),
    ("sharp-routes", _check_sharp_routes, lambda n: True),
    ("q-equivariance", _check_q_equivariance, lambda n: True),
    ("sharp-equivariance", _check_sharp_equivariance, lambda n: True),
    ("d2-equivariance", _check_d2_equivariance, lambda n: True),
    ("tri-symmetry", _check_tri_symmetry, lambda n: True),
    ("product-potential", _check_product_potential, lambda n: True),
    ("d2-closed-form", _check_d2_closed_form, lambda n: n >= 5),
    ("symmetric-space-flatness", _check_symmetric_space, lambda n: True),
    ("cpn-spectrum", _check_cpn_spectrum, lambda n: n in (4, 6, 8)),
    ("weyl-dimension", _check_weyl_dimension, lambda n: n >= 5),
    ("hessian-clusters", _check_hessian_clusters, lambda n: n in (10, 11)),
    ("shi-table", _check_shi_table, lambda n: n in CATALOGUED_TABLE),
    ("neighborhood-bound", _check_neighborhood_bound, lambda n: n in (10, 11)),
    ("certificate-identity", _check_certificate_identity, lambda n: n in (10, 11)),
    ("certificate-quoted", _check_certificate_quoted,
     lambda n: n in QUOTED_CONSTANTS),
    ("flow-monotonicity", _check_flow_monotonicity, lambda n: True),
)

_TOL_BY_FAMILY = dict(DEFAULT_TOLERANCES)
_TOL_BY_FAMILY["certificate-quoted"] = 0.0


def _record_for(family, check, n, seed, tol):
    name = f"{family}[n={n}]"
    rng = np.random.default_rng(zlib.crc32(name.encode()) ^ (seed & 0xFFFFFFFF))
    try:
        return check(name, n, rng, tol)
    except Exception as exc:  # surface broken checks as failures, not crashes
        return CheckRecord(
            name=name, tag="plumbing", expected="no exception",
            computed=type(exc).__name__, tolerance=tol, status="fail",
            detail=str(exc),
        )


def run_suite(
    dims=(4, 5, 6, 7, 8, 9, 10, 11),
    seed: int = 0,
    tolerances: dict | None = None,
) -> SuiteReport:
    """Run every applicable check for the requested dimensions.

    Deterministic given (dims, seed, tolerances): each check owns a generator
    seeded from its name, and records are sorted by name.
    """
    dims = tuple(int(n) for n in dims)
    for n in dims:
        if n not in SUPPORTED_DIMS:
            raise ArgumentError(f"dimension {n} outside supported range 4..12")
    if len(set(dims)) != len(dims):
        raise ArgumentError("duplicate dimensions in the request")
    tols = dict(_TOL_BY_FAMILY)
    for key, value in (tolerances or {}).items():
        if key not in tols:
            raise ArgumentError(f"unknown tolerance name {key!r}")
        tols[key] = float(value)

    start = perf_counter()
    records = [
        _record_for(family, check, n, seed, tols[family])
        for family, check, applies in _REGISTRY
        for n in sorted(dims)
        if applies(n)
    ]
    records.sort(key=lambda record: record.name)
    return SuiteReport(
        seed=seed,
        dims=tuple(sorted(dims)),
        records=tuple(records),
        runtime_seconds=perf_counter() - start,
    )
