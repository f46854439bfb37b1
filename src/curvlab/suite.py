"""The verification suite: invariant checks and table reproductions.

_REGISTRY is the one table of the suite: each row names a family, its result
tag, its default tolerance, the dimensions it runs at, and its check.  The
dims are a container read from their owner (a catalogue, CERTIFIED_DIMS, the
basis range BASIS_DIMS) or, for the basis-free rows, _DIMS = 4..20, the
suite's one ceiling; run_suite accepts exactly their union.  A check is a
pure function of (dimension, seeded generator, tolerance) that returns only
the fields that vary between records (expected, computed, status, detail);
_record_for adds the name, the tag and the tolerance.  A sampled family is a
draw, draw(n, rng) -> the residuals of one sample, and _sampled(count, draw)
builds its check.  Every record whose expected value is 0 reduces all its
residuals through _residual, whose np.max keeps a NaN, so a NaN residual
fails its record instead of reading as 0.
Checks draw randomness only from a generator seeded by crc32(check name) xor
suite seed, so the suite is deterministic under any execution order.

Status policy: mismatches against catalogued values whose recomputed chain
is internally consistent are "flag" (warn, exit 0); violated mathematical
invariants are "fail" (exit 1).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import zlib
from time import perf_counter

import numpy as np

from .certificate import (
    CERTIFIED_DIMS,
    QUOTED_CONSTANTS,
    alpha0_certificate,
    certificate_prefactor,
)
from .curvature_core import (
    CurvatureOperator,
    bianchi_project,
    bianchi_residual,
    decompose,
    potential_normalized,
    q_map,
    sharp,
    sharp_pure,
    tri,
)
from .errors import ArgumentError, need_int
from .lie_basis import _pair_table, adjoint_rotation, wedge_count
from .model_spaces import LAMBDA_CRIT, cpn, sphere_product, theta, theta_threshold
from .potential_flow import flow_run, flow_state, neighborhood_potential_bound
from .report import CheckRecord, SuiteReport
from .shi_bounds import CATALOGUED_TABLE, shi_constants
from .spectral_decomp import (
    BASIS_DIMS,
    decomposition_dims,
    eigen_report,
    hessian_matrix,
    orbit_tangent_dim,
    weyl_basis,
    weyl_dim,
)
from .symmetry_op import d2, d2_family_norm
from .model_spaces import r_lambda, random_curvature, random_weyl, w_cp2

__all__ = ["DEFAULT_DIMS", "DEFAULT_TOLERANCES", "run_suite"]

#: the dimensions of a run that names none
DEFAULT_DIMS = tuple(range(4, 12))
# the dimensions of every check that needs no Weyl basis
_DIMS = range(4, 21)

_SAMPLES = 8
_LADDER = (1.0, 0.5, 1.0 / 3.0, 0.0, -1.0 / 6.0, -0.5, -1.0)
_NEIGHBORHOOD_QUOTES = {11: (0.13, 0.9934), 10: (0.26, 0.9796)}


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _residual(tol, values, detail="") -> dict:
    """Fields of a record whose computed value is the largest of its residuals,
    each expected to be 0.  np.max keeps a NaN, and a NaN is not <= tol, so a
    NaN residual fails the record."""
    worst = float(np.max(values))
    status = "pass" if worst <= tol else "fail"
    return dict(expected=0.0, computed=worst, status=status, detail=detail)


def _sampled(count, draw):
    """The check of a sampled family: count draws from the record's generator,
    in order, their residuals reduced together by _residual."""
    return lambda n, rng, tol: _residual(
        tol, [value for _ in range(count) for value in draw(n, rng)]
    )


# --- draws of the sampled families, then one check function per family ------

def _draw_bianchi_idempotence(n, rng):
    once = random_curvature(rng, n)
    return np.max(np.abs(bianchi_project(once).mat - once)), bianchi_residual(once)


def _draw_decomposition_orthogonality(n, rng):
    r = random_curvature(rng, n)
    d = decompose(r)
    parts = (d.scalar_part, d.ricci_part, d.weyl.mat)
    out = [np.max(np.abs(sum(parts) - r))]
    for a, b in itertools.combinations(parts, 2):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na > 1e-12 and nb > 1e-12:
            out.append(abs(float(np.sum(a * b))) / (na * nb))
    return out


def _draw_bw_identity(n, rng):
    eye = np.eye(wedge_count(n))
    r = random_curvature(rng, n)
    d = decompose(r)
    lhs = r + sharp(r, eye).mat
    rhs = (n - 1) * d.scalar_part + 0.5 * (n - 2) * d.ricci_part
    w = d.weyl.mat
    return np.max(np.abs(lhs - rhs)), np.max(np.abs(w + sharp(w, eye).mat))


def _draw_sharp_routes(n, rng):
    mat = np.diag(rng.standard_normal(wedge_count(n)))
    return (np.max(np.abs(sharp_pure(mat).mat - sharp(mat).mat)),)


def _draw_equivariance(kernel, n, rng):
    """kernel(R) commutes with conjugation by the adjoint action of O(n)."""
    r = random_curvature(rng, n)
    ad = adjoint_rotation(_random_orthogonal(rng, n))
    lhs = kernel(ad.T @ r @ ad).mat
    return (np.max(np.abs(lhs - ad.T @ kernel(r).mat @ ad)),)


def _draw_d2_equivariance(n, rng):
    r = random_curvature(rng, n)
    ad = adjoint_rotation(_random_orthogonal(rng, n))
    v = rng.standard_normal(wedge_count(n))
    lhs = d2(ad.T @ r @ ad, v).mat
    return (np.max(np.abs(lhs - ad.T @ d2(r, ad @ v).mat @ ad)),)


def _draw_tri_symmetry(n, rng):
    # checked once each, not in each of the six orders
    ops = [CurvatureOperator(random_curvature(rng, n)) for _ in range(3)]
    return (np.ptp([tri(*order) for order in itertools.permutations(ops)]),)


def _draw_d2_closed_form(n, rng):
    lam = float(rng.uniform(0.5, 2.0))
    phi = float(rng.uniform(0.0, math.pi / 2 - 1e-6))
    mat = r_lambda(lam, n, phi).mat
    rank, _ = _pair_table(n)
    out = []
    for i, j in ((1, 2), (1, 3), (3, 4), (2, min(5, n)), (5, n) if n > 5 else (1, 4)):
        # the basis bivector e_i ^ e_j, i < j
        v = np.zeros(wedge_count(n))
        v[rank[i - 1, j - 1]] = 1.0
        out.append(abs(d2(mat, v).norm() - d2_family_norm(lam, n, phi, (i, j))))
    return out


def _check_product_potential(n, rng, tol):
    return _residual(tol, [
        abs(potential_normalized(decompose(sphere_product(k, n - k)).weyl)
            - theta(k, n - k))
        for k in range(2, n // 2 + 1)
    ])


def _check_cpn_spectrum(n, rng, tol):
    m = n // 2
    rep = eigen_report(np.asarray(cpn(m).mat))
    want = [
        (2.0 * m + 2.0, 1),
        (2.0, m * m - 1),
        (0.0, m * (m - 1)),
    ]
    if [mult for _, mult in rep.clusters] != [mult for _, mult in want]:
        return dict(
            expected=str(want), computed=str(rep.clusters), status="fail",
            detail="multiplicity pattern mismatch",
        )
    return _residual(tol, [abs(c[0] - w[0]) for c, w in zip(rep.clusters, want)])


def _check_weyl_dimension(n, rng, tol):
    # decomposition_dims raises unless every split's blocks sum to weyl_dim(n)
    for k in range(3, n - 2):
        decomposition_dims(n, k)
    got, want = sum(len(v) * len(v[0]) for v in weyl_basis(n).stacks), weyl_dim(n)
    return dict(
        expected=want, computed=got, status="pass" if got == want else "fail",
        detail=f"rank {got}",
    )


def _ladder_multiplicities(n):
    """The Hessian ladder's multiplicities at W_CP2(n), top rung first."""
    l = n - 4
    rungs = (1, 4 * l + 2, l * (2 * l + 1), 2 * l * (2 * l + 1), 4 * l, 2)
    return [*rungs[:3], weyl_dim(n) - sum(rungs), *rungs[3:]]


def _check_hessian_clusters(n, rng, tol):
    w0 = w_cp2(n)
    rep = eigen_report(hessian_matrix(w0))
    # a wrong number of clusters fails as a wrong list of multiplicities
    mults, closed = [c[1] for c in rep.clusters], _ladder_multiplicities(n)
    problems = []
    if mults != closed:
        problems.append(f"multiplicities {mults} != closed form {closed}")
    half = rep.multiplicity_of(LAMBDA_CRIT * 0.5)
    orbit = orbit_tangent_dim(w0)
    if half != orbit:
        problems.append(f"1/2-eigenspace {half} != orbit dimension {orbit}")
    residuals = [abs(c[0] - LAMBDA_CRIT * v) for c, v in zip(rep.clusters, _LADDER)]
    fields = _residual(tol, residuals, "; ".join(problems) or f"multiplicities {mults}")
    return {**fields, "status": "fail"} if problems else fields


def _check_shi_table(n, rng, tol):
    c = shi_constants(n)
    table = CATALOGUED_TABLE[n]
    violations = []
    for label, value, entry in (
        ("C1", c.C1, table[0]), ("C2", c.C2, table[1]), ("C3", c.C3, table[2])
    ):
        if not 0.97 * entry <= value <= entry:
            violations.append(f"{label}={value:.4f} vs table {entry}")
    return dict(
        expected="0.97*table <= formula <= table",
        computed="; ".join(violations) or "ok",
        status="flag" if violations else "pass",
        detail="table entry inconsistent with formula" if violations else "",
    )


def _check_neighborhood_bound(n, rng, tol):
    gamma, quoted = _NEIGHBORHOOD_QUOTES[n]
    bound = neighborhood_potential_bound(gamma)
    ceiling = math.sqrt(2.0 / 3.0) * theta_threshold(n)
    if not bound < ceiling:
        return dict(
            expected=f"< {ceiling}", computed=bound, status="fail",
            detail="strict separation from the product threshold lost",
        )
    return dict(
        expected=quoted, computed=bound,
        status="pass" if abs(bound - quoted) <= tol else "flag",
        detail=f"strictly below sqrt(2/3) theta_{n} = {ceiling:.6f}",
    )


def _check_certificate_identity(n, rng, tol):
    c = alpha0_certificate(n, "recomputed")
    G, C = c.G_recomputed, c.C_recomputed
    # the closed-form lhs against the uncollapsed bracket at r = 2G/C, in 50 digits
    import mpmath

    with mpmath.workdps(50):
        g, cc = mpmath.mpf(G), mpmath.mpf(C)
        r = 2 * g / cc
        bracket = g**2 / 13 - g * cc * r / 14 + cc**2 * r**2 / 60
        direct = certificate_prefactor(n, lib=mpmath) * bracket * r**2
        rel = float(abs(c.lhs_bound - direct) / direct)
    return _residual(tol, [rel, abs(c.r - 2.0 * G / C) / (2.0 * G / C)],
                     detail=f"verdict {c.verdict}")


def _check_certificate_quoted(n, rng, tol):
    c = alpha0_certificate(n, "quoted")
    return dict(
        expected="catalogued constants", computed=c.verdict, status="flag",
        detail=" | ".join(c.flags),
    )


def _check_flow_monotonicity(n, rng, tol):
    state = flow_state(random_weyl(rng, n))
    state = flow_run(state, steps=60, sample_every=1)
    values = [row[1] for row in state.history]
    # the largest drop of P between samples, or 0 when P never drops
    return _residual(tol, [0.0, *(a - b for a, b in zip(values, values[1:]))])


def _check_symmetric_space(n, rng, tol):
    mat = sphere_product(n // 2, n - n // 2).mat
    return _residual(tol, [d2(mat, v).norm() for v in np.eye(wedge_count(n))])


_REGISTRY = (
    # family, tag, default tolerance, dims, check(n, rng, tol)
    ("bianchi-idempotence", "bianchi-idempotence", 1e-12, _DIMS,
     _sampled(_SAMPLES, _draw_bianchi_idempotence)),
    ("decomposition-orthogonality", "decomposition-orthogonality", 1e-9, _DIMS,
     _sampled(_SAMPLES, _draw_decomposition_orthogonality)),
    ("bw-identity", "bw-identity", 1e-9, _DIMS, _sampled(_SAMPLES, _draw_bw_identity)),
    ("sharp-routes", "sharp-routes", 1e-10, _DIMS,
     _sampled(_SAMPLES, _draw_sharp_routes)),
    ("q-equivariance", "q-equivariance", 1e-9, _DIMS,
     _sampled(_SAMPLES // 2, functools.partial(_draw_equivariance, q_map))),
    ("sharp-equivariance", "sharp-equivariance", 1e-9, _DIMS,
     _sampled(_SAMPLES // 2, functools.partial(_draw_equivariance, sharp))),
    ("d2-equivariance", "d2-equivariance", 1e-9, _DIMS,
     _sampled(_SAMPLES // 2, _draw_d2_equivariance)),
    ("tri-symmetry", "tri-symmetry", 1e-9, _DIMS,
     _sampled(_SAMPLES // 2, _draw_tri_symmetry)),
    ("product-potential", "product-potential", 1e-10, _DIMS,
     _check_product_potential),
    ("d2-closed-form", "d2-closed-form", 1e-10, _DIMS[1:],
     _sampled(6, _draw_d2_closed_form)),
    ("symmetric-space-flatness", "symmetric-space-flatness", 1e-10, _DIMS,
     _check_symmetric_space),
    ("cpn-spectrum", "cpn-spectrum", 1e-10, (4, 6, 8), _check_cpn_spectrum),
    ("weyl-dimension", "weyl-dimension", 0.5, BASIS_DIMS, _check_weyl_dimension),
    ("hessian-clusters", "hessian-table", 1e-8, (10, 11), _check_hessian_clusters),
    ("shi-table", "shi-table", 0.0, CATALOGUED_TABLE, _check_shi_table),
    ("neighborhood-bound", "neighborhood-bound", 5e-4, _NEIGHBORHOOD_QUOTES,
     _check_neighborhood_bound),
    ("certificate-identity", "certificate-chain", 1e-12, CERTIFIED_DIMS,
     _check_certificate_identity),
    ("certificate-quoted", "certificate-chain", 0.0, QUOTED_CONSTANTS,
     _check_certificate_quoted),
    ("flow-monotonicity", "flow-monotonicity", 1e-12, _DIMS,
     _check_flow_monotonicity),
)

# the dimensions run_suite accepts: those where at least one row runs
_ACCEPTED = frozenset().union(*(dims for _, _, _, dims, _ in _REGISTRY))

# these checks never read their tolerance (certificate-quoted flags whatever
# it is), so no override names them; their records keep the default
DEFAULT_TOLERANCES = {
    family: tol for family, _, tol, _, _ in _REGISTRY
    if family not in ("certificate-quoted", "shi-table", "weyl-dimension")
}


def _record_for(family, tag, check, n, seed, tol) -> CheckRecord:
    name = f"{family}[n={n}]"
    rng = np.random.default_rng(zlib.crc32(name.encode()) ^ (seed & 0xFFFFFFFF))
    try:
        fields = check(n, rng, tol)
    except Exception as exc:  # surface broken checks as failures, not crashes
        tag, fields = "plumbing", dict(
            expected="no exception", computed=type(exc).__name__,
            status="fail", detail=str(exc),
        )
    return CheckRecord(name=name, tag=tag, tolerance=tol, **fields)


def run_suite(
    dims=DEFAULT_DIMS,
    seed: int = 0,
    tolerances: dict | None = None,
) -> SuiteReport:
    """Run every applicable check for the requested dimensions.

    Deterministic given (dims, seed, tolerances): each check owns a generator
    seeded from its name, and records are sorted by name.  tolerances
    overrides entries of DEFAULT_TOLERANCES by family name.
    """
    dims = tuple(need_int(n, 0) for n in dims)
    # any whole number: _record_for folds a negative seed into 32 bits
    seed = need_int(seed, -math.inf, "seed")
    for n in dims:
        if n not in _ACCEPTED:
            raise ArgumentError(f"dimension {n} outside supported range "
                                f"{min(_ACCEPTED)}..{max(_ACCEPTED)}")
    if len(set(dims)) != len(dims):
        raise ArgumentError("duplicate dimensions in the request")
    tolerances = tolerances or {}
    for key, value in tolerances.items():
        if key not in DEFAULT_TOLERANCES:
            known = ", ".join(sorted(DEFAULT_TOLERANCES))
            raise ArgumentError(f"unknown tolerance {key!r}; known: {known}")
        if not (isinstance(value, numbers.Real) and value >= 0):
            raise ArgumentError(f"tolerance {key!r} must be a number >= 0, "
                                f"got {value!r}")

    start = perf_counter()
    records = [
        _record_for(family, tag, check, n, seed, float(tolerances.get(family, tol)))
        for family, tag, tol, row_dims, check in _REGISTRY
        for n in sorted(dims)
        if n in row_dims
    ]
    records.sort(key=lambda record: record.name)
    return SuiteReport(
        seed=seed,
        dims=tuple(sorted(dims)),
        records=tuple(records),
        runtime_seconds=perf_counter() - start,
    )
