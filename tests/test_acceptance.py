"""Acceptance gate: ten primary criteria, one test and one printed line each.

Each test computes its margin first, prints a single pass/fail line (visible
with -s, and in the captured output of any failing test), then asserts.
Criterion 7 checks how the catalogued derivative-bound table is reported:
three of its cells are inconsistent with their own closed-form constants, and
the criterion passes only while the suite's shi-table flags name exactly
those cells and the printed line lists them.
"""

import math
import re
from time import perf_counter

import mpmath
import numpy as np
import pytest

from curvlab.certificate import alpha0_certificate, certificate_prefactor, kappa0
from curvlab.curvature_core import (
    decompose,
    potential,
    potential_normalized,
    sharp,
    sharp_pure,
)
from curvlab.lie_basis import sp1_basis, wedge_count, wedge_pairs
from curvlab.model_spaces import cpn, sphere_product, theta, theta_threshold, w_cp2
from curvlab.potential_flow import neighborhood_potential_bound
from curvlab.shi_bounds import CATALOGUED_TABLE, derivative_bound, shi_constants
from curvlab.spectral_decomp import (
    eigen_report,
    hessian_matrix,
    orbit_tangent_dim,
    weyl_dim,
)
from curvlab.suite import run_suite
from curvlab.symmetry_op import d2, d2_family_norm
from curvlab.model_spaces import r_lambda
from tests.test_curvature_core import random_curvature

SQRT32 = math.sqrt(1.5)
LADDER = (1.0, 0.5, 1.0 / 3.0, 0.0, -1.0 / 6.0, -0.5, -1.0)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}")


def test_criterion_01_cpn_spectrum():
    start = perf_counter()
    worst = 0.0
    mults_ok = True
    for m in (2, 3, 4):
        rep = eigen_report(np.asarray(cpn(m).mat))
        want = [(2.0 * m + 2.0, 1), (2.0, m * m - 1), (0.0, m * (m - 1))]
        mults_ok &= [c[1] for c in rep.clusters] == [w[1] for w in want]
        worst = max(worst, max(abs(c[0] - w[0]) for c, w in zip(rep.clusters, want)))
    elapsed = perf_counter() - start
    ok = mults_ok and worst < 1e-10 and elapsed < 1.0
    _line(1, ok, f"eigenvalue error {worst:.1e} (< 1e-10), {elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_02_potentials():
    worst_cp2 = max(abs(potential(w_cp2(n)) - SQRT32) for n in (5, 8, 11))
    worst_prod = 0.0
    for k in range(2, 10):
        for l in range(k, 10):
            weyl = decompose(sphere_product(k, l)).weyl.mat
            worst_prod = max(
                worst_prod, abs(potential_normalized(weyl) - theta(k, l))
            )
    ok = worst_cp2 < 1e-10 and worst_prod < 1e-10
    _line(
        2,
        ok,
        f"P(W_CP2) error {worst_cp2:.1e}, product potentials error "
        f"{worst_prod:.1e} (both < 1e-10)",
    )
    assert ok


def test_criterion_03_sharp_oracle():
    start = perf_counter()
    worst = 0.0
    for n in (4, 5, 6, 7, 8):
        rng = np.random.default_rng(n)
        for _ in range(500):
            mat = np.diag(rng.standard_normal(wedge_count(n)))
            worst = max(
                worst, float(np.max(np.abs(sharp_pure(mat).mat - sharp(mat).mat)))
            )
    basis = sp1_basis(4)
    u = np.column_stack(
        [basis[k] / math.sqrt(2.0) for k in ("i+", "j+", "k+", "i-", "j-", "k-")]
    )
    rng = np.random.default_rng(0)
    worst_adj = 0.0
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T) + np.eye(3)
        c = rng.standard_normal((3, 3))
        c = 0.5 * (c + c.T) + np.eye(3)
        block = np.block([[a, np.zeros((3, 3))], [np.zeros((3, 3)), c]])
        s = u.T @ sharp(u @ block @ u.T).mat @ u
        adj_a = np.linalg.det(a) * np.linalg.inv(a)
        adj_c = np.linalg.det(c) * np.linalg.inv(c)
        worst_adj = max(
            worst_adj,
            float(np.max(np.abs(s[:3, :3] - 2.0 * adj_a))),
            float(np.max(np.abs(s[3:, 3:] - 2.0 * adj_c))),
            float(np.max(np.abs(s[:3, 3:]))),
        )
    elapsed = perf_counter() - start
    ok = worst < 1e-10 and worst_adj < 1e-12 and elapsed < 30.0
    _line(
        3,
        ok,
        f"sharp routes {worst:.1e} (< 1e-10), n=4 blocks vs 2 adj "
        f"{worst_adj:.1e} (< 1e-12), {elapsed:.1f}s (< 30s)",
    )
    assert ok


def test_criterion_04_bw_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    worst_weyl = 0.0
    for n in (4, 5, 6, 7, 8):
        eye = np.eye(wedge_count(n))
        for _ in range(200):
            r = random_curvature(rng, n)
            d = decompose(r)
            lhs = r + sharp(r, eye).mat
            rhs = (n - 1) * d.scalar_part + 0.5 * (n - 2) * d.ricci_part
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            w = d.weyl.mat
            worst_weyl = max(worst_weyl, float(np.max(np.abs(w + sharp(w, eye).mat))))
    ok = worst < 1e-9 and worst_weyl < 1e-9
    _line(
        4,
        ok,
        f"identity residual {worst:.1e}, Weyl W + W#Id residual "
        f"{worst_weyl:.1e} (both < 1e-9)",
    )
    assert ok


def test_criterion_05_hessian_table():
    details = []
    ok = True
    for n in (10, 11):
        start = perf_counter()
        rep = eigen_report(hessian_matrix(w_cp2(n)))
        elapsed = perf_counter() - start
        want = [SQRT32 * v for v in LADDER]
        cluster_err = (
            max(abs(c[0] - w) for c, w in zip(rep.clusters, want))
            if len(rep.clusters) == 7
            else float("inf")
        )
        mult_sum = sum(m for _, m in rep.clusters)
        half = rep.multiplicity_of(SQRT32 * 0.5)
        orbit = orbit_tangent_dim(w_cp2(n))
        this_ok = (
            cluster_err < 1e-8
            and mult_sum == weyl_dim(n)
            and half == orbit
            and (n != 11 or elapsed < 300.0)
        )
        ok &= this_ok
        details.append(
            f"n={n}: cluster error {cluster_err:.1e}, mult sum {mult_sum}, "
            f"1/2-space {half} == orbit {orbit}, {elapsed:.1f}s"
        )
    _line(5, ok, "; ".join(details))
    assert ok


def test_criterion_06_d2_tables():
    rng = np.random.default_rng(0)
    n = 11
    worst = 0.0
    pair_classes = [(1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4),
                    (1, 5), (4, 11), (5, 6), (7, 11)]
    for _ in range(20):
        lam = float(rng.uniform(0.5, 2.0))
        phi = float(rng.uniform(0.0, math.pi / 2 - 1e-6))
        mat = r_lambda(lam, n, phi).mat
        for i, j in pair_classes:
            v = np.zeros(wedge_count(n))
            v[[p for p, pair in enumerate(wedge_pairs(n)) if pair == (i, j)][0]] = 1.0
            worst = max(worst, abs(d2(mat, v).norm() - d2_family_norm(lam, n, phi, (i, j))))
    worst_sym = 0.0
    for k, l in ((2, 3), (3, 4), (5, 6)):
        mat = sphere_product(k, l).mat
        for idx in range(wedge_count(k + l)):
            v = np.zeros(wedge_count(k + l))
            v[idx] = 1.0
            worst_sym = max(worst_sym, d2(mat, v).norm())
    ok = worst < 1e-10 and worst_sym < 1e-10
    _line(
        6,
        ok,
        f"closed-form error {worst:.1e}, symmetric-space derivative "
        f"{worst_sym:.1e} (both < 1e-10)",
    )
    assert ok


def _closed_forms_mp(n: int) -> tuple:
    """(C1, C2, C3)(n) from the closed forms, at mpmath's working precision."""
    s = mpmath.sqrt(n)
    inner = 1 + (12 + 2 * s) * (25 + 4 * s)
    a = 12.5 + 2 * s
    b = 35 + 4 * s
    g = 95 + 8 * s
    q = (24 + 9 * s) ** 2 * a**2 / (272 + 32 * s)
    r = (41 + 14 * s) ** 2 / (92 + 8 * s)
    c1_sq = 33 * a / 2
    c2_sq = 33 * b * inner + 1089 * q
    c3_sq = (
        33 * g * (24 + 2 * s) * (25 + 4 * s)
        + 1089 * b * inner * (25 + 4 * s) * r
        + 1089 * (25 + 4 * s) * q * r
        + 66 * g * (34 + 4 * s) * b * inner
        + 1089 * g * q * (69 + 8 * s)
        + 66 * g
    )
    return tuple(mpmath.sqrt(x) for x in (c1_sq, c2_sq, c3_sq))


def _program_verdicts(report) -> dict:
    """Cell -> verdict of the suite's shi-table records.

    A record's cells read "flag" where its computed text names them and
    "pass" elsewhere; a record whose status does not fit the cells it names
    (or a missing record) gives that status to all three of its cells.
    """
    records = {record.name: record for record in report.records}
    verdicts = {}
    for n in CATALOGUED_TABLE:
        record = records.get(f"shi-table[n={n}]")
        status = record.status if record else "missing"
        computed = str(record.computed) if record else ""
        named = set(re.findall(r"\b(C[123])=", computed))
        consistent = status == ("flag" if named else "pass")
        for label in ("C1", "C2", "C3"):
            verdicts[f"{label}(n={n})"] = (
                ("flag" if label in named else "pass") if consistent else status
            )
    return verdicts


@pytest.fixture(scope="module")
def suite_report():
    """The dims 4..11 suite report, built once for criteria 7 and 10."""
    return run_suite(dims=range(4, 12), seed=0)


def test_criterion_07_shi_constants(suite_report):
    # the catalogue cells outside 0.97*entry <= formula <= entry, as the README
    # documents them: a finding about the catalogue, which the suite flags
    documented = {"C3(n=10)", "C1(n=8)", "C3(n=8)"}
    problems = []
    verdicts = {}
    outside = []
    min_margin = mpmath.inf
    with mpmath.workdps(50):
        for n, entries in CATALOGUED_TABLE.items():
            exact = _closed_forms_mp(n)
            floats = shi_constants(n)
            for label, value, entry in zip(("C1", "C2", "C3"), exact, entries):
                cell = f"{label}(n={n})"
                computed = getattr(floats, label)
                # the float forms sum positive terms, so they agree to a few ulps
                if abs(computed - value) > 1e-13 * value:
                    problems.append(
                        f"{cell}: shi_constants gives {computed!r}, closed form "
                        f"{mpmath.nstr(value, 20)}"
                    )
                margin = min(value - mpmath.mpf(97) / 100 * entry, entry - value)
                min_margin = min(min_margin, abs(margin) / entry)
                verdicts[cell] = "flag" if margin < 0 else "pass"
                if margin < 0:
                    side = "above entry" if value > entry else "below 0.97*entry"
                    outside.append(f"{cell}={mpmath.nstr(value, 10)} vs {entry} ({side})")
    program = _program_verdicts(suite_report)
    for cell, verdict in verdicts.items():
        readme = "flag" if cell in documented else "pass"
        if verdict != program[cell] or verdict != readme:
            problems.append(
                f"{cell}: test verdict {verdict}, program verdict {program[cell]}, "
                f"README {readme}"
            )
    if min_margin < 1e-9:
        problems.append(
            f"smallest verdict margin {mpmath.nstr(min_margin, 3)} is within "
            "1e-9 of a window edge, too close to float error to trust"
        )
    flagged = sorted(r.name for r in suite_report.records
                     if r.tag == "shi-table" and r.status == "flag")
    headline = derivative_bound(11, kappa0(11), math.sqrt(40.0 / 27.0), 3)
    rel = abs(headline - 1035846.0) / 1035846.0
    ok = not problems and rel < 1e-3
    _line(
        7,
        ok,
        f"inconsistent catalogue cells: {'; '.join(outside) or 'none'}; "
        f"flagged by {', '.join(flagged) or 'no record'}; smallest verdict "
        f"margin {mpmath.nstr(min_margin, 2)} (>= 1e-9); headline bound "
        f"{headline:.1f} rel {rel:.1e} (< 1e-3)",
    )
    assert rel < 1e-3
    assert not problems, "; ".join(problems)


def test_criterion_08_neighborhood_bounds():
    b11 = neighborhood_potential_bound(0.13)
    b10 = neighborhood_potential_bound(0.26)
    e11 = abs(b11 - 0.9934)
    e10 = abs(b10 - 0.9796)
    strict = (
        b11 < math.sqrt(2.0 / 3.0) * theta_threshold(11)
        and b10 < math.sqrt(2.0 / 3.0) * theta_threshold(10)
    )
    ok = e11 <= 5e-4 and e10 <= 5e-4 and strict
    _line(
        8,
        ok,
        f"bound(11, 0.13)={b11:.6f} (err {e11:.1e}), bound(10, 0.26)={b10:.6f} "
        f"(err {e10:.1e}), strict separation {strict}",
    )
    assert ok


def test_criterion_09_certificate():
    quoted = alpha0_certificate(11, "paper-constants")
    rhs_rel = abs(quoted.rhs_bound_no_prefactor - 2.6e-15) / 2.6e-15
    recomputed = alpha0_certificate(11, "recomputed")
    g, c = recomputed.G_recomputed, recomputed.C_recomputed
    r_rel = abs(recomputed.r - 2.0 * g / c) / (2.0 * g / c)
    with mpmath.workdps(50):
        gm, cm = mpmath.mpf(g), mpmath.mpf(c)
        r = 2 * gm / cm
        bracket = gm**2 / 13 - gm * cm * r / 14 + cm**2 * r**2 / 60
        direct = certificate_prefactor(11, lib=mpmath) * bracket * r**2
        lhs_rel = float(abs(recomputed.lhs_bound - direct) / direct)
    flagged = any("quoted G" in f for f in recomputed.flags) and any(
        "quoted lhs" in f for f in quoted.flags
    )
    ok = rhs_rel <= 0.10 and r_rel < 1e-12 and lhs_rel < 1e-12 and flagged
    _line(
        9,
        ok,
        f"rhs vs catalogued {rhs_rel:.3f} (<= 0.10), r=2G/C rel {r_rel:.1e}, "
        f"lhs identity rel {lhs_rel:.1e} (< 1e-12), discrepancies flagged "
        f"{flagged}; headline margin intentionally not asserted",
    )
    assert ok


def test_criterion_10_property_suite(suite_report):
    elapsed = suite_report.runtime_seconds
    counts = suite_report.counts
    ok = counts["fail"] == 0 and elapsed < 900.0
    _line(
        10,
        ok,
        f"suite dims 4-11 seed 0: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['flag']} flag (catalogued-value flags allowed), "
        f"{elapsed:.0f}s (< 900s)",
    )
    assert ok
