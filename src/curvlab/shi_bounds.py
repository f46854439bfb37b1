"""Closed-form derivative-estimate constants for Einstein manifolds with
bounded curvature operator, and the catalogued table next to them as plain
numbers (table_rows; the `tables` command rounds and renders it).

CATALOGUED_TABLE holds the printed values as they stand, and they follow no
single rounding rule.  C1 is the integer ceiling in every row.  C2 is
rounded up to tens: C2(11) = 2050 for 2048.05, whose ceiling is 2049.  C3 is
the integer ceiling except at n = 10, where 367142 is the floor of
367142.14, and at n = 8, where 328939 is one digit away from the ceiling
328959.  The verification suite judges each cell by the window
0.97*entry <= formula <= entry and flags the cells outside it (C1(8),
C3(8) and C3(10)) instead of rounding them away.

Two routes are kept side by side and never merged: the statement-level
constants C1, C2, C3 (normative, used by derivative_bound) and the
proof-level flow-time constants A1, A2, A3 with their scaling factors
(C1 = A1/sqrt2, C2 = A2, C3 = sqrt2 A3).  The third constant genuinely
differs between the routes in one coefficient (a 33^2 vs 33^3 factor);
statement_vs_proof exposes the relative gaps so the discrepancy is
reported instead of silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, need_int

__all__ = [
    "ShiConstants",
    "alpha_coeff",
    "beta_coeff",
    "shi_constants",
    "statement_vs_proof",
    "derivative_bound",
    "CATALOGUED_TABLE",
    "table_rows",
]

# printed values of (C1, C2, C3) by dimension, kept as catalogued; mostly
# round-ups (C2 to tens), judged by the suite's 0.97*entry <= formula <= entry
# window rather than by a rounding rule
CATALOGUED_TABLE = {
    11: (18, 2050, 385661),
    10: (18, 1990, 367142),
    9: (18, 1920, 348265),
    8: (18, 1850, 328939),
}


def alpha_coeff(n: int) -> float:
    """First auxiliary coefficient 12.5 + 2 sqrt(n)."""
    return 12.5 + 2.0 * math.sqrt(need_int(n, 2))


def beta_coeff(n: int) -> float:
    """Second auxiliary coefficient 35 + 4 sqrt(n)."""
    return 35.0 + 4.0 * math.sqrt(need_int(n, 2))


def _a1_squared(n: int) -> float:
    return 33.0 * alpha_coeff(n)


def _a2_squared(n: int) -> float:
    s = math.sqrt(n)
    beta = beta_coeff(n)
    return (
        33.0 * beta
        + 33.0 * (24.0 + 4.0 * s) * (12.5 + 2.0 * s) * beta
        + 1089.0 * (24.0 + 9.0 * s) ** 2 * (12.5 + 2.0 * s) ** 2 / (272.0 + 32.0 * s)
    )


def _a3_squared(n: int) -> float:
    s = math.sqrt(n)
    a1sq = _a1_squared(n)
    a2sq = _a2_squared(n)
    return (
        a1sq * a2sq * (41.0 + 14.0 * s) ** 2 / (92.0 + 8.0 * s)
        + (95.0 + 8.0 * s) * (34.0 + 4.0 * s) * a2sq
        + (95.0 + 8.0 * s) * (24.0 + 2.0 * s) * a1sq
        + (95.0 + 8.0 * s) * ((24.0 + 9.0 * s) * a1sq) ** 2 / (544.0 + 64.0 * s)
        + 33.0 * (95.0 + 8.0 * s)
    )


def _c2_squared(n: int) -> float:
    s = math.sqrt(n)
    return (
        33.0 * (35.0 + 4.0 * s) * (1.0 + (12.0 + 2.0 * s) * (25.0 + 4.0 * s))
        + 33.0**2 * (24.0 + 9.0 * s) ** 2 * (12.5 + 2.0 * s) ** 2 / (272.0 + 32.0 * s)
    )


def _c3_squared(n: int) -> float:
    s = math.sqrt(n)
    inner = 1.0 + (12.0 + 2.0 * s) * (25.0 + 4.0 * s)
    return (
        33.0 * (95.0 + 8.0 * s) * (24.0 + 2.0 * s) * (25.0 + 4.0 * s)
        + 1089.0 * (35.0 + 4.0 * s) * inner * (25.0 + 4.0 * s)
        * (41.0 + 14.0 * s) ** 2 / (92.0 + 8.0 * s)
        + 33.0**2 * (25.0 + 4.0 * s) * (24.0 + 9.0 * s) ** 2 * (12.5 + 2.0 * s) ** 2
        * (41.0 + 14.0 * s) ** 2 / ((92.0 + 8.0 * s) * (272.0 + 32.0 * s))
        + 66.0 * (95.0 + 8.0 * s) * (34.0 + 4.0 * s) * (35.0 + 4.0 * s) * inner
        + 1089.0 * (95.0 + 8.0 * s) * (24.0 + 9.0 * s) ** 2 * (12.5 + 2.0 * s) ** 2
        * (69.0 + 8.0 * s) / (272.0 + 32.0 * s)
        + 66.0 * (95.0 + 8.0 * s)
    )


@dataclass(frozen=True)
class ShiConstants:
    """Derivative-estimate constants for one dimension.

    A1..A3 are the flow-time constants; C1..C3 the final statement-level
    constants entering derivative_bound.
    """

    n: int
    A1: float
    A2: float
    A3: float
    C1: float
    C2: float
    C3: float


def shi_constants(n: int) -> ShiConstants:
    """All six constants for dimension n >= 2; everything positive."""
    n = need_int(n, 2)
    return ShiConstants(
        n=n,
        A1=math.sqrt(_a1_squared(n)),
        A2=math.sqrt(_a2_squared(n)),
        A3=math.sqrt(_a3_squared(n)),
        C1=math.sqrt(0.5 * _a1_squared(n)),
        C2=math.sqrt(_c2_squared(n)),
        C3=math.sqrt(_c3_squared(n)),
    )


def statement_vs_proof(n: int) -> dict:
    """Relative gap between each statement constant and its proof route.

    The proof route is C1 = A1/sqrt2, C2 = A2, C3 = sqrt2 A3.  Orders 1
    and 2 agree identically; order 3 differs because one term carries 33^2
    in the statement but expands to 33^3 along the proof.
    """
    c = shi_constants(n)
    proof = (c.A1 / math.sqrt(2.0), c.A2, math.sqrt(2.0) * c.A3)
    statement = (c.C1, c.C2, c.C3)
    return {
        order + 1: (statement[order] - proof[order]) / proof[order]
        for order in range(3)
    }


def derivative_bound(n: int, K: float, lam: float, order: int) -> float:
    """(2K - lambda)^(1 + order/2) C_order(n) for order in {1, 2, 3}."""
    order = need_int(order, 1, "order")
    if order not in (1, 2, 3):
        raise ArgumentError(f"derivative order must be 1, 2 or 3, got {order}")
    if not 0.0 < lam <= K < math.inf:
        raise ArgumentError(f"need 0 < lambda <= K < inf, got lambda={lam}, K={K}")
    c = shi_constants(n)
    value = (c.C1, c.C2, c.C3)[order - 1]
    return (2.0 * K - lam) ** (1.0 + order / 2.0) * value


def table_rows(dims=()) -> list:
    """Formula next to catalogued values, one dict per n (default: the catalogue's)."""
    rows = []
    for n in dims or CATALOGUED_TABLE:
        c = shi_constants(n)
        row = {"n": c.n, "C1": c.C1, "C2": c.C2, "C3": c.C3}
        if n in CATALOGUED_TABLE:
            row["C1_table"], row["C2_table"], row["C3_table"] = CATALOGUED_TABLE[n]
        rows.append(row)
    return rows
