"""Tests for the angle-margin certificate chain."""

import json
import math
from dataclasses import asdict, fields, replace

import mpmath
import pytest

from curvlab.certificate import (
    CERT_EPSILON,
    GAMMA0,
    QUOTED_CONSTANTS,
    alpha0_certificate,
    alpha0_margin,
    ball_volume,
    beta_angle,
    certificate_prefactor,
    kappa0,
    lhs_bound,
    rhs_bound,
)
from curvlab.errors import ArgumentError
from curvlab.model_spaces import theta_threshold
from curvlab.shi_bounds import shi_constants
from curvlab.symmetry_op import g_lower_bound, sin_power_integral, sphere_volume

# log-spaced angles and left-hand sides spanning every value the chain meets
EPSILONS = [10.0 ** (k / 20.0) for k in range(-400, -59)]
LHS_VALUES = [10.0 ** (k / 20.0) for k in range(-400, -259)]


def oracle_rhs(n, eps):
    """8 sqrt(2(n-1)/n) (cot(beta_n) - cot(beta_n + eps)), subtracted at 60 digits."""
    with mpmath.workdps(60):
        beta = mpmath.acos(mpmath.sqrt(mpmath.mpf(3 * n) / (7 * n - 4)))
        scale = 8 * mpmath.sqrt(mpmath.mpf(2) * (n - 1) / n)
        return float(scale * (mpmath.cot(beta) - mpmath.cot(beta + eps)))


def oracle_margin(n, lhs):
    """atan(1 / (cot(beta_n) - lhs / (8 sqrt(2(n-1)/n)))) - beta_n at 60 digits."""
    with mpmath.workdps(60):
        beta = mpmath.acos(mpmath.sqrt(mpmath.mpf(3 * n) / (7 * n - 4)))
        scale = 8 * mpmath.sqrt(mpmath.mpf(2) * (n - 1) / n)
        return float(mpmath.atan(1 / (mpmath.cot(beta) - mpmath.mpf(lhs) / scale)) - beta)


def ulps(got, want):
    return abs(got - want) / math.ulp(want)


class TestIngredients:
    def test_lambda0_is_theta_threshold(self):
        assert theta_threshold(11) == pytest.approx(math.sqrt(40.0 / 27.0), rel=1e-15)
        assert theta_threshold(10) == pytest.approx(1.2, rel=1e-15)
        for n in (10, 11):
            assert alpha0_certificate(n).lambda0 == theta_threshold(n)

    def test_kappa0_values(self):
        assert kappa0(11) == pytest.approx(math.sqrt(73.0 / 40.0), rel=1e-15)
        assert kappa0(10) == pytest.approx(math.sqrt(11.0 / 6.0), rel=1e-15)
        with pytest.raises(ArgumentError):
            kappa0(1)

    def test_beta_angle(self):
        assert beta_angle(11) == pytest.approx(
            math.acos(math.sqrt(33.0 / 73.0)), rel=1e-15
        )
        with pytest.raises(ArgumentError):
            beta_angle(4)

    def test_cotangent_identity(self):
        # sqrt(2(n-1)/n) cot(beta_n) = sqrt(3/2) exactly, for every n
        for n in (5, 8, 10, 11, 16):
            beta = beta_angle(n)
            val = math.sqrt(2.0 * (n - 1) / n) / math.tan(beta)
            assert val == pytest.approx(math.sqrt(1.5), rel=1e-14)

    def test_ball_volume(self):
        assert ball_volume(0) == pytest.approx(1.0)
        assert ball_volume(1) == pytest.approx(2.0)
        assert ball_volume(2) == pytest.approx(math.pi)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
        assert ball_volume(11) == pytest.approx(1.8841038793898994, rel=1e-14)
        assert float(ball_volume(11, lib=mpmath)) == pytest.approx(
            ball_volume(11), rel=1e-14
        )
        with pytest.raises(ArgumentError):
            ball_volume(-1)

    def test_prefactor(self):
        assert certificate_prefactor(11) == pytest.approx(
            0.22263031417954204, rel=1e-12
        )


class TestRhsBound:
    def test_zero_at_zero(self):
        # the rewritten form cancels exactly, not just to double precision
        assert rhs_bound(11, 0.0) == 0.0

    def test_catalogued_epsilon(self):
        assert rhs_bound(11, CERT_EPSILON) == pytest.approx(
            1.9981935523685548e-14, rel=1e-9
        )
        bare = rhs_bound(11, CERT_EPSILON) / 8.0
        assert bare == pytest.approx(2.4977419404606935e-15, rel=1e-9)
        # the catalogued rhs value matches the prefactor-free evaluation
        assert abs(bare - 2.6e-15) <= 0.05 * 2.6e-15

    def test_linear_for_tiny_angles(self):
        s1 = rhs_bound(11, 1e-18) / 1e-18
        s2 = rhs_bound(11, 2e-18) / 2e-18
        assert s1 == pytest.approx(s2, rel=1e-9)
        assert s1 == pytest.approx(19.6862, rel=1e-4)

    def test_monotone(self):
        vals = [rhs_bound(11, e) for e in (0.0, 1e-16, 1e-15, 1e-12, 1e-6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ArgumentError):
            rhs_bound(11, -1e-16)

    @pytest.mark.parametrize("n", [10, 11])
    def test_closed_form_matches_the_cot_difference(self, n):
        # the subtraction-free form against the cancelling one at 60 digits
        assert max(ulps(rhs_bound(n, e), oracle_rhs(n, e)) for e in EPSILONS) <= 4
        assert rhs_bound(n, CERT_EPSILON) == oracle_rhs(n, CERT_EPSILON)


class TestLhsBound:
    def test_bracket_identity_at_matched_radius(self):
        # the closed form against the uncollapsed bracket at r = 2G/C, in 50 digits
        for n in (10, 11):
            c = alpha0_certificate(n)
            for G, C in ((0.3, 1.0e6), (c.G_recomputed, c.C_recomputed)):
                with mpmath.workdps(50):
                    g, cc = mpmath.mpf(G), mpmath.mpf(C)
                    r = 2 * g / cc
                    bracket = g**2 / 13 - g * cc * r / 14 + cc**2 * r**2 / 60
                    want = certificate_prefactor(n, lib=mpmath) * bracket * r**2
                    assert abs(lhs_bound(n, G, C) - want) / want < 1e-14

    def test_scales_with_g_fourth_power(self):
        # with r = 2G/C fixed by the chain, lhs ~ G^4 / C^2
        C = 1.0e6
        a = lhs_bound(11, 0.2, C)
        b = lhs_bound(11, 0.4, C)
        assert b / a == pytest.approx(16.0, rel=1e-12)


class TestMargin:
    def test_inverts_rhs(self):
        # 15 lies past 8 sqrt(3/2), where atan(1/(cot(beta) - ...)) - beta
        # would take the wrong branch
        for lhs in (1e-18, 1e-16, 1e-14, 15.0):
            eps = alpha0_margin(11, lhs)
            assert rhs_bound(11, eps) == pytest.approx(lhs, rel=1e-9)

    @pytest.mark.parametrize("n", [10, 11])
    def test_closed_form_matches_atan_minus_beta(self, n):
        worst = max(ulps(alpha0_margin(n, x), oracle_margin(n, x)) for x in LHS_VALUES)
        assert worst <= 4

    def test_nonpositive_lhs(self):
        assert alpha0_margin(11, 0.0) == 0.0
        assert alpha0_margin(11, -1.0) == 0.0


class TestCertificate:
    def test_recomputed_chain(self):
        c = alpha0_certificate(11, "recomputed")
        assert c.mode == "recomputed"
        assert c.G_recomputed == pytest.approx(
            g_lower_bound(theta_threshold(11), math.pi / 4.0, GAMMA0, 11), rel=1e-15
        )
        assert c.G_recomputed == pytest.approx(0.25549732962239474, rel=1e-12)
        assert c.C_recomputed == pytest.approx(
            (2.0 * kappa0(11) - theta_threshold(11)) ** 2.5 * shi_constants(11).C3,
            rel=1e-14,
        )
        assert c.C_recomputed == pytest.approx(1035845.4758890548, rel=1e-12)
        assert c.r == pytest.approx(2.0 * c.G_recomputed / c.C_recomputed, rel=1e-15)
        assert c.lhs_bound == pytest.approx(2.590998452045645e-18, rel=1e-9)
        assert c.alpha0_margin == pytest.approx(1.3161204657622e-19, rel=1e-6)
        assert c.verdict == "holds_with_recomputed_constants"
        assert any("margin" in f for f in c.flags)

    def test_quoted_chain(self):
        c = alpha0_certificate(11, "quoted")
        q = QUOTED_CONSTANTS[11]
        assert c.G_quoted == q["G"] and c.C_quoted == q["C"]
        # r is always 2G/C; here that lands 0.14% under the catalogued r
        assert c.r == pytest.approx(2.0 * q["G"] / q["C"], rel=1e-15)
        assert c.r == pytest.approx(5.851989581462882e-07, rel=1e-12)
        assert c.lhs_bound == pytest.approx(5.1309315412546345e-18, rel=1e-9)
        # quoted lhs is several hundred times larger than the formula yields
        assert q["lhs"] / c.lhs_bound > 100.0
        assert c.verdict == "fails_at_quoted_constants"
        assert any("not reproduced" in f for f in c.flags)
        assert any("prefactor-free" in f for f in c.flags)

    def test_quoted_mode_alias(self):
        assert alpha0_certificate(11, "paper-constants").mode == "quoted"

    def test_dimension_ten_fallback(self):
        c = alpha0_certificate(10, "quoted")
        assert c.G_quoted is None and c.C_quoted is None
        assert any("falls back" in f for f in c.flags)
        assert c.verdict == "holds_with_recomputed_constants"
        rec = alpha0_certificate(10, "recomputed")
        assert c.lhs_bound == pytest.approx(rec.lhs_bound, rel=1e-15)

    def test_rhs_same_in_both_modes(self):
        a = alpha0_certificate(11, "recomputed")
        b = alpha0_certificate(11, "quoted")
        assert a.rhs_bound == b.rhs_bound
        assert a.rhs_bound_no_prefactor == b.rhs_bound_no_prefactor
        for n in (10, 11):
            c = alpha0_certificate(n)
            assert c.rhs_bound_no_prefactor * 8 == c.rhs_bound

    def test_alpha0_composition(self):
        c = alpha0_certificate(11)
        assert c.alpha0 == pytest.approx(c.beta + CERT_EPSILON, rel=1e-15)
        assert c.phi0 == GAMMA0

    def test_json_round_trip(self):
        c = alpha0_certificate(11, "quoted")
        d = json.loads(json.dumps(asdict(c)))
        assert d["n"] == 11
        assert d["verdict"] == "fails_at_quoted_constants"
        assert d["G_quoted"] == QUOTED_CONSTANTS[11]["G"]
        assert isinstance(d["flags"], list) and d["flags"]

    def test_validation(self):
        with pytest.raises(ArgumentError):
            alpha0_certificate(9)
        with pytest.raises(ArgumentError):
            alpha0_certificate(11, "exact")


FLOAT_FIELDS = [f.name for f in fields(alpha0_certificate(11, "quoted"))
                if f.type.startswith("float")]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_field_is_refused(name):
    c = alpha0_certificate(11, "quoted")
    with pytest.raises(ArgumentError, match=name):
        replace(c, **{name: math.nan})


def test_every_float_field_is_checked():
    # the 19 fields less n, mode, verdict and flags
    assert len(FLOAT_FIELDS) == 15


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("call", [
    lambda x: g_lower_bound(1.0, math.pi / 4, x, 11),
    lambda x: g_lower_bound(x, math.pi / 4, 0.1, 11),
    lambda x: rhs_bound(11, x),
    lambda x: alpha0_margin(11, x),
    lambda x: sphere_volume(x),
    lambda x: ball_volume(x),
    lambda x: sin_power_integral(x, 0.5),
], ids=["g-phi", "g-lambda", "rhs", "margin", "sphere", "ball", "sin-power"])
def test_non_finite_argument_is_refused(call, bad):
    # each check is written so that NaN and +-inf fail it: `x < 0` lets NaN
    # through, and int(x) raises OverflowError or a bare ValueError
    with pytest.raises(ArgumentError, match="finite|integer"):
        call(bad)
