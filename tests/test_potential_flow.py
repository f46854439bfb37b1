import csv
import io
import math

import mpmath
import numpy as np
import pytest

from curvlab.curvature_core import bianchi_project, decompose, ricci
from curvlab.errors import ArgumentError
from curvlab.lie_basis import wedge_count
from curvlab.model_spaces import sphere, sphere_product, theta, w_cp2
from curvlab.potential_flow import (
    fixed_point_residual,
    flow_run,
    flow_state,
    flow_step,
    neighborhood_potential_bound,
)
from curvlab.report import render_table

SQRT32 = math.sqrt(1.5)


def random_unit_weyl(rng, n):
    raw = rng.standard_normal((wedge_count(n),) * 2)
    w = decompose(bianchi_project(0.5 * (raw + raw.T))).weyl.mat
    return w / np.linalg.norm(w)


class TestFlowState:
    def test_wraps_unit_weyl(self):
        st = flow_state(w_cp2(5))
        assert st.t == 0.0
        assert abs(st.potential - SQRT32) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ArgumentError):
            flow_state(2.0 * w_cp2(5).mat)

    def test_rejects_non_weyl(self):
        ident = sphere(5)
        with pytest.raises(ArgumentError):
            flow_state(ident.mat / ident.norm())


class TestFlowStep:
    def test_rejects_bad_dt(self):
        st = flow_state(w_cp2(5))
        with pytest.raises(ArgumentError):
            flow_step(st, 0.0)
        with pytest.raises(ArgumentError):
            flow_step(st, -1e-3)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_a_step_that_is_not_finite(self, dt):
        with pytest.raises(ArgumentError, match="finite and positive"):
            flow_step(flow_state(w_cp2(5)), dt)

    def test_cp2_is_fixed(self):
        st = flow_state(w_cp2(5))
        assert np.max(np.abs(flow_step(st, 1e-3).w.mat - st.w.mat)) < 1e-12

    @pytest.mark.parametrize("k,l", [(2, 3), (4, 6)])
    def test_product_weyl_is_fixed(self, k, l):
        report = decompose(sphere_product(k, l))
        w = report.weyl.mat / report.weyl.norm()
        assert fixed_point_residual(w) < 1e-12
        st = flow_state(w)
        assert np.max(np.abs(flow_step(st, 1e-3).w.mat - st.w.mat)) < 1e-12

    def test_potential_monotone_per_step(self, rng):
        state = flow_state(random_unit_weyl(rng, 5))
        for _ in range(300):
            new = flow_step(state, 1e-3)
            assert new.potential >= state.potential - 1e-12
            assert abs(new.w.norm() - 1.0) < 1e-10
            assert np.max(np.abs(ricci(new.w.mat))) < 1e-9
            state = new

    def test_converges_to_critical_point(self):
        state = flow_state(random_unit_weyl(np.random.default_rng(0), 5))
        state = flow_run(state, 1500)
        assert fixed_point_residual(state.w) < 1e-6
        catalogue = (theta(2, 3), SQRT32)
        assert min(abs(state.potential - v) for v in catalogue) < 1e-9

    def test_small_fixed_steps(self):
        # dt = 1e-3 for 1e4 steps closes most of the gap but not to 1e-6;
        # the residual at that horizon sits near 1e-3..1e-2
        state = flow_state(random_unit_weyl(np.random.default_rng(0), 5))
        state = flow_run(state, 10_000, dt=1e-3)
        assert fixed_point_residual(state.w) < 1e-2
        assert abs(state.potential - SQRT32) < 2e-4

    def test_rejects_negative_sample_every(self):
        st = flow_state(w_cp2(5))
        assert flow_run(st, 3, sample_every=0).history == ()
        with pytest.raises(ArgumentError):
            flow_run(st, 3, sample_every=-1)

    @pytest.mark.parametrize("dt", [1e-2, None], ids=["fixed", "adaptive"])
    def test_times_are_floats(self, dt):
        state = flow_state(random_unit_weyl(np.random.default_rng(2), 5))
        state = flow_run(state, 5, dt=dt, sample_every=1)
        assert type(state.t) is float
        assert len(state.history) == 5
        assert all(type(v) is float for row in state.history for v in row)
        assert "np.float64" not in repr(state)

    def test_history_and_csv(self):
        state = flow_state(random_unit_weyl(np.random.default_rng(1), 5))
        state = flow_run(state, 50, dt=1e-2, sample_every=10)
        assert len(state.history) >= 5
        text = render_table(("t", "P", "residual"), state.history, "csv")
        assert text.startswith("t,P,residual\r\n")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["t", "P", "residual"]
        assert len(rows) == len(state.history) + 1
        ts = [float(r[0]) for r in rows[1:]]
        ps = [float(r[1]) for r in rows[1:]]
        assert ts == sorted(ts)
        assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))


class TestBounds:
    def test_quoted_neighborhood_values(self):
        b11 = neighborhood_potential_bound(0.13)
        b10 = neighborhood_potential_bound(0.26)
        assert b11 == pytest.approx(0.9932389062477238, abs=1e-12)
        assert b10 == pytest.approx(0.979469316642573, abs=1e-12)
        assert b11 <= 0.9934
        assert b10 <= 0.9796
        # strictly below the nearest competing critical value
        assert b11 < math.sqrt(2.0 / 3.0) * theta(6, 5)
        assert math.sqrt(2.0 / 3.0) * theta(6, 5) == pytest.approx((2.0 / 9.0) * math.sqrt(20.0), abs=1e-15)
        assert b10 < math.sqrt(2.0 / 3.0) * theta(5, 5)
        assert math.sqrt(2.0 / 3.0) * theta(5, 5) == pytest.approx(2.0 * math.sqrt(6.0) / 5.0, abs=1e-15)

    def test_boundary_value_is_g2(self):
        assert neighborhood_potential_bound(math.pi / 6.0) == pytest.approx(
            5.0 * math.sqrt(3.0) / 9.0, abs=1e-14
        )

    @pytest.mark.parametrize("gamma", [0.13, 0.26, math.pi / 6.0])
    def test_closed_form_is_the_alpha_maximum(self, gamma):
        grid = np.linspace(-2.0, 1.0 / 3.0, 30001)
        vals = (
            np.cos(gamma) ** 3
            + 3.0 * grid * np.cos(gamma) * np.sin(gamma) ** 2
            + np.sin(gamma) ** 3 * np.sqrt(1.0 - 2.0 * grid) * (1.0 + grid)
        )
        assert vals.max() <= neighborhood_potential_bound(gamma) + 1e-12
        assert vals.max() == pytest.approx(neighborhood_potential_bound(gamma), abs=1e-8)

    def test_mpmath_backend(self):
        with mpmath.workdps(40):
            hi = neighborhood_potential_bound(0.13, lib=mpmath)
        assert float(hi) == pytest.approx(neighborhood_potential_bound(0.13), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            neighborhood_potential_bound(0.0)
        with pytest.raises(ArgumentError):
            neighborhood_potential_bound(1.0)
