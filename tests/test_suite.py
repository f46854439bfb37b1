"""Tests for the verification suite runner."""

import json
import math
from collections.abc import Container
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from curvlab import curvature_core, suite
from curvlab.cli import main
from curvlab.errors import ArgumentError
from curvlab.report import canonical_json
from curvlab.spectral_decomp import BASIS_DIMS, SpectralReport, weyl_basis
from curvlab.suite import DEFAULT_TOLERANCES, run_suite


def _json_bytes(report):
    return canonical_json(report.to_json_dict())


class TestSmoke:
    def test_low_dims_all_pass(self):
        report = run_suite(dims=[4, 5], seed=7)
        assert report.counts["fail"] == 0
        assert report.counts["flag"] == 0
        assert report.exit_code == 0
        assert report.counts["pass"] == len(report.records)

    def test_records_sorted_and_tagged(self):
        report = run_suite(dims=[4, 5], seed=7)
        names = [r.name for r in report.records]
        assert names == sorted(names)
        assert all(r.tag for r in report.records)

    def test_dimension_eight_flags_table_cells(self):
        report = run_suite(dims=[8], seed=0)
        assert report.exit_code == 0
        shi = [r for r in report.records if r.name == "shi-table[n=8]"]
        assert len(shi) == 1 and shi[0].status == "flag"
        assert "C1" in shi[0].computed and "C3" in shi[0].computed


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = run_suite(dims=[4, 5], seed=3)
        b = run_suite(dims=[4, 5], seed=3)
        assert _json_bytes(a) == _json_bytes(b)

    def test_different_seed_differs(self):
        a = run_suite(dims=[4], seed=3)
        b = run_suite(dims=[4], seed=4)
        assert _json_bytes(a) != _json_bytes(b)


class TestConfig:
    def test_rejects_out_of_range_dim(self):
        for dims in ([3], [21], [0]):
            with pytest.raises(ArgumentError, match="supported range 4..20"):
                run_suite(dims=dims)

    def test_accepts_the_top_dims(self):
        # the twelve basis-free rows and weyl-dimension, at each n
        report = run_suite(dims=[17, 20])
        assert report.dims == (17, 20)
        assert len(report.records) == 26
        assert report.counts["pass"] == 26

    def test_rejects_duplicates(self):
        with pytest.raises(ArgumentError):
            run_suite(dims=[5, 5])

    def test_rejects_unknown_tolerance(self):
        with pytest.raises(ArgumentError):
            run_suite(dims=[4], tolerances={"no-such-check": 1e-3})

    def test_dims_are_whole_numbers(self):
        # int(4.5) would run n = 4
        with pytest.raises(ArgumentError, match="need n >= 0, got 4.5"):
            run_suite(dims=[4.5])
        assert run_suite(dims=[np.int64(4), 5.0]).dims == (4, 5)

    @pytest.mark.parametrize("value", [math.nan, -1.0, "x", None])
    def test_rejects_bad_tolerance(self, value):
        # a NaN or negative tolerance would fail every record of its family
        with pytest.raises(ArgumentError, match="'bw-identity' must be a number >= 0"):
            run_suite(dims=[4], tolerances={"bw-identity": value})

    def test_accepts_infinite_tolerance(self):
        report = run_suite(dims=[4], tolerances={"bw-identity": math.inf})
        assert report.counts["fail"] == 0

    def test_tolerance_override_can_force_failure(self):
        report = run_suite(dims=[4], seed=0, tolerances={"bw-identity": 0.0})
        record = next(r for r in report.records if r.name == "bw-identity[n=4]")
        assert record.status == "fail"
        assert report.exit_code == 1

    def test_default_tolerances_cover_families(self):
        records = {r.name: r for r in run_suite(dims=[4, 5]).records}
        prefixes = {name.split("[")[0] for name in records}
        fixed = {"certificate-quoted", "shi-table", "weyl-dimension"}
        assert prefixes <= set(DEFAULT_TOLERANCES) | fixed
        # a check without an override still records its table tolerance
        assert records["weyl-dimension[n=5]"].tolerance == 0.5


class TestHighDims:
    def test_dimension_ten_checks(self):
        report = run_suite(dims=[10], seed=0)
        by_name = {r.name: r for r in report.records}
        assert by_name["hessian-clusters[n=10]"].status == "pass"
        assert by_name["neighborhood-bound[n=10]"].status == "pass"
        assert by_name["certificate-identity[n=10]"].status == "pass"
        assert by_name["shi-table[n=10]"].status == "flag"
        assert report.exit_code == 0

    def test_dimension_eleven_quoted_certificate_flag(self):
        report = run_suite(dims=[11], seed=0)
        by_name = {r.name: r for r in report.records}
        record = by_name["certificate-quoted[n=11]"]
        assert record.status == "flag"
        assert "not reproduced" in record.detail
        assert by_name["hessian-clusters[n=11]"].status == "pass"
        assert report.exit_code == 0


class TestHessianClusters:
    def test_closed_form_multiplicities(self):
        assert suite._ladder_multiplicities(10) == [1, 26, 78, 483, 156, 24, 2]
        assert suite._ladder_multiplicities(11) == [1, 30, 105, 768, 210, 28, 2]
        record = suite._check_hessian_clusters(10, None, 1e-8)
        assert record["status"] == "pass"
        assert record["detail"] == "multiplicities [1, 26, 78, 483, 156, 24, 2]"

    @pytest.mark.parametrize("rung", range(7))
    def test_one_wrong_expected_multiplicity_fails(self, monkeypatch, rung):
        closed = suite._ladder_multiplicities

        def wrong(n):
            mults = closed(n)
            mults[rung] += 1
            return mults

        monkeypatch.setattr(suite, "_ladder_multiplicities", wrong)
        record = suite._check_hessian_clusters(10, None, 1e-8)
        assert record["status"] == "fail"
        assert record["detail"].startswith("multiplicities [1, 26, 78, 483, 156, 24, 2] "
                                           "!= closed form")

    def test_merged_rungs_fail(self, monkeypatch):
        # six clusters for seven rungs: the multiplicities differ in length
        report = suite.eigen_report

        def merged(h):
            rep = report(h)
            (top, a), (_, b), *rest = rep.clusters
            return SpectralReport(((top, a + b), *rest))

        monkeypatch.setattr(suite, "eigen_report", merged)
        record = suite._check_hessian_clusters(10, None, 1e-8)
        assert record["status"] == "fail"
        assert record["detail"].startswith("multiplicities [27, 78, 483, 156, 24, 2] "
                                           "!= closed form")


def checked(family, n):
    """The fields one registry row's check returns at n, at its default
    tolerance and with a generator seeded 0."""
    _, _, tol, _, check = next(row for row in suite._REGISTRY if row[0] == family)
    return check(n, np.random.default_rng(0), tol)


class TestNaNResiduals:
    """A NaN residual fails its record: the reduction keeps it, where a
    Python max would drop every NaN after the first value."""

    @staticmethod
    def assert_nan_fails(fields):
        assert fields["status"] == "fail"
        assert math.isnan(fields["computed"])

    def test_second_residual_of_a_draw(self, monkeypatch):
        monkeypatch.setattr(suite, "bianchi_residual", lambda mat: math.nan)
        self.assert_nan_fails(checked("bianchi-idempotence", 6))

    def test_list_shaped_family(self, monkeypatch):
        theta = suite.theta
        monkeypatch.setattr(
            suite, "theta", lambda k, l: math.nan if k == 3 else theta(k, l)
        )
        self.assert_nan_fails(checked("product-potential", 8))

    def test_cluster_mean(self, monkeypatch):
        report = suite.eigen_report

        def planted(h):
            rep = report(h)
            clusters = list(rep.clusters)
            clusters[2] = (math.nan, clusters[2][1])
            return replace(rep, clusters=tuple(clusters))

        monkeypatch.setattr(suite, "eigen_report", planted)
        self.assert_nan_fails(suite._check_hessian_clusters(10, None, 1e-8))

    def test_nan_bound_fails_the_separation(self, monkeypatch):
        monkeypatch.setattr(suite, "neighborhood_potential_bound", lambda g: math.nan)
        assert checked("neighborhood-bound", 11)["status"] == "fail"

    def test_nan_in_the_sharp_kernel_passes_no_record(self, monkeypatch):
        # planted in both kernels: R # S, and Q(R) by the pair-Gram route
        def planted(kernel):
            def out(*args):
                mat = kernel(*args).copy()
                mat[0, 0] = np.nan
                return mat
            return out

        for name in ("_sharp_mat", "_q_gram"):
            monkeypatch.setattr(curvature_core, name,
                                planted(getattr(curvature_core, name)))
        status = {r.name: r.status for r in run_suite(dims=[6]).records}
        for family in ("bw-identity", "sharp-routes", "q-equivariance",
                       "sharp-equivariance", "tri-symmetry", "product-potential",
                       "flow-monotonicity"):
            assert status[f"{family}[n=6]"] != "pass", family


class TestCheckTable:
    def test_default_tolerances(self):
        # the names --tol accepts; certificate-quoted, shi-table and
        # weyl-dimension never read their tolerance, so they have none to
        # override
        assert DEFAULT_TOLERANCES == {
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
            "hessian-clusters": 1e-8,
            "neighborhood-bound": 5e-4,
            "certificate-identity": 1e-12,
            "flow-monotonicity": 1e-12,
        }
        for family in ("certificate-quoted", "shi-table", "weyl-dimension"):
            with pytest.raises(ArgumentError, match="known: bianchi-idempotence"):
                run_suite(dims=[4], tolerances={family: 1.0})

    def test_one_row_per_family(self):
        families = [row[0] for row in suite._REGISTRY]
        reported = {r.name.split("[")[0] for r in run_suite(dims=range(4, 12)).records}
        assert sorted(reported) == sorted(families)
        assert len(set(families)) == len(families)

    def test_row_dims_are_containers_within_the_accepted_range(self):
        accepted = set(range(4, 21))
        union = set()
        for family, _, _, dims, _ in suite._REGISTRY:
            assert isinstance(dims, Container), family
            assert set(dims) <= accepted, family
            union |= set(dims)
        assert union == accepted

    def test_basis_rows_read_the_basis_range(self):
        rows = {row[0]: row[3] for row in suite._REGISTRY}
        assert rows["weyl-dimension"] is BASIS_DIMS
        assert set(rows["hessian-clusters"]) <= set(BASIS_DIMS)
        with pytest.raises(ArgumentError, match="weyl_basis supports .* got 21"):
            weyl_basis(21)

    def test_tags_that_differ_from_the_family(self):
        tags = {family: tag for family, tag, *_ in suite._REGISTRY if tag != family}
        assert tags == {
            "hessian-clusters": "hessian-table",
            "certificate-identity": "certificate-chain",
            "certificate-quoted": "certificate-chain",
        }
        by_name = {r.name: r for r in run_suite(dims=[11]).records}
        assert by_name["hessian-clusters[n=11]"].tag == "hessian-table"
        assert by_name["certificate-quoted[n=11]"].tag == "certificate-chain"

    def test_raising_check_is_a_plumbing_failure(self, monkeypatch):
        def broken(n, rng, tol):
            raise ValueError(f"broken at n={n}")

        rows = tuple(
            row[:4] + (broken,) if row[0] == "tri-symmetry" else row
            for row in suite._REGISTRY
        )
        monkeypatch.setattr(suite, "_REGISTRY", rows)
        report = run_suite(dims=[4], tolerances={"tri-symmetry": 1e-5})
        record = next(r for r in report.records if r.name == "tri-symmetry[n=4]")
        assert (record.tag, record.status) == ("plumbing", "fail")
        assert (record.computed, record.detail) == ("ValueError", "broken at n=4")
        assert record.tolerance == 1e-5
        assert report.exit_code == 1
        result = CliRunner().invoke(main, ["verify", "--dim", "5"])
        assert result.exit_code == 1
        checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
        assert checks["tri-symmetry[n=5]"]["tag"] == "plumbing"
        assert checks["tri-symmetry[n=5]"]["tolerance"] == 1e-9
