"""Tests for the verification suite runner."""

import pytest

from curvlab.errors import ArgumentError
from curvlab.report import canonical_json
from curvlab.suite import DEFAULT_TOLERANCES, SUPPORTED_DIMS, run_suite


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
        for dims in ([3], [13], [0]):
            with pytest.raises(ArgumentError):
                run_suite(dims=dims)
        assert set(SUPPORTED_DIMS) == set(range(4, 13))

    def test_rejects_duplicates(self):
        with pytest.raises(ArgumentError):
            run_suite(dims=[5, 5])

    def test_rejects_unknown_tolerance(self):
        with pytest.raises(ArgumentError):
            run_suite(dims=[4], tolerances={"no-such-check": 1e-3})

    def test_tolerance_override_can_force_failure(self):
        report = run_suite(dims=[4], seed=0, tolerances={"bw-identity": 0.0})
        record = next(r for r in report.records if r.name == "bw-identity[n=4]")
        assert record.status == "fail"
        assert report.exit_code == 1

    def test_default_tolerances_cover_families(self):
        prefixes = {r.name.split("[")[0] for r in run_suite(dims=[4, 5]).records}
        assert prefixes <= set(DEFAULT_TOLERANCES) | {"certificate-quoted"}


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
