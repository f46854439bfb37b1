"""Tests for report records, rendering, and canonical JSON."""

import csv
import io
import json

import numpy as np
import pytest

from curvlab.errors import ArgumentError
from curvlab.report import (
    SCHEMA,
    CheckRecord,
    SuiteReport,
    canonical_json,
    clusters_to_csv,
    render_csv,
    render_markdown,
    render_report,
)
from curvlab.spectral_decomp import eigen_report


def _record(name="alpha", status="pass", computed=1e-12):
    return CheckRecord(
        name=name,
        tag="plumbing",
        expected=0.0,
        computed=computed,
        tolerance=1e-9,
        status=status,
    )


def _report(records=None):
    records = records if records is not None else (_record(), _record("beta", "flag"))
    return SuiteReport(
        seed=0, dims=(4, 5), records=tuple(records), runtime_seconds=0.25
    )


class TestRecords:
    def test_rejects_bad_status(self):
        with pytest.raises(ArgumentError):
            _record(status="maybe")

    def test_rejects_missing_tag(self):
        with pytest.raises(ArgumentError):
            CheckRecord(
                name="x", tag="", expected=0.0, computed=0.0,
                tolerance=1.0, status="pass",
            )

    def test_counts_and_exit_code(self):
        rep = _report()
        assert rep.counts == {"pass": 1, "fail": 0, "flag": 1}
        assert rep.exit_code == 0
        rep = _report((_record(), _record("beta", "fail")))
        assert rep.counts["fail"] == 1
        assert rep.exit_code == 1


class TestJson:
    def test_schema_and_shape(self):
        payload = _report().to_json_dict()
        assert payload["schema"] == SCHEMA == "curvlab-report/2"
        assert payload["dims"] == [4, 5]
        assert len(payload["checks"]) == 2
        assert "runtime_seconds" not in payload
        assert "runtime_seconds" in _report().to_json_dict(include_runtime=True)

    def test_round_trip(self):
        text = canonical_json(_report().to_json_dict())
        again = json.loads(text)
        assert canonical_json(again) == text

    def test_canonical_form(self):
        text = canonical_json({"b": 1.5, "a": [1, 2]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


class TestRenderers:
    def test_markdown(self):
        text = render_markdown(_report())
        lines = text.splitlines()
        assert lines[0].startswith("# curvlab verification report")
        assert "pass 1, fail 0, flag 1" in text
        assert lines[4].startswith("| name | tag | expected |")
        assert len(lines) == 6 + 2

    def test_csv_parses_back(self):
        rows = list(csv.reader(io.StringIO(render_csv(_report()))))
        assert rows[0][:3] == ["name", "tag", "expected"]
        assert len(rows) == 3
        assert rows[1][0] == "alpha"

    def test_render_report_dispatch(self):
        rep = _report()
        assert render_report(rep, "json").startswith("{")
        assert render_report(rep, "markdown").startswith("#")
        assert "alpha" in render_report(rep, "csv")
        with pytest.raises(ArgumentError):
            render_report(rep, "yaml")


class TestClusterCsv:
    def test_rows_per_cluster(self):
        rep = eigen_report(np.diag([2.0, 1.0, 1.0]))
        rows = clusters_to_csv(rep).strip().splitlines()
        assert rows[0] == "mean,multiplicity"
        assert len(rows) == 3
        assert rows[1].endswith(",1") and rows[2].endswith(",2")
