"""Tests for report records, rendering, and canonical JSON."""

import csv
import io
import json
import math

import numpy as np
import pytest

from curvlab.errors import ArgumentError
from curvlab.report import (
    SCHEMA,
    CheckRecord,
    SuiteReport,
    canonical_json,
    render_report,
    render_table,
)
from curvlab.spectral_decomp import eigen_report
from curvlab.suite import run_suite


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

    def test_non_finite_values_are_strings(self):
        # a failing record with a NaN residual under an infinite tolerance
        # renders JSON that a strict RFC 8259 parser reads
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        record = CheckRecord(
            name="alpha", tag="plumbing", expected=-math.inf, computed=math.nan,
            tolerance=math.inf, status="fail",
        )
        text = render_report(_report((record,)), "json")
        (check,) = json.loads(text, parse_constant=refuse)["checks"]
        got = (check["expected"], check["computed"], check["tolerance"])
        assert got == ("-inf", "nan", "inf")
        assert canonical_json({"x": [np.float64("nan"), (1.5, -math.inf)]}) == (
            '{\n  "x": [\n    "nan",\n    [\n      1.5,\n      "-inf"\n    ]\n  ]\n}\n'
        )

    def test_verify_seed_0_keeps_its_bytes(self):
        # every value of verify --seed 0 is finite, so its JSON is byte for
        # byte what plain json.dumps writes
        payload = run_suite(seed=0).to_json_dict()
        assert canonical_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_canonical_form(self):
        text = canonical_json({"b": 1.5, "a": [1, 2]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


class TestRenderers:
    def test_markdown(self):
        text = render_report(_report(), "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("# curvlab verification report")
        assert "pass 1, fail 0, flag 1" in text
        assert lines[4].startswith("| name | tag | expected |")
        assert len(lines) == 6 + 2

    def test_csv_parses_back(self):
        rows = list(csv.reader(io.StringIO(render_report(_report(), "csv"))))
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

    def test_numpy_float_cells_are_plain_numbers(self):
        rep = _report((_record(computed=np.float64(0.5)),))
        for fmt in ("markdown", "csv"):
            text = render_report(rep, fmt)
            assert "0.5" in text
            assert "np.float64" not in text
        assert json.loads(render_report(rep, "json"))["checks"][0]["computed"] == 0.5


class TestRenderTable:
    def test_markdown_layout(self):
        text = render_table(("a", "b"), [(1, "x"), (2.5, "")], "markdown")
        assert text == "| a | b |\n| --- | --- |\n| 1 | x |\n| 2.5 |  |\n"

    def test_csv_quotes_commas(self):
        text = render_table(("a", "b"), [("1,2", 'say "hi"')], "csv")
        assert text == 'a,b\r\n"1,2","say ""hi"""\r\n'
        assert list(csv.reader(io.StringIO(text))) == [["a", "b"], ["1,2", 'say "hi"']]

    def test_numpy_float_is_plain_number(self):
        value = np.float64(0.1) + np.float64(0.2)
        for fmt in ("markdown", "csv"):
            text = render_table(("t",), [(value,)], fmt)
            assert repr(0.1 + 0.2) in text
            assert "np.float64" not in text

    def test_unknown_format(self):
        with pytest.raises(ArgumentError):
            render_table(("a",), [(1,)], "latex")


class TestClusterCsv:
    def test_rows_per_cluster(self):
        rep = eigen_report(np.diag([2.0, 1.0, 1.0]))
        text = render_table(("mean", "multiplicity"), rep.clusters, "csv")
        rows = text.strip().splitlines()
        assert rows[0] == "mean,multiplicity"
        assert len(rows) == 3
        assert rows[1].endswith(",1") and rows[2].endswith(",2")
