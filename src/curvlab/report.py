"""Machine-readable verification reports and their renderers.

A report is a flat list of check records, each tagged with the catalogue
result it reproduces (or "plumbing" for pure software invariants).  The JSON
rendering is canonical: keys sorted, two-space indent, no timestamps unless
asked for, so identical seed and configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import ArgumentError

SCHEMA = "curvlab-report/2"

_STATUSES = ("pass", "fail", "flag")
_FORMATS = ("json", "markdown", "csv")


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check.

    status "pass"/"fail" is self-explanatory; "flag" marks a mismatch against
    a catalogued value whose recomputed chain is internally consistent, which
    warns without failing the run.
    """

    name: str
    tag: str
    expected: float | str
    computed: float | str
    tolerance: float
    status: str
    detail: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ArgumentError(f"unknown status {self.status!r}")
        if not self.tag:
            raise ArgumentError(
                "every check carries a result anchor or the 'plumbing' tag"
            )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "expected": self.expected,
            "computed": self.computed,
            "tolerance": self.tolerance,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SuiteReport:
    """All records of one suite run, ordered by check name."""

    seed: int
    dims: tuple
    records: tuple
    runtime_seconds: float
    schema: str = SCHEMA

    @property
    def counts(self) -> dict:
        out = {status: 0 for status in _STATUSES}
        for record in self.records:
            out[record.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 0 if self.counts["fail"] == 0 else 1

    def to_json_dict(self, include_runtime: bool = False) -> dict:
        payload = {
            "schema": self.schema,
            "seed": self.seed,
            "dims": list(self.dims),
            "counts": self.counts,
            "checks": [record.to_json_dict() for record in self.records],
        }
        if include_runtime:
            payload["runtime_seconds"] = self.runtime_seconds
        return payload


def canonical_json(payload: dict) -> str:
    """Stable JSON: sorted keys, fixed indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


_COLUMNS = ("name", "tag", "expected", "computed", "tolerance", "status", "detail")


def render_markdown(report: SuiteReport) -> str:
    counts = report.counts
    lines = [
        f"# curvlab verification report (seed {report.seed}, "
        f"dims {list(report.dims)})",
        "",
        f"pass {counts['pass']}, fail {counts['fail']}, flag {counts['flag']}",
        "",
        "| " + " | ".join(_COLUMNS) + " |",
        "| " + " | ".join("---" for _ in _COLUMNS) + " |",
    ]
    for record in report.records:
        row = [_cell(getattr(record, col)) for col in _COLUMNS]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def render_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_COLUMNS)
    for record in report.records:
        writer.writerow([_cell(getattr(record, col)) for col in _COLUMNS])
    return buf.getvalue()


def render_report(
    report: SuiteReport, fmt: str, include_runtime: bool = False
) -> str:
    if fmt == "json":
        return canonical_json(report.to_json_dict(include_runtime=include_runtime))
    if fmt == "markdown":
        return render_markdown(report)
    if fmt == "csv":
        return render_csv(report)
    raise ArgumentError(f"unknown report format {fmt!r}; use one of {_FORMATS}")


def clusters_to_csv(spectral) -> str:
    """CSV of an eigenvalue clustering: one row per cluster, descending."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["mean", "multiplicity"])
    for mean, mult in spectral.clusters:
        writer.writerow([repr(float(mean)), int(mult)])
    return buf.getvalue()
