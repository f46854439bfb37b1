"""Machine-readable verification reports, and render_table, the one writer
of every Markdown and CSV table the commands print.

A report is a flat list of check records, each tagged with the catalogue
result it reproduces (or "plumbing" for pure software invariants).  The JSON
rendering is canonical: keys sorted, two-space indent, no timestamps unless
asked for, so identical seed and configuration produce byte-identical files;
non-finite floats are written as the strings "nan", "inf" and "-inf".

A table is Markdown (header, `| --- |` rule, one line per row) or RFC 4180
CSV with CRLF line ends; floats are written with repr, so they read back.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

from .errors import ArgumentError

SCHEMA = "curvlab-report/2"

_STATUSES = ("pass", "fail", "flag")


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
            "checks": [asdict(record) for record in self.records],
        }
        if include_runtime:
            payload["runtime_seconds"] = self.runtime_seconds
        return payload


def _finite(value):
    """value with every non-finite float, at any depth, as "nan", "inf" or "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def canonical_json(payload: dict) -> str:
    """Stable RFC 8259 JSON: sorted keys, fixed indent, trailing newline.

    A NaN or infinite float is written as the string "nan", "inf" or "-inf",
    since JSON has no token for it.
    """
    return json.dumps(_finite(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cell(value) -> str:
    # float() first: a numpy float64 repr reads "np.float64(...)" under numpy 2
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def render_table(columns, rows, fmt: str) -> str:
    """A header row and one line per row, as Markdown or RFC 4180 CSV."""
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(columns) + " |",
            "| " + " | ".join("---" for _ in columns) + " |",
        ]
        lines += ["| " + " | ".join(_cell(v) for v in row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)
        return buf.getvalue()
    raise ArgumentError(f"unknown table format {fmt!r}; use markdown or csv")


_COLUMNS = ("name", "tag", "expected", "computed", "tolerance", "status", "detail")


def render_report(
    report: SuiteReport, fmt: str, include_runtime: bool = False
) -> str:
    """The report as canonical JSON, a titled Markdown table, or CSV."""
    if fmt == "json":
        return canonical_json(report.to_json_dict(include_runtime=include_runtime))
    rows = [[getattr(record, col) for col in _COLUMNS] for record in report.records]
    table = render_table(_COLUMNS, rows, fmt)
    if fmt != "markdown":
        return table
    counts = report.counts
    return (
        f"# curvlab verification report (seed {report.seed}, "
        f"dims {list(report.dims)})\n\n"
        f"pass {counts['pass']}, fail {counts['fail']}, flag {counts['flag']}\n\n"
        + table
    )
