"""The curvlab command: verify, certify, tables, flow.

Exit codes: 0 success (flags allowed), 1 check failures, 2 usage errors,
3 I/O errors.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

import click
import numpy as np

from . import __version__
from .certificate import alpha0_certificate
from .curvature_core import decompose
from .errors import ArgumentError
from .model_spaces import random_weyl, sphere_product, w_cp2
from .potential_flow import fixed_point_residual, flow_run, flow_state
from .report import canonical_json, render_report, render_table
from .shi_bounds import CATALOGUED_TABLE, table_rows
from .spectral_decomp import (
    decomposition_dims,
    eigen_report,
    hessian_matrix,
)
from .suite import DEFAULT_DIMS, run_suite


def _parse_tolerances(pairs) -> dict:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise click.UsageError(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise click.UsageError(f"--tol value for {name!r} is not a number")
    return out


def _write_output(text: str, out) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"cannot write {out}: {exc}", err=True)
        sys.exit(3)


@click.group()
@click.version_option(version=__version__, prog_name="curvlab")
def main():
    """Verification toolkit for algebraic curvature operators on so(n)."""


@main.command()
@click.option(
    "--dim", "dims", multiple=True, type=int,
    help="Dimension to check; repeatable. "
    f"Default: {DEFAULT_DIMS[0]}..{DEFAULT_DIMS[-1]}.",
)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option(
    "--tol", "tols", multiple=True, metavar="NAME=VALUE",
    help="Tolerance override; repeatable.",
)
@click.option("--out", type=click.Path(dir_okay=False), help="Write report here.")
@click.option(
    "--format", "fmt", default="json", show_default=True,
    type=click.Choice(["json", "markdown", "csv"]),
)
@click.option("--include-runtime", is_flag=True, help="Add runtime to the JSON.")
def verify(dims, seed, tols, out, fmt, include_runtime):
    """Run the verification suite and emit its report."""
    if include_runtime and fmt != "json":
        raise click.UsageError("--include-runtime applies only to --format json")
    try:
        report = run_suite(
            dims=dims or DEFAULT_DIMS,
            seed=seed,
            tolerances=_parse_tolerances(tols),
        )
    except ArgumentError as exc:
        raise click.UsageError(str(exc))
    _write_output(render_report(report, fmt, include_runtime=include_runtime), out)
    counts = report.counts
    click.echo(
        f"checks: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['flag']} flag",
        err=True,
    )
    sys.exit(report.exit_code)


def _certificate_markdown(cert) -> str:
    payload = asdict(cert)
    rows = [(key, payload[key]) for key in sorted(payload) if key != "flags"]
    text = f"# angle-margin certificate (n={cert.n}, mode {cert.mode})\n\n"
    text += render_table(("field", "value"), rows, "markdown")
    if cert.flags:
        text += "\nFlags:\n" + "".join(f"- {flag}\n" for flag in cert.flags)
    return text


@main.command()
@click.option("--dim", default=11, show_default=True, type=int)
@click.option(
    "--mode", default="recomputed", show_default=True,
    type=click.Choice(["recomputed", "quoted", "paper-constants"]),
)
@click.option("--out", type=click.Path(dir_okay=False))
@click.option(
    "--format", "fmt", default="json", show_default=True,
    type=click.Choice(["json", "markdown"]),
)
def certify(dim, mode, out, fmt):
    """Emit the full angle-margin certificate chain for one dimension."""
    try:
        cert = alpha0_certificate(dim, mode)
    except ArgumentError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        text = canonical_json(asdict(cert))
    else:
        text = _certificate_markdown(cert)
    _write_output(text, out)
    click.echo(f"verdict: {cert.verdict} ({len(cert.flags)} flags)", err=True)


_SHI_COLUMNS = ("n", "C1", "C2", "C3", "C1_table", "C2_table", "C3_table")


def _shi_table(dims) -> tuple:
    """Columns and cells of the derivative-bound table, formulas to 3 decimals;
    rows outside the catalogue leave its columns empty."""
    def cell(value):
        return f"{value:.3f}" if isinstance(value, float) else value

    rows = table_rows(dims)
    columns = [key for key in _SHI_COLUMNS if any(key in row for row in rows)]
    return columns, [[cell(row.get(key, "")) for key in columns] for row in rows]


@main.command()
@click.option(
    "--table", "which", default="shi", show_default=True,
    type=click.Choice(["shi", "hessian", "blocks"]),
)
@click.option(
    "--dim", "dims", multiple=True, type=int,
    help=f"shi: table rows (default {' '.join(map(str, CATALOGUED_TABLE))}); "
    "hessian/blocks: one dimension.",
)
@click.option("--split", default=None, type=int, help="blocks: the k of SO(k)xSO(l).")
@click.option(
    "--format", "fmt", default="markdown", show_default=True,
    type=click.Choice(["markdown", "csv"]),
)
@click.option("--out", type=click.Path(dir_okay=False))
def tables(which, dims, split, fmt, out):
    """Reproduce a catalogued table: derivative bounds, Hessian clusters,
    or decomposition dimensions."""
    if split is not None and which != "blocks":
        raise click.UsageError("--split applies only to --table blocks")
    if which != "shi" and len(dims) != 1:
        raise click.UsageError(f"{which} table needs exactly one --dim")
    title = ""
    try:
        if which == "shi":
            columns, rows = _shi_table(dims)
        elif which == "hessian":
            rep = eigen_report(hessian_matrix(w_cp2(dims[0])))
            # the zero cluster's mean is rounding noise of either sign; rounding
            # keeps the table's bytes independent of the summation order
            columns = ("mean", "multiplicity")
            rows = [(round(mean, 12) + 0.0, mult) for mean, mult in rep.clusters]
        else:
            n = dims[0]
            table = decomposition_dims(n, split if split is not None else n // 2)
            columns, rows = ("block", "dimension"), table.blocks.items()
            if fmt == "markdown":
                title = (
                    f"# Weyl blocks (n={n}, split {table.k}+{table.l}, "
                    f"total {table.weyl_total})\n\n"
                )
    except ArgumentError as exc:
        raise click.UsageError(str(exc))
    _write_output(title + render_table(columns, rows, fmt), out)


@main.command()
@click.option("--dim", default=11, show_default=True, type=int)
@click.option("--steps", default=500, show_default=True, type=int)
@click.option(
    "--dt", default=None, type=click.FloatRange(min=0, min_open=True),
    help="Fixed step; default adaptive.",
)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option(
    "--sample-every", default=10, show_default=True, type=click.IntRange(min=1)
)
@click.option(
    "--start", default="random", show_default=True,
    type=click.Choice(["random", "product"]),
    help="random unit Weyl operator, or the Weyl part of a sphere product.",
)
@click.option("--out", type=click.Path(dir_okay=False), help="Trajectory CSV.")
def flow(dim, steps, dt, seed, sample_every, start, out):
    """Run the projected potential flow and dump the sampled trajectory."""
    try:
        if start == "product":
            w = decompose(sphere_product(dim // 2, dim - dim // 2)).weyl.mat
            w = w / np.linalg.norm(w)
        else:
            w = random_weyl(np.random.default_rng(seed), dim)
        state = flow_run(flow_state(w), steps=steps, dt=dt, sample_every=sample_every)
    except ArgumentError as exc:
        raise click.UsageError(str(exc))
    _write_output(render_table(("t", "P", "residual"), state.history, "csv"), out)
    click.echo(
        f"final: t={state.t:.4f} P={state.potential:.12f} "
        f"residual={fixed_point_residual(state.w):.3e}",
        err=True,
    )


if __name__ == "__main__":
    main()
