"""Tests for the curvlab command line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import curvlab
from curvlab.cli import main
from curvlab.model_spaces import theta_threshold


@pytest.fixture
def runner():
    return CliRunner()


def fresh_interpreter_loads(module, *commands):
    """Whether `module` is in sys.modules of a fresh interpreter, after
    `import curvlab` and then after each command, run through cli.main."""
    script = (
        "import sys\n"
        "import curvlab\n"
        "from curvlab.cli import main\n"
        f"loaded = [{module!r} in sys.modules]\n"
        f"for args in {list(commands)!r}:\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as done:\n"
        "        assert done.code == 0, done.code\n"
        f"    loaded.append({module!r} in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(curvlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(result.stdout.splitlines()[-1].lower())


def test_mpmath_loads_only_for_the_certificate_chain():
    # mpmath costs a cold command 23-43 ms and 3.7 MiB; the certificate
    # chain itself runs in float64, and only verify's 50-digit identity
    # oracle for that chain (suite._check_certificate_identity) imports it
    loaded = fresh_interpreter_loads(
        "mpmath",
        ["tables", "--table", "hessian", "--dim", "8"],
        ["flow", "--dim", "6", "--steps", "5"],
        ["certify", "--dim", "11"],
        ["verify", "--dim", "10"],
    )
    assert loaded == [False, False, False, False, True]


class TestVerify:
    def test_json_report(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "4", "--seed", "7"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["schema"] == "curvlab-report/2"
        assert payload["seed"] == 7
        assert payload["counts"]["fail"] == 0
        assert "runtime_seconds" not in payload

    def test_include_runtime(self, runner):
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--include-runtime"]
        )
        assert "runtime_seconds" in json.loads(result.stdout)

    def test_byte_identical_for_same_seed(self, runner):
        args = ["verify", "--dim", "4", "--seed", "5"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.stdout == b.stdout

    def test_usage_error_on_bad_dim(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "3"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["verify", "--dim", "21"])
        assert result.exit_code == 2
        assert "dimension 21 outside supported range 4..20" in result.output

    def test_below_the_basis_range_runs_the_basis_free_rows(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "4"])
        assert result.exit_code == 0
        checks = json.loads(result.stdout)["checks"]
        families = {c["name"].split("[")[0] for c in checks}
        assert len(families) == 12
        assert not families & {"weyl-dimension", "hessian-clusters"}

    def test_dimension_sixteen_passes(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "16"])
        assert result.exit_code == 0
        checks = json.loads(result.stdout)["checks"]
        # the twelve basis-free rows and weyl-dimension
        assert len(checks) == 13
        assert "weyl-dimension[n=16]" in {c["name"] for c in checks}
        assert {c["status"] for c in checks} == {"pass"}

    def test_usage_error_on_bad_tol(self, runner):
        assert runner.invoke(main, ["verify", "--tol", "nope=1"]).exit_code == 2
        assert runner.invoke(main, ["verify", "--tol", "bw-identity"]).exit_code == 2
        assert (
            runner.invoke(main, ["verify", "--tol", "bw-identity=abc"]).exit_code == 2
        )
        # checks that never read their tolerance accept no override
        for family in ("certificate-quoted", "shi-table", "weyl-dimension"):
            result = runner.invoke(main, ["verify", "--tol", f"{family}=1"])
            assert result.exit_code == 2

    def test_failure_exit_code(self, runner):
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--tol", "bw-identity=0"]
        )
        assert result.exit_code == 1

    def test_out_file(self, runner, tmp_path):
        path = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--out", str(path)]
        )
        assert result.exit_code == 0
        assert json.loads(path.read_text())["dims"] == [4]

    def test_io_error_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["verify", "--dim", "4", "--out", str(tmp_path / "no" / "dir.json")],
        )
        assert result.exit_code == 3

    def test_no_jobs_setting(self, runner):
        # the suite runs in one thread: --jobs is unknown, CURVLAB_JOBS inert
        args = ["verify", "--dim", "4"]
        assert runner.invoke(main, args + ["--jobs", "2"]).exit_code == 2
        plain = runner.invoke(main, args)
        with_env = runner.invoke(main, args, env={"CURVLAB_JOBS": "2"})
        assert plain.exit_code == with_env.exit_code == 0
        assert with_env.stdout == plain.stdout

    def test_no_cluster_tol_setting(self, runner):
        # the report records every suite input; the cluster tolerance is fixed
        args = ["verify", "--dim", "4", "--cluster-tol", "1e-3"]
        assert runner.invoke(main, args).exit_code == 2

    def test_runtime_only_in_json(self, runner):
        for fmt in ("markdown", "csv"):
            args = ["verify", "--dim", "4", "--format", fmt, "--include-runtime"]
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert "--include-runtime applies only to --format json" in result.output

    def test_markdown_format(self, runner):
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--format", "markdown"]
        )
        assert result.stdout.startswith("# curvlab verification report")


class TestCertify:
    def test_json_payload(self, runner):
        result = runner.invoke(main, ["certify", "--dim", "11", "--mode", "quoted"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["n"] == 11
        assert payload["verdict"] == "fails_at_quoted_constants"
        assert payload["flags"]

    def test_markdown_payload(self, runner):
        result = runner.invoke(main, ["certify", "--format", "markdown"])
        assert result.exit_code == 0
        assert "| verdict |" in result.stdout
        assert "Flags:" in result.stdout

    def test_mode_alias(self, runner):
        result = runner.invoke(
            main, ["certify", "--dim", "11", "--mode", "paper-constants"]
        )
        assert json.loads(result.stdout)["mode"] == "quoted"

    def test_bad_dim_is_usage_error(self, runner):
        assert runner.invoke(main, ["certify", "--dim", "9"]).exit_code == 2


class TestTables:
    def test_default_table_layout(self, runner):
        result = runner.invoke(main, ["tables"])
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "| n | C1 | C2 | C3 | C1_table | C2_table | C3_table |"
        assert len(lines) == 6

    def test_hessian_csv_has_seven_clusters(self, runner):
        result = runner.invoke(
            main,
            ["tables", "--table", "hessian", "--dim", "10", "--format", "csv"],
        )
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0] == ["mean", "multiplicity"]
        assert len(rows) == 8
        assert [int(r[1]) for r in rows[1:]] == [1, 26, 78, 483, 156, 24, 2]

    def test_hessian_markdown_rows_parse(self, runner):
        # the layout the benchmark's hessian gate reads back
        result = runner.invoke(main, ["tables", "--table", "hessian", "--dim", "10"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[:2] == ["| mean | multiplicity |", "| --- | --- |"]
        rows = [line.strip("|").split("|") for line in lines[2:]]
        means = [float(mean) for mean, _ in rows]
        mults = [int(mult) for _, mult in rows]
        assert mults == [1, 26, 78, 483, 156, 24, 2]
        ladder = (1.0, 0.5, 1.0 / 3.0, 0.0, -1.0 / 6.0, -0.5, -1.0)
        for mean, step in zip(means, ladder):
            assert abs(mean - math.sqrt(1.5) * step) < 1e-8

    def test_hessian_zero_cluster_prints_zero(self, runner):
        # the zero cluster's mean is rounding noise; the table prints it
        # rounded, so its bytes do not depend on the summation order
        result = runner.invoke(
            main,
            ["tables", "--table", "hessian", "--dim", "10", "--format", "csv"],
        )
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[4] == ["0.0", "483"]
        for mean, _ in rows[1:]:
            assert mean == repr(round(float(mean), 12))

    def test_hessian_requires_single_dim(self, runner):
        assert runner.invoke(main, ["tables", "--table", "hessian"]).exit_code == 2

    def test_blocks_table(self, runner):
        result = runner.invoke(
            main,
            ["tables", "--table", "blocks", "--dim", "10", "--split", "4",
             "--format", "csv"],
        )
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0] == ["block", "dimension"]
        assert sum(int(r[1]) for r in rows[1:]) == 770

    def test_blocks_markdown_title(self, runner):
        result = runner.invoke(
            main, ["tables", "--table", "blocks", "--dim", "10", "--split", "4"]
        )
        lines = result.stdout.splitlines()
        assert lines[:4] == [
            "# Weyl blocks (n=10, split 4+6, total 770)",
            "",
            "| block | dimension |",
            "| --- | --- |",
        ]
        assert lines[4] == "| product_weyl_span | 1 |"

    @pytest.mark.parametrize(
        "args",
        [
            ["--table", "shi", "--split", "3"],
            ["--table", "hessian", "--dim", "8", "--split", "3"],
        ],
        ids=["shi-split", "hessian-split"],
    )
    def test_option_the_table_ignores(self, runner, args):
        result = runner.invoke(main, ["tables", *args])
        assert result.exit_code == 2
        assert "applies only to --table" in result.output

    @pytest.mark.parametrize("which", ["shi", "hessian", "blocks"])
    def test_no_cluster_tol_option(self, runner, which):
        # the Hessian table clusters at eigen_report's fixed _CLUSTER_TOL
        args = ["tables", "--table", which, "--dim", "8", "--cluster-tol", "1e-8"]
        assert runner.invoke(main, args).exit_code == 2

    @pytest.mark.parametrize("which", ["hessian", "blocks"])
    @pytest.mark.parametrize(
        "dims", [[], ["--dim", "8", "--dim", "9"]], ids=["none", "two"]
    )
    def test_one_dim_rule_names_its_table(self, runner, which, dims):
        result = runner.invoke(main, ["tables", "--table", which, *dims])
        assert result.exit_code == 2
        assert f"{which} table needs exactly one --dim" in result.output

    def test_hessian_does_not_import_numpy_ma(self):
        # np.unique without an optional output imports numpy.ma (about 20 ms
        # of a cold command)
        loaded = fresh_interpreter_loads(
            "numpy.ma", ["tables", "--table", "hessian", "--dim", "12"]
        )
        assert loaded == [False, False]

    def test_blocks_bad_split(self, runner):
        result = runner.invoke(
            main, ["tables", "--table", "blocks", "--dim", "10", "--split", "9"]
        )
        assert result.exit_code == 2


class TestFlow:
    def test_product_start_is_fixed_point(self, runner):
        result = runner.invoke(
            main,
            ["flow", "--dim", "6", "--steps", "40", "--start", "product",
             "--sample-every", "20"],
        )
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0] == ["t", "P", "residual"]
        values = {float(r[1]) for r in rows[1:]}
        assert len(values) == 1
        assert all(float(r[2]) < 1e-12 for r in rows[1:])

    def test_random_start_writes_csv(self, runner, tmp_path):
        path = tmp_path / "trajectory.csv"
        result = runner.invoke(
            main,
            ["flow", "--dim", "5", "--steps", "30", "--seed", "2",
             "--out", str(path)],
        )
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == ["t", "P", "residual"]
        assert len(rows) >= 3
        potentials = [float(r[1]) for r in rows[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(potentials, potentials[1:]))

    def test_bad_dim_is_usage_error(self, runner):
        assert runner.invoke(main, ["flow", "--dim", "3"]).exit_code == 2

    @pytest.mark.parametrize("every", ["0", "-4"])
    def test_sample_every_below_one_is_usage_error(self, runner, every):
        args = ["flow", "--dim", "5", "--steps", "3", "--sample-every", every]
        assert runner.invoke(main, args).exit_code == 2

    def test_fixed_step(self, runner):
        args = ["flow", "--dim", "5", "--steps", "4", "--dt", "0.01"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stderr.startswith("final: t=0.0400 ")

    @pytest.mark.parametrize("seed", [0, 13])
    def test_final_potential_matches_recorded_trajectory(self, runner, seed):
        # the benchmark's recorded final P of `flow --dim 11 --steps 500`
        # (seed 13 ends near a saddle), to its tolerance of 1e-11: a change
        # to the RK4 arithmetic or the kernels that moves the trajectory
        # beyond rounding fails here
        benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
        reference = json.loads((benchmarks / "flow11_reference.json").read_text())
        want = reference["final_P"][seed]
        args = ["flow", "--dim", "11", "--steps", "500", "--seed", str(seed)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert abs(float(rows[-1][1]) - want) <= 1e-11

    def test_long_flow_reaches_the_product_point(self, runner):
        # seed 0 at n = 11 ends at the S^6 x S^5 point, near which rounding
        # drift off the Weyl space grows along the flow; each step removes
        # it, so the run neither stops nor ends off the critical point
        args = ["flow", "--dim", "11", "--steps", "2000", "--seed", "0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert abs(float(rows[-1][1]) - theta_threshold(11)) <= 1e-12
        final = dict(item.split("=") for item in result.stderr.split()[1:])
        assert float(final["residual"]) <= 1e-12

    @pytest.mark.parametrize("dt", ["0", "-1"])
    def test_step_not_above_zero_is_usage_error(self, runner, dt):
        # refused by the option itself, so even a run of no steps fails
        args = ["flow", "--dim", "5", "--steps", "0", "--dt", dt]
        assert runner.invoke(main, args).exit_code == 2

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_step_not_finite_is_refused(self, runner, dt):
        args = ["flow", "--dim", "5", "--steps", "3", "--dt", dt]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "finite and positive" in result.stderr
