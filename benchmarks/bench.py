"""The curvlab benchmark: cold CLI commands, timed from outside the package.

Run from the repository root:

    python3 benchmarks/bench.py --workload verify --seed 0 --seconds 42 --trace 0

Each sample is a fresh interpreter (benchmarks/child.py) that imports curvlab
from ./src and runs one `curvlab` command in-process, with BLAS threads
pinned to 1.  A run repeats samples of the workload's command while another
still fits in --seconds.  Every sample's output is checked; a crash, a timeout or a failed
check counts as a failed operation, and only correct samples are timed.

--trace 0 reports the end-to-end metrics (medians over the run's samples).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of benchmarks/spans.py plus trace.overhead_s, the traced minus the
untraced median wall time.

Lines before the last are for people (a metric table and an `env:` record of
git SHA, versions, BLAS build, thread settings, nproc and seed).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
FLOW_REFERENCE = os.path.join(HERE, "flow11_reference.json")

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
RUN_LIMIT_S = 170.0  # every run must end within 180 s

LADDER = (1.0, 1 / 2, 1 / 3, 0.0, -1 / 6, -1 / 2, -1.0)  # times sqrt(3/2)
CLUSTER_TOL = 1e-8  # the CLI's default --cluster-tol
MONOTONE_TOL = 1e-12  # curvlab's own flow-monotonicity tolerance
UNIT_TOL = 1e-10  # curvlab's FlowState unit-norm tolerance
WEYL_TOL = 1e-9  # curvlab's FlowState Ricci tolerance
# Final P against the seed commit's value.  flow11_reference.json records the
# largest change of any sampled P over its 16 seeds when the flow runs with 2
# BLAS threads (2.0e-15) or sums every kernel in another order (8.4e-15, on
# seed 13, which ends near a saddle).  A rewritten kernel may also change how
# far rounding errors grow, so the tolerance is FLOW_DRIFT_MARGIN times the
# larger drift, rounded up to a power of ten.  It is still far below the change
# a real defect makes to P.
FLOW_DRIFT_MARGIN = 1000
FLOW_P_TOL = 1e-11


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Workload:
    """A curvlab command line and the check its output must pass."""

    argv: Callable[[int], list]
    check: Callable[[dict, int], str | None]
    env: dict = field(default_factory=dict)


def weyl_dim(n: int) -> int:
    return (n - 3) * math.comb(n + 2, 3) // 2


def check_verify(result: dict, seed: int, *, passes: int, fails: int, flags: tuple):
    report = json.loads(result["stdout"])
    statuses = [check["status"] for check in report["checks"]]
    counts = {status: statuses.count(status) for status in ("pass", "fail", "flag")}
    want = {"pass": passes, "fail": fails, "flag": len(flags)}
    if counts != want or report["counts"] != want:
        return f"verify counts {report['counts']} (records {counts}), expected {want}"
    flagged = sorted(c["name"] for c in report["checks"] if c["status"] == "flag")
    if flagged != sorted(flags):
        return f"verify flags {flagged}, expected {sorted(flags)}"
    return None


def check_hessian(result: dict, seed: int, *, n: int, multiplicities: tuple):
    lines = result["stdout"].splitlines()
    if lines[:2] != ["| mean | multiplicity |", "| --- | --- |"]:
        return f"hessian table header {lines[:2]}"
    rows = [line.strip("|").split("|") for line in lines[2:]]
    means = [float(mean) for mean, _ in rows]
    mults = tuple(int(mult) for _, mult in rows)
    if len(means) != len(LADDER):
        return f"{len(means)} hessian clusters, expected {len(LADDER)}"
    worst = max(abs(m - math.sqrt(1.5) * v) for m, v in zip(means, LADDER))
    if worst > CLUSTER_TOL:
        return f"hessian cluster off the sqrt(3/2) ladder by {worst:.3e}"
    if sum(mults) != weyl_dim(n):
        return f"hessian multiplicities sum to {sum(mults)}, not {weyl_dim(n)}"
    if mults != tuple(multiplicities):
        return f"hessian multiplicities {mults}, expected {tuple(multiplicities)}"
    return None


def check_flow(result: dict, seed: int, *, reference: tuple | None):
    rows = list(csv.reader(io.StringIO(result["stdout"])))
    if not rows or rows[0] != ["t", "P", "residual"] or len(rows) < 2:
        return "flow trajectory CSV missing or malformed"
    values = [float(row[1]) for row in rows[1:]]
    drop = max((a - b for a, b in zip(values, values[1:])), default=0.0)
    if drop > MONOTONE_TOL:
        return f"flow P decreased by {drop:.3e}"
    final = result.get("final_state")
    if final is None:
        return "flow final state not captured"
    if final["norm_error"] > UNIT_TOL:
        return f"flow final state off the unit sphere by {final['norm_error']:.3e}"
    defect = max(final["asymmetry"], final["bianchi"], final["ricci"])
    if defect > WEYL_TOL:
        return f"flow final state is not Weyl (defect {defect:.3e})"
    if reference is not None:
        want = reference[seed % len(reference)]
        if abs(values[-1] - want) > FLOW_P_TOL:
            return f"flow final P {values[-1]!r}, reference {want!r}"
    return None


def workloads() -> dict:
    """The benchmark's workloads by name (see benchmarks/README.md)."""
    with open(FLOW_REFERENCE) as fh:
        flow_reference = tuple(json.load(fh)["final_P"])
    return {
        "verify": Workload(
            argv=lambda seed: ["verify", "--seed", str(seed)],
            check=functools.partial(
                check_verify, passes=113, fails=0,
                flags=("certificate-quoted[n=11]", "shi-table[n=8]", "shi-table[n=10]"),
            ),
            env={"CURVLAB_JOBS": "2"},
        ),
        "hessian-ladder-12": Workload(
            argv=lambda seed: ["tables", "--table", "hessian", "--dim", "12"],
            check=functools.partial(
                check_hessian, n=12, multiplicities=(1, 34, 136, 1161, 272, 32, 2)
            ),
        ),
        "flow-11": Workload(
            argv=lambda seed: [
                "flow", "--dim", "11", "--steps", "500",
                "--seed", str(seed % len(flow_reference)),
            ],
            check=functools.partial(check_flow, reference=flow_reference),
        ),
    }


def spawn(argv, env: dict, trace: bool, deadline: float) -> dict:
    """Run one child sample; returns its result, or {"error": why}."""
    spec = json.dumps({"argv": argv, "trace": trace})
    # bytecode is cached as for an installed package, whatever the caller set
    child_env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    child_env.update(PINNED_THREADS, **env)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec], env=child_env, capture_output=True,
            text=True, timeout=max(deadline - t_spawn, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "sample timed out"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"sample exited with {proc.returncode}: {tail[0]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def problem_of(workload: Workload, result: dict, seed: int):
    """Why a sample failed, or None when its output is correct."""
    if "error" in result:
        return result["error"]
    if result["exit_code"] != 0:
        return f"command exited with {result['exit_code']}: {result['stderr'].strip()[-200:]}"
    try:
        return workload.check(result, seed)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


@dataclass
class Run:
    """Samples of one benchmark run."""

    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Repeat rounds of samples while another round fits in `seconds`."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    out = Run()
    longest = 0.0
    while True:
        began = time.monotonic()
        for tracing in (False, True) if trace else (False,):
            result = spawn(workload.argv(seed), workload.env, tracing, deadline)
            out.attempted += 1
            problem = problem_of(workload, result, seed)
            if problem:
                out.problems.append(problem)
            else:  # only correct samples are timed
                (out.traced if tracing else out.untraced).append(result)
        now = time.monotonic()
        longest = max(longest, now - began)
        if now - start + longest > seconds or now + longest > deadline:
            return out


def end_to_end(out: Run) -> dict:
    samples = out.untraced
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in samples), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in samples), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in samples), "s"),
        "peak_rss_mib": (statistics.median(r["maxrss_kib"] / 1024 for r in samples), "MiB"),
    }


def per_layer(out: Run) -> dict:
    units = spans.metric_names()
    each = [spans.layer_metrics(r["spans"], r["misses"]) for r in out.traced]
    metrics = {
        name: (statistics.median_low(m[name] for m in each), unit)
        for name, unit in units.items() if name != spans.OVERHEAD
    }
    overhead = statistics.median(r["wall_s"] for r in out.traced) - statistics.median(
        r["wall_s"] for r in out.untraced
    )
    metrics[spans.OVERHEAD] = (overhead, units[spans.OVERHEAD])
    return metrics


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "hessian-ladder-12", "flow-11"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "curvlab", "__init__.py")):
        print("no src/curvlab here: run from the root of a curvlab checkout", file=sys.stderr)
        return 2
    workload = workloads()[args.workload]
    try:
        out = run(workload, args.seed, args.seconds, bool(args.trace))
        if not out.untraced or (args.trace and not out.traced):
            raise BenchError("no sample passed its check: " + "; ".join(out.problems[:3]))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(out) if args.trace else end_to_end(out)

    failed = len(out.problems)
    print(
        f"curvlab benchmark: workload {args.workload}, seed {args.seed}, "
        f"{len(out.untraced)} untraced + {len(out.traced)} traced samples passed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value!r:>24} {unit}")
    print(f"  {'error_rate':48s} {failed / out.attempted!r:>24} ({failed} failed / {out.attempted} attempted)")
    for problem in out.problems:
        print(f"failed: {problem}", file=sys.stderr)
    env = {
        "git_sha": git_sha(),
        **out.untraced[-1]["env"],
        "threads": {**PINNED_THREADS, **workload.env},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "command": ["curvlab", *workload.argv(args.seed)],
        "deterministic": "--seed" not in workload.argv(args.seed),
    }
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
