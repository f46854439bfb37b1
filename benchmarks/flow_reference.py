"""Record the final potential of the flow-11 workload for each input seed, and
measure how far the sampled potentials move when the same flow sums in
another order.

Run from the repository root, on the commit whose results are the reference:

    python3 benchmarks/flow_reference.py

Each of the SEEDS seeds runs `curvlab flow --dim 11 --steps 500 --seed S`
once with 1 BLAS thread, whose final P is the reference, and once with 2
threads.  It then runs the same command in-process with the start operator
written in the coordinates of R^11 taken in reverse order.  P is invariant
under that change of basis, but every kernel sums in another order, as a
rewritten kernel would.  The largest difference from the reference over every
sampled P is stored for both comparisons; benchmarks/bench.py's FLOW_P_TOL
is a stated margin above the larger one.
Never regenerate this file to make a changed result pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import time

import bench

SEEDS = 16


def sampled_p(stdout: str) -> list:
    return [float(row[1]) for row in list(csv.reader(io.StringIO(stdout)))[1:]]


def reversed_coordinates(mat):
    """A wedge-basis matrix rewritten for the basis e_n, ..., e_1 of R^n.

    e_a ^ e_b becomes -e_(n-1-b) ^ e_(n-1-a) (0-based); the common sign
    cancels in the conjugation, so the change of basis is a permutation.
    """
    import numpy as np

    n = int(round((1 + (1 + 8 * mat.shape[0]) ** 0.5) / 2))
    pairs = list(zip(*(idx.tolist() for idx in np.triu_indices(n, 1))))
    rank = {pair: k for k, pair in enumerate(pairs)}
    perm = [rank[(n - 1 - b, n - 1 - a)] for a, b in pairs]
    return mat[np.ix_(perm, perm)]


def reordered_run(cli, argv) -> list:
    """Sampled P of `curvlab <argv>` started from the reversed-coordinates operator."""
    run = cli.flow_run

    def reversed_run(state, **kwargs):
        return run(cli.flow_state(reversed_coordinates(state.w.mat)), **kwargs)

    out = io.StringIO()
    cli.flow_run = reversed_run
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main.main(args=argv, prog_name="curvlab", standalone_mode=False)
    finally:
        cli.flow_run = run
    return sampled_p(out.getvalue())


def main() -> int:
    # pin BLAS threads before numpy loads, as every benchmark sample does
    os.environ.update(bench.PINNED_THREADS)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from curvlab import cli

    finals, thread_drift, order_drift = [], 0.0, 0.0
    for seed in range(SEEDS):
        argv = ["flow", "--dim", "11", "--steps", "500", "--seed", str(seed)]
        runs = []
        for threads in ("1", "2"):
            env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            result = bench.spawn(argv, env, False, time.monotonic() + bench.RUN_LIMIT_S)
            if "error" in result or result["exit_code"] != 0:
                print(f"seed {seed}: {result.get('error') or result['stderr']}", file=sys.stderr)
                return 1
            runs.append(sampled_p(result["stdout"]))
        reference, two_threads = runs
        reordered = reordered_run(cli, argv)
        finals.append(reference[-1])
        thread_drift = max(thread_drift, *(abs(a - b) for a, b in zip(reference, two_threads)))
        order_drift = max(order_drift, *(abs(a - b) for a, b in zip(reference, reordered)))
        print(
            f"seed {seed}: final P {reference[-1]!r}, drift so far {thread_drift:.3e} "
            f"(threads), {order_drift:.3e} (order)",
            file=sys.stderr,
        )
    with open(bench.FLOW_REFERENCE, "w") as fh:
        json.dump({
            "command": "curvlab flow --dim 11 --steps 500 --seed <index>",
            "blas_threads": 1,
            "final_P": finals,
            "max_sampled_P_drift_1_vs_2_blas_threads": thread_drift,
            "max_sampled_P_drift_reversed_coordinates": order_drift,
        }, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
