"""One benchmark sample: a fresh interpreter runs one curvlab command in-process.

Usage: python3 benchmarks/child.py '{"argv": [...], "trace": false}'

The command is the one a user types (`curvlab <argv>`), called through the
click entry point with stdout and stderr captured in memory, so every cache
starts cold as it does for a user.  The last line of standard output is one
JSON object:

- t_ready: time.monotonic() when set-up ended and the command started; the
  parent subtracts its own monotonic spawn time (one system-wide clock);
- wall_s, cpu_s, maxrss_kib: the command's wall time, and the process's
  user+sys CPU time and peak resident set, read before any checking;
- exit_code, stdout, stderr: what the command returned and printed;
- final_state: for `flow`, unit-norm and Weyl defects of the final operator,
  computed here without curvlab code;
- spans, misses: with "trace": true, the recorded spans and cache misses;
- env: Python and numpy versions and numpy's BLAS/LAPACK build.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def weyl_defects(mat) -> dict:
    """Norm, symmetry, first-Bianchi and Ricci defects of a wedge-basis matrix.

    The matrix is expanded to the 4-tensor R_ijkl, antisymmetric in (i, j)
    and in (k, l); R is Weyl when it is symmetric, satisfies
    R_ijkl + R_jkil + R_kijl = 0 and has zero Ricci contraction R_ijkj.
    """
    import numpy as np

    size = mat.shape[0]
    n = int(round((1 + (1 + 8 * size) ** 0.5) / 2))
    i, j = np.triu_indices(n, 1)  # lexicographic pairs i < j, as in curvlab
    tensor = np.zeros((n, n, n, n))
    a, b = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for (p, q, sign_pq) in ((i, j, 1.0), (j, i, -1.0)):
        for (r, s, sign_rs) in ((i, j, 1.0), (j, i, -1.0)):
            tensor[p[a], q[a], r[b], s[b]] = sign_pq * sign_rs * mat
    bianchi = (
        tensor
        + np.einsum("jkil->ijkl", tensor)
        + np.einsum("kijl->ijkl", tensor)
    )
    return {
        "norm_error": float(abs(np.linalg.norm(mat) - 1.0)),
        "asymmetry": float(np.max(np.abs(mat - mat.T))),
        "bianchi": float(np.max(np.abs(bianchi))),
        "ricci": float(np.max(np.abs(np.einsum("ijkj->ik", tensor)))),
    }


def _blas_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
        if key in deps
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import curvlab
    from curvlab import cli

    if not os.path.abspath(curvlab.__file__).startswith(src + os.sep):
        print(f"curvlab imported from {curvlab.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    finals = []
    run_flow = cli.flow_run

    def capture_flow_run(*args, **kwargs):
        state = run_flow(*args, **kwargs)
        finals.append(state.w.mat)
        return state

    cli.flow_run = capture_flow_run

    t_ready = time.monotonic()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=spec["argv"], prog_name="curvlab")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = dict(
        t_ready=t_ready,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kib=usage.ru_maxrss,
        exit_code=code,
        stdout=out.getvalue(),
        stderr=err.getvalue(),
        final_state=weyl_defects(finals[-1]) if finals else None,
    )
    if tracer is not None:
        result.update(spans=tracer.spans, misses=tracer.cache_misses())
    import numpy

    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas_info(),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
