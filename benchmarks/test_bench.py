"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

import pytest

import bench
import spans

ROOT = os.path.dirname(bench.HERE)

TINY = {
    "verify": bench.Workload(
        argv=lambda seed: ["verify", "--dim", "8", "--seed", str(seed)],
        check=functools.partial(
            bench.check_verify, passes=14, fails=0, flags=("shi-table[n=8]",)
        ),
        env={"CURVLAB_JOBS": "2"},
    ),
    "hessian-ladder-12": bench.Workload(
        argv=lambda seed: ["tables", "--table", "hessian", "--dim", "6"],
        check=functools.partial(
            bench.check_hessian, n=6, multiplicities=(1, 10, 10, 33, 20, 8, 2)
        ),
    ),
    "flow-11": bench.Workload(
        argv=lambda seed: ["flow", "--dim", "5", "--steps", "5", "--sample-every", "1",
                           "--seed", str(seed)],
        check=functools.partial(bench.check_flow, reference=None),
    ),
}


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def tiny_sample(name: str, seed: int = 1) -> dict:
    workload = TINY[name]
    result = bench.spawn(workload.argv(seed), workload.env, False, time.monotonic() + 60)
    assert bench.problem_of(workload, result, seed) is None
    return result


def declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, at_root, monkeypatch, capsys):
    monkeypatch.setattr(bench, "workloads", lambda: TINY)
    argv = ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    emitted = {key: value["unit"] for key, value in result["metrics"].items()}
    assert emitted == declared_metrics("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_flow_counts_layers(at_root, monkeypatch, capsys):
    monkeypatch.setattr(bench, "workloads", lambda: TINY)
    bench.main(["--workload", "flow-11", "--seed", "3", "--seconds", "1", "--trace", "1"])
    metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
    value = {key: m["value"] for key, m in metrics.items()}
    assert value["potential_flow.flow_step.calls"] == 5
    assert value["spectral_decomp.weyl_basis.calls"] == 0
    # per step: 1 for dt, 4 RK4 stages, plus 1 per sampled residual
    assert value["curvature_core.q_map.calls"] == 5 * 5 + 5 + 1


def test_verify_gate_rejects_a_lost_flag(at_root):
    result = tiny_sample("verify")
    report = json.loads(result["stdout"])
    for check in report["checks"]:
        if check["status"] == "flag":
            check["status"] = "pass"
    report["counts"] = {"fail": 0, "flag": 0, "pass": 15}
    corrupted = dict(result, stdout=json.dumps(report))
    assert "counts" in TINY["verify"].check(corrupted, 1)
    relaxed = functools.partial(bench.check_verify, passes=15, fails=0, flags=())
    assert relaxed(corrupted, 1) is None
    report["checks"][0]["name"] = "shi-table[n=8]"
    report["checks"][0]["status"] = "flag"
    report["counts"] = {"fail": 0, "flag": 1, "pass": 14}
    renamed = dict(result, stdout=json.dumps(report))
    renamed_check = functools.partial(
        bench.check_verify, passes=14, fails=0, flags=("shi-table[n=10]",)
    )
    assert "flags" in renamed_check(renamed, 1)


def test_hessian_gate_rejects_a_wrong_multiplicity(at_root):
    result = tiny_sample("hessian-ladder-12")
    check = TINY["hessian-ladder-12"].check
    swapped = result["stdout"].replace("| 10 |\n", "| 11 |\n", 1).replace("| 33 |", "| 32 |")
    assert "multiplicities" in check(dict(result, stdout=swapped), 0)
    short = result["stdout"].replace("| 33 |", "| 30 |")
    assert "sum" in check(dict(result, stdout=short), 0)
    lines = result["stdout"].splitlines(keepends=True)
    assert "clusters" in check(dict(result, stdout="".join(lines[:-1])), 0)
    shifted = lines[:2] + [lines[2].replace("| 1.2247", "| 1.2248")] + lines[3:]
    assert "ladder" in check(dict(result, stdout="".join(shifted)), 0)


def test_flow_gate_rejects_corruption(at_root):
    result = tiny_sample("flow-11")
    check = TINY["flow-11"].check
    rows = result["stdout"].splitlines()
    rows[-2], rows[-1] = rows[-1], rows[-2]
    assert "decreased" in check(dict(result, stdout="\n".join(rows) + "\n"), 1)
    off_sphere = dict(result["final_state"], norm_error=1e-6)
    assert "unit sphere" in check(dict(result, final_state=off_sphere), 1)
    not_weyl = dict(result["final_state"], ricci=1e-6)
    assert "Weyl" in check(dict(result, final_state=not_weyl), 1)
    final_p = float(result["stdout"].splitlines()[-1].split(",")[1])
    # the reference is indexed by seed modulo its length
    exact = functools.partial(bench.check_flow, reference=(0.0, final_p))
    assert exact(result, 1) is None and exact(result, 3) is None
    moved = functools.partial(bench.check_flow, reference=(0.0, final_p + 2 * bench.FLOW_P_TOL))
    assert "reference" in moved(result, 1)


def test_weyl_defects_tell_a_weyl_operator_from_others(monkeypatch):
    import numpy as np

    import child

    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from curvlab.curvature_core import bianchi_project, decompose

    rng = np.random.default_rng(0)
    s = rng.standard_normal((15, 15))  # wedge size of n = 6
    sym = 0.5 * (s + s.T)
    plain = child.weyl_defects(sym / np.linalg.norm(sym))
    assert plain["asymmetry"] == 0.0 and plain["norm_error"] < 1e-12
    assert plain["bianchi"] > 1e-3 and plain["ricci"] > 1e-3
    # the flow command's random start
    w = decompose(bianchi_project(sym).mat).weyl.mat
    w = w / np.linalg.norm(w)
    weyl = child.weyl_defects(w)
    assert max(weyl.values()) < 1e-12
    assert child.weyl_defects(2 * w)["norm_error"] == pytest.approx(1.0)


def test_flow_tolerance_stands_on_the_measured_drift():
    with open(bench.FLOW_REFERENCE) as fh:
        reference = json.load(fh)
    drift = max(
        reference["max_sampled_P_drift_1_vs_2_blas_threads"],
        reference["max_sampled_P_drift_reversed_coordinates"],
    )
    assert bench.FLOW_DRIFT_MARGIN * drift <= bench.FLOW_P_TOL < 10 * bench.FLOW_DRIFT_MARGIN * drift


def test_crash_counts_as_failure(at_root):
    workload = bench.Workload(argv=lambda seed: ["flow", "--dim", "2"], check=TINY["flow-11"].check)
    result = bench.spawn(workload.argv(0), {}, False, time.monotonic() + 60)
    assert "exited with 2" in bench.problem_of(workload, result, 0)


def span(sid, label, start, end, parent, tid, n=None):
    return (sid, label, start, end, parent, tid, n)


def test_self_time_of_nested_calls_is_per_thread():
    # thread 1: A[0,10] > {B[1,4], C[5,9] > D[6,7]};  thread 2: E[2,8] > F[3,5]
    recorded = [
        span(1, "B", 1, 4, 0, 1), span(3, "D", 6, 7, 2, 1), span(2, "C", 5, 9, 0, 1),
        span(5, "F", 3, 5, 4, 2), span(4, "E", 2, 8, None, 2), span(0, "A", 0, 10, None, 1),
    ]
    assert spans.self_times(recorded) == {0: 3, 1: 3, 2: 3, 3: 1, 4: 4, 5: 2}


def test_tracer_links_parents_on_the_calling_thread():
    tracer = spans.Tracer()
    inner = tracer._wrap(spans.Layer("m", "inner"), lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()

    outer = tracer._wrap(spans.Layer("m", "outer"), outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    outers = {s[0]: s for s in tracer.spans if s[1] == "m.outer"}
    inners = [s for s in tracer.spans if s[1] == "m.inner"]
    assert len(outers) == 2 and len(inners) == 4
    for s in inners:
        assert outers[s[4]][5] == s[5]  # parent ran on the same thread
    selfs = spans.self_times(tracer.spans)
    for sid, s in outers.items():
        children = sum(c[3] - c[2] for c in inners if c[4] == sid)
        assert selfs[sid] == pytest.approx(s[3] - s[2] - children)


def test_ms_per_call_of_a_cached_layer_counts_misses_only():
    label = "spectral_decomp.weyl_basis"
    recorded = [
        span(0, label, 0.0, 2.0, None, 1, 12),  # miss
        span(1, label, 1.0, 3.0, None, 2, 12),  # concurrent duplicate build: miss
        span(2, label, 4.0, 4.001, None, 1, 12),  # hit
    ]
    metrics = spans.layer_metrics(recorded, {label: 2})
    assert metrics[label + ".calls"] == 3
    assert metrics[label + ".misses"] == 2
    assert metrics[label + ".ms_per_call.n12"] == pytest.approx(2000.0)
    assert metrics[label + ".ms_per_call.n10"] == 0.0


def test_dim_of_reads_each_argument_kind():
    import numpy as np

    assert spans.dim_of((12,)) == 12
    assert spans.dim_of((np.zeros((55, 55)),)) == 11
    assert spans.dim_of((np.zeros((1638, 1638)),), weyl_sized=True) == 12
