"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run as bench  # noqa: E402  perfbench/run.py
import tracer as tracing  # noqa: E402
from workloads import PpcParams, SimParams, SoftoutParams  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "sim-1024": SimParams(N=128, K=64, frames=16),
    "softout-128": SoftoutParams(N=32, K=16, frames=4, batches=2),
    "ppc-64x64": PpcParams(N=16, K=11, frames=2, sample=2),
}

# layers that run only in some workloads, reported there and absent elsewhere
ONLY_IN = {
    "sim-1024": ("sc.decode.s", "simulate.chunks", "simulate.self_s", "channel.s",
                 "codes.encode.s", "fastscan.leaf_replay_s", "fastscan.leaf_replay_share"),
    "softout-128": ("arithmetic.boxplus.self_s", "fastscan.leaf_replay_s", "fastscan.leaf_replay_share"),
    "ppc-64x64": ("product.ppc_decode.self_s", "product.ppc_encode.s",
                  "product.half_iter_pairs_mean", "product.early_stop_frac",
                  "product.active_row_frac", "simulate.chunks", "simulate.self_s", "channel.s"),
}


def test_workload_names_match_the_spec():
    from workloads import WORKLOADS

    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(name):
    m, attempted, failed, _ = bench.run(name, seed=3, seconds=0.2, trace=0, params=TINY[name])
    assert attempted > 0 and failed == 0 and m["failed_ops_frac"] == 0
    result = json.loads(bench.result_line(SPEC, m, attempted, failed, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["metrics"] == {d["name"]: {"value": m[d["name"]], "unit": d["unit"]}
                                 for d in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_layers(name, tmp_path):
    m, attempted, failed, _ = bench.run(name, seed=3, seconds=0.2, trace=1, params=TINY[name],
                                        out_dir=str(tmp_path))
    assert failed == 0
    result = json.loads(bench.result_line(SPEC, m, attempted, failed, trace=1))
    assert set(result["metrics"]) == {d["name"] for d in SPEC["per_layer"]}
    for key in ONLY_IN[name]:
        assert key in m, key
    for key in set().union(*ONLY_IN.values()) - set(ONLY_IN[name]):
        assert key not in m, key
    # self times telescope: their sum is the time covered by root spans
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.coverage"] * m["trace.wall_s"], rel=1e-9)
    assert 0.5 < m["trace.coverage"] <= 1.0
    assert "trace.overhead_frac" in m
    spans = dict(np.load(tmp_path / f"{name}-seed3-spans.npz"))
    assert spans["start"].size == m["trace.spans"]
    assert (spans["end"] >= spans["start"]).all()


def test_tracer_patches_every_binding_and_reports_absent_names(monkeypatch):
    import polarscan.arithmetic as arithmetic
    import polarscan.kernels as kernels
    import polarscan.scan as scan

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.fn", "polarscan.arithmetic", "no_such_function"),
        ("gone.module", "polarscan.no_such_module", "fn"),
    ))
    original = arithmetic.sat_add
    tr = tracing.Tracer()
    tr.install()
    try:
        assert scan.sat_add is kernels.sat_add is arithmetic.sat_add is not original
        scan.sat_add(1.0, 2.0)
    finally:
        tr.remove()
    assert scan.sat_add is kernels.sat_add is arithmetic.sat_add is original
    assert tr.names[tr.name[0]] == "arithmetic.sat_add" and len(tr.start) == 1
    assert {a.split()[0] for a in tr.absent} == {"gone.fn", "gone.module"}


def test_recursive_span_counts_its_time_once():
    import polarscan.kernels as kernels

    tr = tracing.Tracer()
    tr.install()
    try:
        kernels.rep_update(np.arange(8.0))   # recurses to widths 4 and 2
    finally:
        tr.remove()
    m = tracing.layer_metrics(tr, traced_wall=1.0)
    a = tr.arrays()
    rep = a["name"] == tr.names.index("kernels.rep")
    assert m["kernels.rep.calls"] == 3 and a["outer"][rep].sum() == 1
    assert m["kernels.rep.s"] == pytest.approx(float((a["end"] - a["start"])[rep & a["outer"]].sum()))
    assert m["kernels.rep.s"] == pytest.approx(float(m["trace.self_sum_s"]))


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_last_line_is_the_result():
    out = _cli(ROOT, "--workload", "softout-128", "--seed", "5", "--seconds", "0.3", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {d["name"]: d["unit"] for d in SPEC["end_to_end"]}


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = _cli(tmp_path, "--workload", "sim-1024", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
