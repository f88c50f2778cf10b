"""scripts/ab_bench.py: its per-metric summary, its run-length check and
the host state it records."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "ab_bench.py")


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(side, pair, values, workload="softout-128"):
    metrics = {name: {"value": value, "unit": ""} for name, value in values.items()}
    return {"side": side, "workload": workload, "seed": 7, "pair": pair, "line": json.dumps({"metrics": metrics})}


def test_summary_gives_medians_and_counts_wins(ab_bench):
    # frames/s is better higher, setup_s and peak_alloc_mb lower; a tie wins
    # for neither side, and a pair that only one side ran is left out
    base = {"fast_scan.frames_per_s": [100, 110, 120, 130], "setup_s": [0.02, 0.03, 0.04, 0.05],
            "peak_alloc_mb": [1.0, 1.0, 1.0, 1.0]}
    change = {"fast_scan.frames_per_s": [150, 100, 160, 170], "setup_s": [0.01, 0.02, 0.05, 0.04],
              "peak_alloc_mb": [0.9, 1.0, 0.9, 1.1]}
    records = []
    for pair in range(4):
        records.append(_record("base", pair, {k: v[pair] for k, v in base.items()}))
        records.append(_record("change", pair, {k: v[pair] for k, v in change.items()}))
    records.append(_record("base", 4, {"fast_scan.frames_per_s": 1.0, "setup_s": 9.0, "peak_alloc_mb": 9.0}))
    records.append(_record("change", 0, {"setup_s": 0.5}, workload="sim-1024"))   # no base run of its own
    assert ab_bench.summary(records) == [
        "softout-128 seed 7 fast_scan.frames_per_s: base 115 (IQR 107.5-122.5), change 155, "
        "change better in 3/4 pairs",
        "softout-128 seed 7 peak_alloc_mb: base 1 (IQR 1-1), change 0.95, change better in 2/4 pairs",
        "softout-128 seed 7 setup_s: base 0.035 (IQR 0.0275-0.0425), change 0.03, change better in 3/4 pairs",
    ]


def test_run_seconds_needs_the_checkouts_to_agree(ab_bench, tmp_path):
    roots = []
    for name, seconds in (("base", 36), ("change", 36), ("other", 20)):
        root = tmp_path / name
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": seconds}))
        roots.append(str(root))
    assert ab_bench.run_seconds(roots[:2]) == 36
    with pytest.raises(SystemExit, match=r"disagree on run_seconds: \[20, 36\]"):
        ab_bench.run_seconds(roots[1:])


def test_host_state_names_the_cpus_and_the_load(ab_bench):
    state = ab_bench.host_state()
    assert set(state) == {"cpu_count", "cpus_usable", "loadavg"}
    assert 1 <= state["cpus_usable"] <= state["cpu_count"]
    assert len(state["loadavg"]) == 3 and all(load >= 0 for load in state["loadavg"])
    json.dumps(state)   # goes into the JSON records as it is
