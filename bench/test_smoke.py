"""Reduced-size smoke test of the benchmark.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at small sizes for a fraction of a second and checks
that each declared metric is emitted with its unit, that no op fails, that
the traced run records every layer on the workloads that use it, and that
it puts the wrapped functions back.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import run  # noqa: E402

run.import_hexch()
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "pipeline": {"m": 16},
    "battery": {"n_reps": 20, "n_resamples": 19, "passes": 1},
    "roundtrip": {"m": 4, "pool": 4},
    "distance": {"m": 3, "pool": 2},
}
# spans and counts that must be nonzero on each workload (the layer table)
LAYERS = {
    "pipeline": (
        "cli.run_experiment", "cli.array_to_csv", "tree.leaves", "fields.path_matrix",
        "fields.UniformField.values", "scenarios.sample", "definetti.extract_hierarchy",
        "definetti.resynthesize", "definetti.hierarchy_to_json_obj",
        "stattests.conditional_iid_test", "stattests.cond_indep_test",
        "cli.bytes_written", "tree.vertices_built", "fields.vertices_hashed",
        "fields.derive_seed.calls", "scenarios.cells_sampled", "definetti.measures_built",
        "stattests.resamples",
    ),
    "battery": (
        "tree.internal_vertices", "fields.path_matrix", "fields.UniformField.values",
        "hperm.random_hperm", "hperm.HPerm.permuted_leaf_indices", "scenarios.sample",
        "stattests.hexch_test", "tree.vertices_built", "fields.vertices_hashed",
        "fields.derive_seed.calls", "hperm.leaves_permuted", "scenarios.cells_sampled",
        "stattests.replicates", "stattests.resamples",
    ),
    "roundtrip": (
        "scenarios.sample", "fields.path_matrix", "fields.UniformField.values",
        "definetti.extract_hierarchy", "definetti.resynthesize", "fields.vertices_hashed",
        "scenarios.cells_sampled", "definetti.measures_built",
    ),
    "distance": (
        "definetti.nested_distance", "definetti.wasserstein1", "definetti.linprog",
        "definetti.lp_solves", "definetti.lp_vars",
    ),
}


def _make(name):
    return lambda seed, tmp: WORKLOADS[name](seed, tmp, **SMALL[name])


def _declared(kind):
    return {m["name"]: m["unit"] for m in run.BENCHMARK[kind]}


def test_workload_names_match():
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert [w["name"] for w in run.BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics(name):
    result, shown = run.end_to_end(_make(name), seed=3, seconds=0.2, import_s=0.5)
    declared = _declared("end_to_end")
    assert result["metrics"].keys() == declared.keys()
    for key, metric in result["metrics"].items():
        assert metric["unit"] == declared[key]
        assert metric["value"] > 0
    assert result["correct"] and result["attempted"] >= 1
    assert shown["failed_ratio"] == (0.0, "ratio")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run(name):
    originals = [getattr(owner, attr) for _, sites, _ in spans.SPANS for owner, attr in sites]
    result, shown, rec = run.traced(_make(name), seed=3, seconds=0.2)
    assert [getattr(owner, attr) for _, sites, _ in spans.SPANS for owner, attr in sites] == originals
    declared = _declared("per_layer")
    computed = rec.metrics()
    assert computed.keys() | {"trace.overhead_ratio"} == declared.keys()
    for key, metric in result["metrics"].items():
        assert metric["unit"] == declared[key]
    assert result["correct"] and result["failed"] == 0
    for layer in LAYERS[name]:
        key = layer if layer in spans.COUNT_NAMES else f"{layer}.calls"
        assert result["metrics"][key]["value"] > 0, key
    if name == "distance":
        # every recursive nested_distance call is a span of its own
        assert computed["definetti.nested_distance.calls"] > 1


def test_failed_op_is_counted():
    wl = _make("distance")(3, None)
    ref = {0: -1.0}
    _, ok = run.run_op(wl, 0, ref)
    assert not ok


def test_checkout_without_sources_fails():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copytree(Path(__file__).parent, Path(tmp) / "bench")
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "battery", "--seconds", "1"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
