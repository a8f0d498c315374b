"""Tests for the batch runner."""

import json
import re

import pytest

from hexch.cli import CapError, ConfigError, main, run_experiment


def minimal_config(**overrides):
    cfg = {
        "scenario": "uniform-leaf",
        "r": 1,
        "m": 4,
        "seed": 99,
        "tests": [{"name": "hexch", "n_reps": 20, "n_resamples": 99}],
    }
    cfg.update(overrides)
    return cfg


def test_minimal_run_emits_four_files(tmp_path):
    code, files = run_experiment(minimal_config(), tmp_path / "out")
    assert code == 0
    assert set(files) == {"array.csv", "reports.jsonl", "summary.csv", "manifest.json"}
    for name in files:
        assert (tmp_path / "out" / name).exists()


def test_run_twice_is_byte_identical(tmp_path):
    run_experiment(minimal_config(), tmp_path / "a")
    run_experiment(minimal_config(), tmp_path / "b")
    for name in ("array.csv", "reports.jsonl", "summary.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_threads_do_not_affect_results(tmp_path):
    cfg = minimal_config(
        tests=[
            {"name": "hexch", "n_reps": 20, "n_resamples": 99},
            {"name": "conditional_iid"},
        ],
        r=2,
    )
    run_experiment(cfg, tmp_path / "t1", threads=1)
    run_experiment(cfg, tmp_path / "t4", threads=4)
    for name in ("array.csv", "reports.jsonl", "summary.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes()


@pytest.mark.parametrize("threads, message", [
    (-1, "threads must be >= 0, got -1"),
    (2.5, "threads must be an integer, got 2.5"),
    (True, "threads must be an integer, got True"),
], ids=["-1", "2.5", "True"])
def test_threads_must_be_a_count(tmp_path, threads, message):
    # the one-test config starts no thread even where threads is read as auto
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(minimal_config(), tmp_path / "out", threads=threads)
    assert not (tmp_path / "out").exists()


def test_negative_threads_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: threads must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_summary_has_one_row_per_test(tmp_path):
    cfg = minimal_config(
        r=2,
        tests=[
            {"name": "hexch", "n_reps": 20, "n_resamples": 99},
            {"name": "conditional_iid"},
            {"name": "cond_indep"},
        ],
    )
    code, _ = run_experiment(cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3


def test_manifest_references_all_files_with_checksums(tmp_path):
    import hashlib

    code, _ = run_experiment(minimal_config(), tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    for name, meta in manifest["files"].items():
        if name == "manifest.json":
            continue
        digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert meta["sha256"] == digest


def test_hierarchy_and_resynthesis_outputs(tmp_path):
    cfg = minimal_config(
        scenario="product", r=2, m=4, extract=True, resynthesize_m=3, tests=[]
    )
    code, files = run_experiment(cfg, tmp_path / "out")
    assert code == 0
    assert "hierarchy.json" in files and "resynthesized.csv" in files
    h = json.loads((tmp_path / "out" / "hierarchy.json").read_text())
    assert h["r"] == 2 and "0" in h["measures"]
    lines = (tmp_path / "out" / "resynthesized.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 9


def test_verdict_mismatch_exits_one(tmp_path):
    # a label-leak scenario with the leak turned off cannot be rejected, so
    # its expected verdict fails
    cfg = minimal_config(
        scenario="label-leak",
        r=2,
        m=4,
        params={"weight": 0.0},
        tests=[{"name": "hexch", "n_reps": 20, "n_resamples": 99}],
    )
    code, _ = run_experiment(cfg, tmp_path / "out")
    assert code == 1


def test_array_to_csv_formats():
    import numpy as np

    from hexch.cli import array_to_csv
    from hexch.fields import SigmaModel, sample_array
    from hexch.scenarios import _row_reduce

    model = SigmaModel("mix", 4, lambda p: _row_reduce(p, np.add) / 4)
    x = sample_array(model, (1, 1), (2, 2), seed=5)
    text = b"".join(array_to_csv(x, (1, 1), (2, 2))).decode()
    lines = text.strip().splitlines()
    assert lines[0] == "vertex_1,vertex_2,value"
    assert len(lines) == 1 + 4
    assert lines[1].startswith("1/1,1/1,")
    # replica form carries the column index
    ah = b"".join(array_to_csv(np.zeros((2, 3)), 1, 2, n=3)).decode()
    rows = ah.strip().splitlines()
    assert rows[0] == "vertex,i,value"
    assert rows[1].startswith("1/1,1,")


def test_config_errors():
    with pytest.raises(ConfigError):
        run_experiment({"scenario": "uniform-leaf"}, "unused")
    with pytest.raises(ConfigError):
        run_experiment(minimal_config(scenario="nope"), "unused")
    with pytest.raises(ConfigError):
        run_experiment(minimal_config(tests=[{"name": "bogus"}]), "unused")
    with pytest.raises(ConfigError):
        run_experiment(minimal_config(tests=[{"name": "cond_indep"}]), "unused")


@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": "abc"},
        {"seed": -1},
        {"seed": 2**64},
        {"r": "2x"},
        {"m": 2.5},
        {"scenario": "product", "r": 2, "m": None, "seed": 0},
        {"params": [1]},
        {"params": {"weight": "abc"}},
        {"extract": "no"},
        {"tests": [{"name": "hexch", "n_reps": 5}]},
        {"tests": [{"name": "hexch", "n_resamples": 0}]},
        {"tests": [{"name": "hexch", "level": 7}]},
        {"tests": [{"name": ["hexch"]}]},
        # scenario params and depths outside the ranges the registry declares
        {"scenario": "label-leak", "r": 2, "params": {"weight": 2.0}, "extract": True, "tests": []},
        {"scenario": "sibling-coupled", "r": 2, "params": {"weight": -1.0},
         "tests": [{"name": "cond_indep"}]},
        {"scenario": "sibling-coupled", "r": 1},
        # the field scenario, which is no longer registered
        {"scenario": "depth-shift", "r": 2},
        # keys nothing reads
        {"n_rep": 20},
        {"tests": [{"name": "hexch", "n_rep": 20}]},
        {"r": 2, "tests": [{"name": "conditional_iid", "n_reps": 20}]},
        # outputs the scenario and tests cannot produce; a one-array test reads
        # the array alone, so it extracts nothing to resynthesize from
        {"resynthesize_m": 4},
        {"r": 2, "resynthesize_m": 4, "tests": [{"name": "conditional_iid"}]},
        {"r": 2, "m": 1, "tests": [{"name": "conditional_iid"}]},
        {"scenario": "toy-magnetization", "r": 2, "extract": True, "tests": []},
        {"scenario": "toy-magnetization", "r": 2, "tests": [{"name": "conditional_iid"}]},
        {"scenario": "toy-magnetization", "r": 2, "tests": [{"name": "cond_indep"}]},
        # a request whose resamples would never finish
        {"r": 2, "tests": [{"name": "conditional_iid", "n_resamples": 2**64}]},
        {"r": 2, "tests": [{"name": "cond_indep", "n_resamples": 10**6 + 1}]},
        # a level that is no number, which the library refuses in the same words
        {"r": 2, "tests": [{"name": "conditional_iid", "level": "0.05"}]},
        {"tests": [{"name": "hexch", "level": None}]},
        {"r": 2, "tests": [{"name": "cond_indep", "level": [0.1]}]},
    ],
)
def test_malformed_config_exits_two(tmp_path, overrides, capsys):
    cfg = minimal_config(**overrides)
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # rejected before any output is written
    assert not (tmp_path / "out").exists() and not (tmp_path / "o").exists()


def test_cap_exceeded(tmp_path, monkeypatch):
    monkeypatch.setenv("HEXCH_MAX_CELLS", "100")
    with pytest.raises(CapError):
        run_experiment(minimal_config(r=4, m=4), tmp_path / "out")
    # a depth whose cell count would take forever to compute in full
    with pytest.raises(CapError):
        run_experiment(minimal_config(r=10**12, m=2), tmp_path / "out")


@pytest.mark.parametrize("raw", ["0", "-5", "ten", "1.5"])
def test_cap_must_be_a_positive_integer(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("HEXCH_MAX_CELLS", raw)
    with pytest.raises(ConfigError, match="HEXCH_MAX_CELLS must be a positive integer"):
        run_experiment(minimal_config(), tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    monkeypatch.setenv("HEXCH_MAX_CELLS", "1")
    with pytest.raises(CapError):
        run_experiment(minimal_config(), tmp_path / "out")


def test_resynthesis_cap_exceeded(tmp_path, monkeypatch):
    monkeypatch.setenv("HEXCH_MAX_CELLS", "100")
    cfg = minimal_config(scenario="product", r=2, m=4, extract=True, tests=[])
    run_experiment({**cfg, "resynthesize_m": 10}, tmp_path / "ok")
    with pytest.raises(CapError):
        run_experiment({**cfg, "resynthesize_m": 11}, tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "resynthesize_m": 100000}))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3


def test_unknown_scenario_param_exits_two(tmp_path, capsys):
    cfg = minimal_config(scenario="label-leak", r=2, params={"wieght": 0.0})
    with pytest.raises(ConfigError, match="wieght"):
        run_experiment(cfg, tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # scenarios without declared params accept none
    with pytest.raises(ConfigError):
        run_experiment(minimal_config(params={"weight": 0.5}), tmp_path / "out")


def test_n_needs_a_replica_axis(tmp_path, capsys):
    # scenarios without a replica axis sample no n, so n is neither counted
    # against the cap nor recorded in the manifest: it is a config error
    for n in (3, 100):
        cfg = minimal_config(scenario="product", r=2, m=128, n=n, tests=[])
        with pytest.raises(ConfigError, match="replica"):
            run_experiment(cfg, tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    cfg = minimal_config(scenario="toy-magnetization", r=1, m=2, n=3, tests=[])
    code, _ = run_experiment(cfg, tmp_path / "ok")
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert code == 0 and manifest["config"]["n"] == 3


def test_manifest_records_the_checked_values(tmp_path):
    # every checked field is recorded as the plain value the run used: a
    # numpy size or seed as an int, a param as a float, also where the
    # config gives an integer, and only the params the config gives
    import numpy as np

    test = {"name": "hexch", "n_reps": np.int64(20), "n_resamples": np.int64(9),
            "level": np.float32(0.25)}
    cfg = minimal_config(scenario="label-leak", seed=np.uint64(3), r=np.int64(2), m=np.int32(4),
                         params={"weight": 1}, tests=[test])
    run_experiment(cfg, tmp_path / "out")
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert (config["seed"], config["r"], config["m"]) == (3, 2, 4)
    assert config["params"] == {"weight": 1.0}
    assert type(config["params"]["weight"]) is float
    assert config["tests"] == [{"name": "hexch", "n_reps": 20, "n_resamples": 9,
                                "level": float(np.float32(0.25))}]


def test_array_csv_keys_follow_the_configured_cap(tmp_path, monkeypatch):
    # the CSV keys label the sampled array, which the configured cap already
    # admitted, so a cap above the default must not fail at the CSV stage
    monkeypatch.setenv("HEXCH_MAX_CELLS", "2000000")
    cfg = {"scenario": "uniform-leaf", "r": 1, "m": 1_000_001, "seed": 0}
    code, _ = run_experiment(cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "array.csv").read_text().splitlines()
    assert code == 0 and len(lines) == 1_000_002
    assert lines[-1].startswith("1/1000001,")


def test_hexch_buffer_cap_exceeded(tmp_path, monkeypatch, capsys):
    # the replicate matrix is 2*n_reps x kept dimension, the distance matrix
    # (2*n_reps)^2 and the resample masks n_resamples x 2*n_reps
    monkeypatch.setenv("HEXCH_MAX_CELLS", "2000")
    hexch = {"name": "hexch", "n_reps": 20, "n_resamples": 50}
    code, _ = run_experiment(minimal_config(tests=[hexch]), tmp_path / "ok")
    assert code == 0  # 40 x 4 replicates, 40^2 distances, 50 x 40 masks
    for cfg in (
        minimal_config(m=64, tests=[{**hexch, "n_resamples": 1}]),  # 40 x 64
        minimal_config(tests=[{**hexch, "n_reps": 23, "n_resamples": 1}]),  # 46^2
        minimal_config(tests=[{**hexch, "n_resamples": 51}]),  # 51 x 40
    ):
        with pytest.raises(CapError, match="hexch"):
            run_experiment(cfg, tmp_path / "out")
    monkeypatch.delenv("HEXCH_MAX_CELLS")
    cfg = minimal_config(scenario="path-mean", r=2, m=8, tests=[{**hexch, "n_reps": 10**7}])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_cli_run_exit_codes(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2

    assert main(["run", str(tmp_path / "missing.json")]) == 2

    monkeypatch.setenv("HEXCH_MAX_CELLS", "2")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o2")]) == 3


def test_cli_verify_unknown_suite():
    assert main(["verify", "bogus"]) == 2


def test_cli_verify_fast_passes_quickly(capsys):
    import time

    t0 = time.time()
    assert main(["verify", "fast"]) == 0
    assert time.time() - t0 < 120.0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "uniform-leaf" in out and "depth-shift" not in out
    assert len(out.splitlines()) == 8


def _run_cli(cfg, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert "Traceback" not in capsys.readouterr().err
    return code


def test_conditional_iid_report_is_its_lag1_p(tmp_path, capsys):
    # the null array that a pooled KS component of the PIT values rejected
    # (ks_p 0.0104), while its lag-1 component did not (lag1_p 0.785)
    cfg = {"scenario": "root-constant", "r": 2, "m": 16, "seed": 51,
           "tests": [{"name": "conditional_iid"}]}
    assert _run_cli(cfg, tmp_path, capsys) == 0
    lines = (tmp_path / "o" / "reports.jsonl").read_text().splitlines()
    (report,) = [json.loads(line) for line in lines]
    assert report["reject"] is False
    assert not [key for key in report["metadata"] if key.startswith("ks_")]
    assert report["p_value"] == report["metadata"]["lag1_p"]


@pytest.mark.parametrize("seed", [0, 9], ids=["seed-0", "seed-9"])
def test_conditional_iid_needs_siblings(tmp_path, capsys, seed):
    # refused before anything is sampled, so the seed plays no part
    cfg = {"scenario": "uniform-leaf", "r": 2, "m": 1, "seed": seed,
           "tests": [{"name": "conditional_iid"}]}
    with pytest.raises(ConfigError, match="^conditional_iid needs m >= 2$"):
        run_experiment(cfg, tmp_path / "out")
    assert _run_cli(cfg, tmp_path, capsys) == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "cfg",
    [
        # np.meshgrid broadcasts at most 32 coordinate arrays
        {"scenario": "label-leak", "r": 33, "m": 1, "seed": 0},
        {"scenario": "product", "r": 33, "m": 1, "seed": 0, "extract": True, "resynthesize_m": 1},
        # numpy arrays have at most 64 dimensions
        {"scenario": "product", "r": 63, "m": 1, "seed": 0},
    ],
    ids=["leaf-grid", "resynthesis-grid", "path-layout"],
)
def test_deep_degenerate_trees_exit_two(tmp_path, capsys, cfg):
    with pytest.raises(ConfigError, match="r must be <= 32"):
        run_experiment(cfg, tmp_path / "out")
    assert _run_cli(cfg, tmp_path, capsys) == 2


def test_deepest_allowed_degenerate_tree_runs(tmp_path, capsys):
    cfg = {"scenario": "product", "r": 32, "m": 1, "seed": 0, "extract": True,
           "resynthesize_m": 1, "tests": []}
    assert _run_cli(cfg, tmp_path, capsys) == 0
    assert {"hierarchy.json", "resynthesized.csv"} <= {p.name for p in (tmp_path / "o").iterdir()}


@pytest.mark.parametrize("overrides, message", [
    ({"r": 2, "resynthesize_m": 4, "tests": [{"name": "cond_indep"}]},
     "resynthesize_m needs extract"),
    ({"scenario": "toy-magnetization", "r": 2, "tests": [{"name": "conditional_iid"}]},
     "conditional_iid needs a plain tree array, not 'toy-magnetization'"),
    ({"scenario": "toy-magnetization", "r": 2, "extract": True, "tests": []},
     "hierarchy extraction needs a plain tree array, not 'toy-magnetization'"),
])
def test_refusals_name_what_cannot_run(tmp_path, capsys, overrides, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(**overrides)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pit_only_run_extracts_nothing(tmp_path, monkeypatch):
    import hexch.cli

    cfg = {"scenario": "product", "r": 2, "m": 12, "seed": 8,
           "tests": [{"name": "conditional_iid", "n_resamples": 19},
                     {"name": "cond_indep", "n_resamples": 19}]}
    run_experiment({**cfg, "extract": True}, tmp_path / "extracted")

    def refuse(*args):
        raise AssertionError("a run of one-array tests extracted a hierarchy")

    monkeypatch.setattr(hexch.cli, "extract_hierarchy", refuse)
    code, files = run_experiment(cfg, tmp_path / "out")
    assert code in (0, 1)
    assert sorted(files) == ["array.csv", "manifest.json", "reports.jsonl", "summary.csv"]
    for name in ("array.csv", "reports.jsonl", "summary.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "extracted" / name).read_bytes()


def test_cond_indep_needs_siblings(tmp_path, capsys):
    cfg = {"scenario": "uniform-leaf", "r": 2, "m": 1, "seed": 0, "tests": [{"name": "cond_indep"}]}
    with pytest.raises(ConfigError, match="m >= 2"):
        run_experiment(cfg, tmp_path / "out")
    assert _run_cli(cfg, tmp_path, capsys) == 2


def test_array_to_csv_rejects_a_size_mismatch():
    import numpy as np

    from hexch.cli import array_to_csv

    # too many values used to be cut to the keys, too few failed on the cap
    with pytest.raises(ValueError, match="array has 5 values, but the truncation has 2 cells"):
        array_to_csv(np.zeros(5), 1, 2)
    with pytest.raises(ValueError, match="array has 6 values, but the truncation has 4 cells"):
        array_to_csv(np.zeros(6), (1, 1), (2, 2))
    with pytest.raises(ValueError, match="array has 4 values, but the truncation has 6 cells"):
        array_to_csv(np.zeros((2, 2)), 1, 2, n=3)


def test_array_to_csv_accepts_numpy_integers():
    import numpy as np

    from hexch.cli import array_to_csv

    def csv(*args):
        return b"".join(array_to_csv(*args))

    x = np.arange(4.0)
    assert csv(x, np.int64(2), np.int64(2)) == csv(x, 2, 2)
    assert csv(x, np.array([1, 1]), np.array([2, 2])) == csv(x, (1, 1), (2, 2))


# sha256 of the emitted files, recorded while the keys still came from
# TreeVertex objects; manifest.json pins the per-file bytes and sha256 too.
# The manifest digests are those of hexch 0.11.0: each is the 0.10.0
# manifest's with its "version" string changed, and nothing else
OUTPUT_DIGESTS = {
    "single tree m=11": (
        {"scenario": "path-mean", "r": 2, "m": 11, "seed": 3},
        {"array.csv": "73e88362e7366fa85f45101081bb869b87a611b437ee1aeb3d1e576707efb0ce",
         "manifest.json": "e4027b489fb4616f6f1fe0918bf2ea3acac53c6222a798517085685d446de8d7"},
    ),
    "replica n=2": (
        {"scenario": "toy-magnetization", "r": 2, "m": 10, "n": 2, "seed": 5},
        {"array.csv": "9ebc695b505949f358fe89db6bcc25eae384c7c3795ba9a5267fc31bee75e3de",
         "manifest.json": "9794b61351dd69b95b0e8df0af15e3d1d2719f245c4bc1a61988ca500b6fdad2"},
    ),
    "hierarchy m=12": (
        {"scenario": "product", "r": 2, "m": 12, "seed": 8, "extract": True,
         "resynthesize_m": 11},
        {"array.csv": "a66527ccd16f01f139065684b96bbbeb2fa0c7a68dbbe5f804a75a3543bc2b34",
         "hierarchy.json": "57df73276545bb5272e46c925ca8a5403a9a23c8b61d2c555b91a3cad2dc8d65",
         "resynthesized.csv": "d152d22780939aef78224cbbae20b3a8c0f4b10ba8a25c94c02221c728e67ebc",
         "manifest.json": "89511addc806961cd5d49b498445760b2e4c8a776fd85d8406b334fd4330a86f"},
    ),
}


@pytest.mark.parametrize("case", OUTPUT_DIGESTS)
def test_output_bytes_pinned(tmp_path, case):
    import hashlib

    cfg, digests = OUTPUT_DIGESTS[case]
    out = tmp_path / "out"
    code, files = run_experiment(cfg, out)
    assert code == 0
    for name, digest in digests.items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
        if name != "manifest.json":
            assert files[name] == {"sha256": digest, "bytes": len(data)}


def test_csv_rows_are_numeric_and_json_keys_string_ordered(tmp_path):
    cfg, _ = OUTPUT_DIGESTS["hierarchy m=12"]
    run_experiment(cfg, tmp_path / "out")
    keys = [line.split(",")[0] for line in (tmp_path / "out" / "array.csv").open()]
    assert keys.index("2/1/2") < keys.index("2/1/10")
    text = (tmp_path / "out" / "hierarchy.json").read_text()
    assert text.index('"1/10"') < text.index('"1/2"')


def test_array_to_csv_product_bytes_pinned():
    import hashlib

    from hexch.cli import array_to_csv
    import numpy as np

    from hexch.fields import SigmaModel, sample_array
    from hexch.scenarios import _row_reduce

    model = SigmaModel("mix", 6, lambda p: _row_reduce(p, np.add) / 6)
    x = sample_array(model, (1, 2), (3, 2), seed=9)
    text = b"".join(array_to_csv(x, (1, 2), (3, 2))).decode()
    assert text.startswith("vertex_1,vertex_2,value\n1/1,2/1/1,0.63035129435660708\n")
    assert len(text) == 380
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8ba7fe7469e64c3a723942bd649b7d8c90eb6c8b42092ea14ba4df228e5050bf"
    )


def test_array_run_builds_no_vertex_objects(tmp_path, monkeypatch):
    import hexch.definetti
    import hexch.tree

    def refuse(*args, **kwargs):
        raise AssertionError("a TreeVertex list or an EmpiricalMeasure was built")

    monkeypatch.setattr(hexch.tree, "_depth_vertices", refuse)
    monkeypatch.setattr(hexch.definetti, "_measure", refuse)
    cfg = {"scenario": "product", "r": 2, "m": 12, "seed": 8, "extract": True,
           "resynthesize_m": 11,
           "tests": [{"name": "conditional_iid", "n_resamples": 19},
                     {"name": "cond_indep", "n_resamples": 19}]}
    code, files = run_experiment(cfg, tmp_path / "out")
    assert code in (0, 1)
    assert {"array.csv", "hierarchy.json", "resynthesized.csv"} <= set(files)


def test_output_crosses_chunk_boundaries():
    import numpy as np

    from hexch.cli import _CHUNK, array_to_csv

    m = _CHUNK + 3
    x = np.random.default_rng(0).random(m)
    lines = b"".join(array_to_csv(x, 1, m)).decode().splitlines()
    assert lines[1:] == [f"1/{i + 1},{format(v, '.17g')}" for i, v in enumerate(x.tolist())]


def test_streamed_pieces_are_written_in_whole_chunks(tmp_path):
    import hashlib

    from hexch.cli import _CHUNK, _write
    from hexch.definetti import extract_hierarchy, hierarchy_json_chunks
    from hexch.scenarios import make_source
    from hexch.tree import internal_vertices
    from reference import measure_to_json_obj

    # a hierarchy.json several 64 KiB long, against the measure objects
    h = extract_hierarchy(make_source("product", 3, 16).sample(2), 3, 16)
    measures = {v.encode(): measure_to_json_obj(mu)
                for v, mu in zip(internal_vertices(3, 16), h.measures, strict=True)}
    data = (json.dumps({"r": 3, "m": 16, "measures": measures}, sort_keys=True) + "\n").encode()
    assert len(data) > 3 * _CHUNK
    files = {}
    _write(tmp_path / "hierarchy.json", hierarchy_json_chunks(h), files)
    want = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    assert files["hierarchy.json"] == want
    assert hashlib.sha256((tmp_path / "hierarchy.json").read_bytes()).hexdigest() == want["sha256"]


def test_bytes_pieces_are_written_as_the_same_text(tmp_path):
    import hashlib

    from hexch.cli import _CHUNK, _write

    data = ("a,é\n" * (_CHUNK // 2) + "x" * (_CHUNK + 3)).encode("utf-8")
    cuts = [0, 1, 1, 5, _CHUNK, _CHUNK + 1, 3 * _CHUNK - 2, len(data)]
    files = {}
    _write(tmp_path / "bytes.txt", (data[a:b] for a, b in zip(cuts, cuts[1:])), files)
    assert (tmp_path / "bytes.txt").read_bytes() == data
    assert files["bytes.txt"] == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
def test_output_directory_that_cannot_be_made_exits_two(tmp_path, capsys, where):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "existing-file" else blocker / "sub"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00bad", b"[" * 200_000 + b"]" * 200_000],
    ids=["undecodable", "deeply-nested"],
)
def test_unreadable_config_exits_two(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# -- seeded config fuzz --------------------------------------------------------
#
# Valid configs with 1 to 3 of their keys set to values drawn from a fixed
# pool must end in the exit-code contract: ConfigError (exit 2), CapError
# (exit 3) or a return code of 0 or 1, never an escaped exception.

FUZZ_BASES = [
    {"scenario": "product", "r": 2, "m": 4, "seed": 0, "extract": True, "resynthesize_m": 3,
     "tests": [{"name": "conditional_iid", "n_resamples": 9},
               {"name": "cond_indep", "n_resamples": 9}]},
    {"scenario": "label-leak", "r": 2, "m": 3, "seed": 1, "params": {"weight": 0.5},
     "tests": [{"name": "hexch", "n_reps": 20, "n_resamples": 9, "level": 0.05}]},
    {"scenario": "toy-magnetization", "r": 1, "m": 2, "n": 3, "seed": 2,
     "params": {"a": 2.0, "b": 1.0}, "tests": []},
    {"scenario": "sibling-coupled", "r": 2, "m": 2, "seed": 3, "params": {"weight": 0.7},
     "tests": [{"name": "cond_indep", "n_resamples": 9}]},
]
FUZZ_VALUES = [None, True, False, -1, 0, 1, 2, 3, 2**63, 2**64, 0.5, 2.5, 1e308, -1e308,
               float("nan"), float("inf"), "", "8", "product", "depth-shift", [], [8], {},
               {"weight": 0.5}, [{"name": "conditional_iid"}]]
# the mutations that found a breach or an unbounded request, the requests
# that the field form and the KS component used to accept, and a
# toy-magnetization weight whose sigmoid overflowed with a RuntimeWarning,
# each with its exit code
FUZZ_FIXED = [
    ({"scenario": "product", "r": 2, "m": None, "seed": 0}, 2),
    ({"scenario": "product", "r": 2, "m": 4, "seed": 0,
      "tests": [{"name": "conditional_iid", "n_resamples": 2**64}]}, 2),
    ({"scenario": "depth-shift", "r": 2, "m": 16, "seed": 5,
      "tests": [{"name": "level_homogeneity"}]}, 2),
    ({"scenario": "uniform-leaf", "r": 2, "m": 1, "seed": 0,
      "tests": [{"name": "conditional_iid"}]}, 2),
    ({"scenario": "toy-magnetization", "r": 1, "m": 2, "seed": 0, "params": {"a": 1e308}}, 0),
]


def _fuzz_configs(seed: int, count: int) -> list:
    import copy
    import random

    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        cfg = copy.deepcopy(rng.choice(FUZZ_BASES))
        for _ in range(rng.randint(1, 3)):
            # a top-level key, present or not, or a key of a param or a test
            places = [(cfg, key) for key in ("scenario", "seed", "r", "m", "n", "params",
                                              "extract", "resynthesize_m", "tests")]
            tests = cfg.get("tests")
            for inner in [cfg.get("params")] + (tests if isinstance(tests, list) else []):
                if isinstance(inner, dict):
                    places += [(inner, key) for key in inner]
            where, key = rng.choice(places)
            # half the time the value another valid config gives the key
            crossed = [base[key] for base in FUZZ_BASES if where is cfg and key in base]
            pool = crossed if crossed and rng.random() < 0.5 else FUZZ_VALUES
            where[key] = copy.deepcopy(rng.choice(pool))
        configs.append(cfg)
    return configs


def test_fuzzed_configs_keep_the_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.setenv("HEXCH_MAX_CELLS", "512")
    cases = FUZZ_FIXED + [(cfg, None) for cfg in _fuzz_configs(1, 300)]
    for i, (cfg, want) in enumerate(cases):
        try:
            code, _ = run_experiment(cfg, tmp_path / f"o{i}")
        except (ConfigError, CapError) as exc:
            code = 3 if isinstance(exc, CapError) else 2
        except Exception as exc:  # noqa: BLE001
            pytest.fail(f"{cfg!r} raised {exc!r}")
        assert code == want if want is not None else code in (0, 1, 2, 3), cfg


def test_fuzzed_configs_exit_without_a_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCH_MAX_CELLS", "512")
    cases = FUZZ_FIXED + [(cfg, None) for cfg in _fuzz_configs(2, 40)]
    for i, (cfg, want) in enumerate(cases):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / f"o{i}")])
        err = capsys.readouterr().err
        assert "Traceback" not in err, cfg
        assert code == want if want is not None else code in (0, 1, 2, 3), (cfg, code, err)
