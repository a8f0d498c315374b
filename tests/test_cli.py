"""Tests for the batch runner."""

import json

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


@pytest.mark.parametrize("threads", [-1, 2.5, True])
def test_threads_must_be_a_count(tmp_path, threads):
    # the one-test config starts no thread even where threads is read as auto
    with pytest.raises(ValueError, match=r"threads must be >= 0 and an integer \(0 = auto\)"):
        run_experiment(minimal_config(), tmp_path / "out", threads=threads)
    assert not (tmp_path / "out").exists()


def test_negative_threads_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: threads must be >= 0 and an integer (0 = auto), got -1\n"
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


def test_field_scenario_pipeline(tmp_path):
    cfg = {
        "scenario": "depth-shift",
        "r": 2,
        "m": 16,
        "seed": 5,
        "tests": [{"name": "level_homogeneity"}],
    }
    code, files = run_experiment(cfg, tmp_path / "out")
    assert code == 0  # depth-shift is expected to be rejected, and it is
    assert "field_values.csv" in files


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

    model = SigmaModel("mix", 4, lambda p: p.mean(axis=1))
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
        {"scenario": "depth-shift", "r": 2, "params": {"shift": 1.5},
         "tests": [{"name": "level_homogeneity"}]},
        # keys nothing reads
        {"n_rep": 20},
        {"tests": [{"name": "hexch", "n_rep": 20}]},
        {"r": 2, "tests": [{"name": "conditional_iid", "n_reps": 20}]},
        # outputs the scenario and tests cannot produce
        {"resynthesize_m": 4},
        {"scenario": "depth-shift", "r": 2, "extract": True,
         "tests": [{"name": "level_homogeneity"}]},
        {"scenario": "toy-magnetization", "r": 2, "extract": True, "tests": []},
        {"scenario": "toy-magnetization", "r": 2, "tests": [{"name": "conditional_iid"}]},
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
    assert "uniform-leaf" in out and "depth-shift" in out


def _run_cli(cfg, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert "Traceback" not in capsys.readouterr().err
    return code


@pytest.mark.parametrize(
    "cfg, code",
    [
        # the KS component gives the smallest p-value: not rejected, rejected
        ({"scenario": "root-constant", "r": 2, "m": 16, "seed": 2}, 0),
        ({"scenario": "root-constant", "r": 2, "m": 16, "seed": 51}, 1),
        # with m = 1 the KS component is the only one
        ({"scenario": "uniform-leaf", "r": 2, "m": 1, "seed": 0}, 0),
        ({"scenario": "uniform-leaf", "r": 2, "m": 1, "seed": 9}, 1),
    ],
    ids=["root-constant-pass", "root-constant-reject", "m1-pass", "m1-reject"],
)
def test_ks_driven_conditional_iid_report_is_plain_json(tmp_path, capsys, cfg, code):
    cfg = {**cfg, "tests": [{"name": "conditional_iid"}]}
    assert _run_cli(cfg, tmp_path, capsys) == code
    lines = (tmp_path / "o" / "reports.jsonl").read_text().splitlines()
    (report,) = [json.loads(line) for line in lines]
    assert report["reject"] is bool(code)
    assert report["metadata"]["ks_p"] < report["metadata"].get("lag1_p", 2.0)


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
           "resynthesize_m": 1, "tests": [{"name": "conditional_iid"}]}
    assert _run_cli(cfg, tmp_path, capsys) in (0, 1)


def test_cond_indep_needs_siblings(tmp_path, capsys):
    cfg = {"scenario": "uniform-leaf", "r": 2, "m": 1, "seed": 0, "tests": [{"name": "cond_indep"}]}
    with pytest.raises(ConfigError, match="m >= 2"):
        run_experiment(cfg, tmp_path / "out")
    assert _run_cli(cfg, tmp_path, capsys) == 2


def test_field_scenario_realizes_the_field_once(tmp_path, monkeypatch):
    import hexch.cli
    import hexch.fields
    import hexch.scenarios

    real = hexch.fields.level_values
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (hexch.cli, hexch.fields, hexch.scenarios):
        monkeypatch.setattr(module, "level_values", counting)
    cfg = {"scenario": "depth-shift", "r": 2, "m": 12, "seed": 7,
           "tests": [{"name": "level_homogeneity"}]}
    code, files = run_experiment(cfg, tmp_path / "out")
    assert len(calls) == 1
    assert code == 0
    # recorded while the field was still realized twice per run
    assert files["field_values.csv"]["sha256"] == (
        "1ce00a5d108df20abdef3cb0305082160ec9d52590e93b8fd1827c41fe8bf50b"
    )
    assert files["reports.jsonl"]["sha256"] == (
        "1174db3966b9a3b702a38b9d255b92f38cd3523cf54b6a685c602521e54b27ac"
    )


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
# The manifest digests are those of hexch 0.2.0: each is the 0.1.0
# manifest's with its "version" string changed, and nothing else
OUTPUT_DIGESTS = {
    "single tree m=11": (
        {"scenario": "path-mean", "r": 2, "m": 11, "seed": 3},
        {"array.csv": "73e88362e7366fa85f45101081bb869b87a611b437ee1aeb3d1e576707efb0ce",
         "manifest.json": "0130950c8171a8735e08504ea4bcc01340d89541b7eff1b17b7e4322bc623bd6"},
    ),
    "replica n=2": (
        {"scenario": "toy-magnetization", "r": 2, "m": 10, "n": 2, "seed": 5},
        {"array.csv": "9ebc695b505949f358fe89db6bcc25eae384c7c3795ba9a5267fc31bee75e3de",
         "manifest.json": "7d47fa7811c44c2f0774ee2591c458edaab494135bf5c97335dddb3aef4f2548"},
    ),
    "field r=3": (
        {"scenario": "depth-shift", "r": 3, "m": 10, "seed": 6},
        {"field_values.csv": "21d7e623cf23976f5c3499e57c0a80ccac5fb15a25fe13e271632f9fdc74a026",
         "manifest.json": "f8467363be8a9b6a0eb00bdf683a7e8d8e3adf0626c07551f06d698b3efddd3d"},
    ),
    "hierarchy m=12": (
        {"scenario": "product", "r": 2, "m": 12, "seed": 8, "extract": True,
         "resynthesize_m": 11},
        {"array.csv": "a66527ccd16f01f139065684b96bbbeb2fa0c7a68dbbe5f804a75a3543bc2b34",
         "hierarchy.json": "57df73276545bb5272e46c925ca8a5403a9a23c8b61d2c555b91a3cad2dc8d65",
         "resynthesized.csv": "d152d22780939aef78224cbbae20b3a8c0f4b10ba8a25c94c02221c728e67ebc",
         "manifest.json": "6b193bc386f8737beef57e5116509b710a624355899e9e8483892ae1378b66bc"},
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
    from hexch.fields import SigmaModel, sample_array

    model = SigmaModel("mix", 6, lambda p: p.mean(axis=1))
    x = sample_array(model, (1, 2), (3, 2), seed=9)
    text = b"".join(array_to_csv(x, (1, 2), (3, 2))).decode()
    assert text.startswith("vertex_1,vertex_2,value\n1/1,2/1/1,0.63035129435660708\n")
    assert len(text) == 380
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8ba7fe7469e64c3a723942bd649b7d8c90eb6c8b42092ea14ba4df228e5050bf"
    )


def test_array_run_builds_no_vertex_objects(tmp_path, monkeypatch):
    import hexch.tree
    from hexch.definetti import EmpiricalMeasure

    def refuse(*args, **kwargs):
        raise AssertionError("a TreeVertex list or an EmpiricalMeasure was built")

    monkeypatch.setattr(hexch.tree, "_depth_vertices", refuse)
    monkeypatch.setattr(EmpiricalMeasure, "__post_init__", refuse)
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
