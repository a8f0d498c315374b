"""hexch imports without scipy; the stages that call scipy load it themselves.

Each check runs in a fresh interpreter, whose ``sys.modules`` holds no scipy
module until hexch code imports one.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hexch
from hexch.cli import run_experiment
from hexch.definetti import extract_hierarchy, nested_distance
from hexch.scenarios import make_source
from hexch.stattests import conditional_iid_test

SRC = Path(hexch.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent
WORKLOADS_PY = TESTS.parent / "bench" / "workloads.py"

TEST_FREE_RUN = {
    "scenario": "product", "r": 2, "m": 16, "seed": 4,
    "extract": True, "resynthesize_m": 16, "tests": [],
}
THREADED_RUN = {
    "scenario": "product", "r": 2, "m": 16, "seed": 4,
    "tests": [
        {"name": "conditional_iid", "n_resamples": 99},
        {"name": "conditional_iid", "n_resamples": 199},
        {"name": "cond_indep"},
    ],
}


def _fresh(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports hexch from
    the same tree as this process, and this file's helpers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(TESTS)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _loaded_scipy() -> list[str]:
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def _scipy_stages() -> tuple[dict, dict]:
    """One call into the PIT test, which runs on numpy alone, into a nested
    distance solved by assignments (scipy.optimize) and into one whose
    level 0 takes W1 per pair of rows before the assignments of level 1.
    Returns each stage's value and the scipy modules loaded after it."""
    x = make_source("product", 2, 8).sample(3)
    h = extract_hierarchy(x, 2, 8)
    g = extract_hierarchy(make_source("product", 2, 8).sample(4), 2, 8)
    # extracted at m=32, with depth-1 vertices in identical pairs, and at
    # m=33: level 1 has the denominator 1056 / 2 = 528, level 0 has 1056,
    # past the 1024 that its broadcast takes
    paired = make_source("product", 2, 32).sample(5).reshape(32, 32)
    paired[1::2] = paired[::2]
    mu = extract_hierarchy(paired, 2, 32)
    nu = extract_hierarchy(make_source("product", 2, 33).sample(6), 2, 33)
    stages = {
        "conditional_iid": lambda: conditional_iid_test(x, 2, 8, n_resamples=49, seed=5).to_json_obj(),
        "assignment": lambda: nested_distance(h, g).hex(),
        "mixed": lambda: nested_distance(mu, nu).hex(),
    }
    values, loaded = {}, {}
    for name, stage in stages.items():
        values[name] = stage()
        loaded[name] = _loaded_scipy()
    return values, loaded


def test_import_and_a_test_free_run_load_no_scipy(tmp_path):
    out = _fresh(
        "import json, hexch, hexch.cli\n"
        "from test_cold_start import TEST_FREE_RUN, _loaded_scipy\n"
        "after_import = _loaded_scipy()\n"
        f"code, files = hexch.cli.run_experiment(TEST_FREE_RUN, {str(tmp_path)!r})\n"
        "print(json.dumps([code, sorted(files), after_import, _loaded_scipy()]))\n"
    )
    code, files, after_import, after_run = json.loads(out)
    assert code == 0
    assert "resynthesized.csv" in files and "hierarchy.json" in files
    assert after_import == []
    assert after_run == []


def test_scipy_stages_load_it_on_their_first_call():
    out = _fresh(
        "import json\n"
        "from test_cold_start import _loaded_scipy, _scipy_stages\n"
        "before = _loaded_scipy()\n"
        "print(json.dumps([before, *_scipy_stages()]))\n"
    )
    before, stages, loaded = json.loads(out)
    assert before == []
    # the PIT test runs on numpy alone; the nested distance loads scipy.optimize
    assert loaded["conditional_iid"] == []
    assert "scipy.optimize" in loaded["assignment"]
    # the same values as in this process, where scipy was loaded beforehand
    assert stages == json.loads(json.dumps(_scipy_stages()[0]))


def test_the_bench_pipeline_run_loads_no_scipy(tmp_path):
    # bench/run.py's pipeline workload at seed 0: a run with both PIT tests
    out = _fresh(
        "import importlib.util, json\n"
        "from hexch.cli import run_experiment\n"
        "from test_cold_start import _loaded_scipy\n"
        f"spec = importlib.util.spec_from_file_location('workloads', {str(WORKLOADS_PY)!r})\n"
        "workloads = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(workloads)\n"
        f"config = workloads.Pipeline(0, {str(tmp_path)!r}).config\n"
        f"code, files = run_experiment(config, {str(tmp_path / 'out')!r})\n"
        "print(json.dumps([config['tests'], code, sorted(files), _loaded_scipy()]))\n"
    )
    tests, code, files, loaded = json.loads(out)
    assert [t["name"] for t in tests] == ["conditional_iid", "cond_indep"]
    assert code in (0, 1) and "reports.jsonl" in files
    assert loaded == []


def test_threads_match_when_the_workers_import_scipy(tmp_path):
    # the three PIT tests run in two worker threads.  Each imported
    # scipy.stats on its first call while the KS p-value came from scipy;
    # now they import no scipy module, and still match a one-thread run
    out = _fresh(
        "import json, sys\n"
        "from hexch.cli import run_experiment\n"
        "from test_cold_start import THREADED_RUN\n"
        "before = 'scipy.stats' in sys.modules\n"
        f"code, _ = run_experiment(THREADED_RUN, {str(tmp_path / 't2')!r}, threads=2)\n"
        "print(json.dumps([before, code]))\n"
    )
    assert json.loads(out) == [False, 0]
    run_experiment(THREADED_RUN, tmp_path / "t1", threads=1)
    for name in ("reports.jsonl", "summary.csv"):
        assert (tmp_path / "t2" / name).read_bytes() == (tmp_path / "t1" / name).read_bytes()


def test_no_module_imports_scipy_stats_or_special():
    # the battery runs on numpy alone; hexch_test's scipy.spatial and the
    # nested distance's scipy.optimize are the scipy modules hexch loads
    banned = ("scipy.stats", "scipy.special")
    found = []
    for path in sorted((SRC / "hexch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                # from scipy import stats imports scipy.stats
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert found == []
