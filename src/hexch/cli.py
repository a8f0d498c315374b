"""Batch experiment runner: config-driven sampling, extraction and testing.

One JSON config describes a scenario, a truncation, a seed and the tests to
run; the runner emits the sampled array, optional hierarchy and
resynthesis dumps, per-test reports and a manifest with content checksums.
For a fixed seed the emitted files are byte-identical across runs and
thread counts.

Exit codes: 0 all expected verdicts met, 1 verdict mismatch, 2 config or
usage error or output that cannot be written, 3 truncation cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from itertools import islice, product, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .definetti import extract_hierarchy, hierarchy_json_chunks, resynthesize
# hierarchy_to_json_obj is unused here, but bench/spans.py traces it at this
# lookup site
from .definetti import hierarchy_to_json_obj  # noqa: F401
from .fields import _as_tuples, derive_seed, level_values
from .scenarios import _depth_shift, builtin, list_scenarios, make_source
from .stattests import (
    cond_indep_test,
    conditional_iid_test,
    hexch_test,
    kept_dimension,
    level_homogeneity_test,
)
# leaves is unused here, but bench/spans.py traces it at this lookup site
from .tree import DEFAULT_CELL_CAP, leaves, vertex_keys  # noqa: F401

__all__ = ["main", "run_experiment", "array_to_csv", "ConfigError", "CapError"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class CapError(ValueError):
    """Requested truncation exceeds the configured cell cap."""


_SEED_MAX = 2**64 - 1
# coordinate grids take one axis per depth and np.meshgrid broadcasts at most
# 32 arrays; for m >= 2 the cell cap binds first, so it is checked first
_MAX_DEPTH = 32
_CONFIG_KEYS = {"scenario", "seed", "r", "m", "n", "params", "extract", "resynthesize_m",
                "tests", "out"}
# the keys each test reads from its config entry
_TEST_KEYS = {
    "hexch": {"name", "n_reps", "n_resamples", "level"},
    "conditional_iid": {"name", "n_resamples", "level"},
    "cond_indep": {"name", "n_resamples", "level"},
    "level_homogeneity": {"name", "level"},
}
_FIELD_TESTS = {"level_homogeneity"}
_HIERARCHY_TESTS = {"conditional_iid", "cond_indep"}


def _cell_cap() -> int:
    """The cell cap: ``HEXCH_MAX_CELLS`` if set, else ``DEFAULT_CELL_CAP``.

    It bounds memory, not time: the truncations and the ``hexch`` test
    buffers are checked against it, but a PIT test draws its shuffles in
    blocks of bounded size, so the cap does not limit its ``n_resamples``
    (10^6 resamples at 16 cells take 3-5 s on 2 shared vCPUs)."""
    raw = os.environ.get("HEXCH_MAX_CELLS")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"HEXCH_MAX_CELLS must be a positive integer, got {raw!r}")
    return cap


def _integer(value, name: str, lo: int, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be {bounds}, got {value}")
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value}")
    return x


def _optional(obj: dict, key: str, lo: int) -> int | None:
    return None if obj.get(key) is None else _integer(obj[key], key, lo)


def _exceeds(m: int, r: int, n: int, cap: int) -> bool:
    """Whether m^r * n > cap, without computing m^r for a huge r."""
    cells = n
    for _ in range(r if m > 1 else 0):
        cells *= m
        if cells > cap:
            return True
    return cells > cap


def _needs_hierarchy(cfg: dict) -> bool:
    return cfg["extract"] or any(t["name"] in _HIERARCHY_TESTS for t in cfg["tests"])


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(map(str, set(obj) - allowed))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}; "
                          f"expected one of {sorted(allowed)}")


def _parse_config(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("scenario", "seed", "r", "m"):
        if key not in obj:
            raise ConfigError(f"config is missing required key {key!r}")
    _check_keys(obj, _CONFIG_KEYS, "the config")
    if not isinstance(obj["scenario"], str):
        raise ConfigError(f"scenario must be a name, got {obj['scenario']!r}")
    try:
        spec = builtin(obj["scenario"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be an object, got {params!r}")
    known = spec.defaults.get("params", {})
    for key, value in params.items():
        if key not in known:
            raise ConfigError(
                f"unknown param {key!r} for scenario {spec.name!r}; "
                f"expected one of {sorted(known)}"
            )
        x = _number(value, f"params.{key}")
        lo, hi = spec.param_ranges.get(key, (-math.inf, math.inf))
        if not lo <= x <= hi:
            raise ConfigError(
                f"params.{key} must lie in [{lo}, {hi}] for scenario {spec.name!r}, got {x}"
            )
    extract = obj.get("extract", False)
    if not isinstance(extract, bool):
        raise ConfigError(f"extract must be true or false, got {extract!r}")
    out = obj.get("out", "hexch-out")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    cfg = {
        "scenario": obj["scenario"],
        # derived seeds are 64-bit, so larger seeds would alias smaller ones
        "seed": _integer(obj["seed"], "seed", 0, _SEED_MAX),
        "r": _integer(obj["r"], "r", spec.min_r),
        "m": _integer(obj["m"], "m", 1),
        "n": _optional(obj, "n", 1),
        "params": dict(params),
        "extract": extract,
        "resynthesize_m": _optional(obj, "resynthesize_m", 1),
        "tests": [],
        "out": out,
    }
    if spec.form != "sigma-replica" and cfg["n"] is not None:
        raise ConfigError(f"n sets a replica axis, which scenario {spec.name!r} has not")
    if spec.form == "sigma-replica" and cfg["n"] is None:
        cfg["n"] = int(spec.defaults.get("n", 20))
    tests = obj.get("tests", [])
    if not isinstance(tests, list):
        raise ConfigError("tests must be a list")
    for i, t in enumerate(tests):
        if not isinstance(t, dict) or not isinstance(t.get("name"), str):
            raise ConfigError(f"tests[{i}] must be an object with a string 'name'")
        name = t["name"]
        if name not in _TEST_KEYS:
            raise ConfigError(f"unknown test {name!r}")
        _check_keys(t, _TEST_KEYS[name], f"tests[{i}] ({name})")
        if name not in _FIELD_TESTS and spec.form == "field":
            raise ConfigError(f"test {name!r} needs an array scenario")
        if name in _FIELD_TESTS and spec.form != "field":
            raise ConfigError(f"test {name!r} needs a field scenario")
        if name == "cond_indep" and (cfg["r"] < 2 or cfg["m"] < 2):
            raise ConfigError("cond_indep needs r >= 2 and m >= 2")
        level = _number(t.get("level", 0.05), f"tests[{i}].level")
        if not 0.0 < level < 1.0:
            raise ConfigError(f"tests[{i}].level must lie in (0, 1), got {level}")
        entry = {
            "name": name,
            "n_reps": _integer(t.get("n_reps", 50), f"tests[{i}].n_reps", 20),
            "n_resamples": _integer(t.get("n_resamples", 199), f"tests[{i}].n_resamples", 1),
            "level": level,
        }
        cfg["tests"].append(entry)
    if _needs_hierarchy(cfg) and spec.form in ("sigma-replica", "field"):
        raise ConfigError(f"hierarchy extraction needs a plain tree array, not {spec.name!r}")
    if cfg["resynthesize_m"] is not None and not _needs_hierarchy(cfg):
        raise ConfigError("resynthesize_m needs extract, conditional_iid or cond_indep")
    cap = _cell_cap()
    r, m, n = cfg["r"], cfg["m"], cfg["n"] or 1
    if _exceeds(m, r, n, cap):
        raise CapError(f"{m}^{r} x {n} cells exceed the cap of {cap}")
    m2 = cfg["resynthesize_m"]
    if m2 is not None and _exceeds(m2, r, 1, cap):
        raise CapError(f"resynthesis over {m2}^{r} cells exceeds the cap of {cap}")
    if r > _MAX_DEPTH:
        raise ConfigError(f"r must be <= {_MAX_DEPTH}, got {r}")
    for i, t in enumerate(cfg["tests"]):
        if t["name"] == "hexch":
            _check_hexch_buffers(i, t, kept_dimension(r, m, cfg["n"]), cap)
    return cfg


def _check_hexch_buffers(i: int, entry: dict, kept: int, cap: int) -> None:
    """Cap the arrays hexch_test allocates: the replicate matrix, its
    pairwise distance matrix and the resample masks."""
    rows = 2 * entry["n_reps"]
    buffers = {
        f"replicate matrix ({rows} x {kept})": rows * kept,
        f"distance matrix ({rows} x {rows})": rows * rows,
        f"resample masks ({entry['n_resamples']} x {rows})": entry["n_resamples"] * rows,
    }
    for what, cells in buffers.items():
        if cells > cap:
            raise CapError(f"tests[{i}]: hexch {what} exceeds the cap of {cap} cells")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# characters per write and rows per formatting block
_CHUNK = 1 << 16


def _chunks(pieces: Iterable[str]) -> Iterator[str]:
    """Regroup str pieces into strings of ``_CHUNK`` characters, the last
    one shorter: pieces are held until they fill a chunk, and what is left
    past the last whole chunk is held for the next."""
    buf: list[str] = []
    held = 0
    for piece in pieces:
        buf.append(piece)
        held += len(piece)
        if held >= _CHUNK:
            text = "".join(buf)
            cut = held - held % _CHUNK
            for lo in range(0, cut, _CHUNK):
                yield text[lo : lo + _CHUNK]
            buf, held = [text[cut:]], held - cut
    if held:
        yield "".join(buf)


def _write(path: Path, text: str | Iterable[str], files: dict) -> None:
    """Write ``text``, one string or an iterable of str pieces, as UTF-8 in
    writes of ``_CHUNK`` characters (:func:`_chunks`), each encoded, hashed
    and counted once as it is written, so neither the whole text of a
    streamed file nor an encoded copy of any file is held; the manifest
    entry records the sha256 and size."""
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") as fh:
        for chunk in _chunks((text,) if isinstance(text, str) else text):
            data = chunk.encode("utf-8")
            digest.update(data)
            size += fh.write(data)
    files[path.name] = {"sha256": digest.hexdigest(), "bytes": size}


def _csv(header: list[str], keys, values) -> str:
    """The header and a ``key,value`` row per value (17 significant digits),
    formatted a block of rows at a time."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    blocks = [",".join(header) + "\n"]
    for lo in range(0, values.size, _CHUNK):
        vals = map(format, values[lo : lo + _CHUNK].tolist(), repeat(".17g"))
        lines = map(",".join, zip(islice(keys, _CHUNK), vals))
        blocks.append("\n".join(lines) + "\n")
    return "".join(blocks)


def array_to_csv(array: np.ndarray, depths, shape, n=None) -> str:
    """Canonical CSV dump: vertex key columns (one per tree component; ints
    for one tree, tuples for a product), an optional replica index, and the
    value at 17 significant digits.  Keys come from the coordinates
    (:func:`~hexch.tree.vertex_keys`); rows follow the array, numerically
    lexicographic (``1/2`` before ``1/10``), the first tree slowest and the
    replica index fastest.  The array must hold exactly one value per row."""
    depths_t, shape_t = _as_tuples(depths, shape)
    rows = math.prod(int(m) ** int(r) for r, m in zip(depths_t, shape_t))
    rows *= 1 if n is None else n
    size = np.size(array)
    if size != rows:
        raise ValueError(f"array has {size} values, but the truncation has {rows} cells")
    header = [f"vertex_{j}" for j in range(1, len(depths_t) + 1)]
    header = ["vertex"] if np.ndim(depths) == 0 else header
    first, *rest = map(vertex_keys, depths_t, shape_t)
    if n is not None:
        header.append("i")
        rest.append(map(str, range(1, n + 1)))
    if rest:
        tails = tuple(map(",".join, product(*rest)))
        first = (f"{k},{t}" for k in first for t in tails)
    return _csv(header + ["value"], first, array)


def _field_csv(by_depth: dict, m: int) -> str:
    keys = (k for d in by_depth for k in vertex_keys(d, m))
    return _csv(["vertex", "value"], keys, np.concatenate(list(by_depth.values())))


def _run_one_test(cfg, entry, index, array, hierarchy, shifted):
    seed = derive_seed(cfg["seed"], "test", index)
    name = entry["name"]
    if name == "hexch":
        src = make_source(
            cfg["scenario"], cfg["r"], cfg["m"], n=cfg["n"], params=cfg["params"]
        )
        return hexch_test(
            src.sample,
            cfg["r"],
            cfg["m"],
            n=src.n,
            n_reps=entry["n_reps"],
            n_resamples=entry["n_resamples"],
            level=entry["level"],
            seed=seed,
        )
    if name == "conditional_iid":
        return conditional_iid_test(
            array,
            hierarchy,
            n_resamples=entry["n_resamples"],
            level=entry["level"],
            seed=seed,
        )
    if name == "cond_indep":
        return cond_indep_test(
            array,
            hierarchy,
            n_resamples=entry["n_resamples"],
            level=entry["level"],
            seed=seed,
        )
    return level_homogeneity_test(shifted, level=entry["level"], seed=seed)


def run_experiment(config_obj, out_dir, threads: int = 1) -> tuple[int, dict]:
    """Execute one configured pipeline; returns (exit code, emitted files)."""
    cfg = _parse_config(config_obj)
    spec = builtin(cfg["scenario"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if threads < 1:
        threads = os.cpu_count() or 1
    files: dict = {}

    array = None
    hierarchy = None
    shifted = None
    if spec.form == "field":
        # one realization feeds both the field dump and the level test
        by_depth = level_values(cfg["seed"], cfg["r"], cfg["m"])
        shifted = _depth_shift(cfg["scenario"], by_depth, cfg["params"])
        _write(out / "field_values.csv", _field_csv(by_depth, cfg["m"]), files)
    else:
        src = make_source(
            cfg["scenario"], cfg["r"], cfg["m"], n=cfg["n"], params=cfg["params"]
        )
        array = src.sample(cfg["seed"])
        _write(out / "array.csv", array_to_csv(array, cfg["r"], cfg["m"], src.n), files)
        if _needs_hierarchy(cfg):
            hierarchy = extract_hierarchy(array, cfg["r"], cfg["m"])
            _write(out / "hierarchy.json", hierarchy_json_chunks(hierarchy), files)
            if cfg["resynthesize_m"] is not None:
                resyn = resynthesize(
                    hierarchy,
                    cfg["r"],
                    cfg["resynthesize_m"],
                    derive_seed(cfg["seed"], "resynthesize"),
                )
                _write(
                    out / "resynthesized.csv",
                    array_to_csv(resyn, cfg["r"], cfg["resynthesize_m"], None),
                    files,
                )

    def run_test(i):
        return _run_one_test(cfg, cfg["tests"][i], i, array, hierarchy, shifted)

    indices = range(len(cfg["tests"]))
    if threads > 1 and len(indices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(run_test, indices))
    else:
        reports = list(map(run_test, indices))

    report_lines = [json.dumps(r.to_json_obj(), sort_keys=True) for r in reports]
    _write(out / "reports.jsonl", "\n".join(report_lines) + "\n", files)

    summary = ["test,statistic,p_value,reject,expected,ok"]
    all_ok = True
    for r in reports:
        expected = spec.expected.get(r.name, "")
        if expected == "reject":
            ok = r.reject
        elif expected == "pass":
            ok = not r.reject
        else:
            ok = True
        all_ok &= ok
        summary.append(
            f"{r.name},{_fmt(r.statistic)},{_fmt(r.p_value)},"
            f"{int(r.reject)},{expected},{int(ok)}"
        )
    _write(out / "summary.csv", "\n".join(summary) + "\n", files)

    manifest = {
        "version": __version__,
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "files": files,
    }
    _write(
        out / "manifest.json",
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        files,
    )
    return (0 if all_ok else 1), files


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: config is nested too deeply to parse", file=sys.stderr)
        return 2
    out_dir = args.out or (obj.get("out", "hexch-out") if isinstance(obj, dict) else "hexch-out")
    try:
        code, files = run_experiment(obj, out_dir, threads=args.threads)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the outputs are the only files a run opens
        print(f"error: cannot write output to {out_dir}: {exc}", file=sys.stderr)
        return 2
    for name in sorted(files):
        print(f"wrote {Path(out_dir) / name}")
    if code != 0:
        print("verdict mismatch: see summary.csv", file=sys.stderr)
    return code


def _cmd_verify(args) -> int:
    from .acceptance import SUITES, run_suite, suite_summary_json

    if args.suite not in SUITES:
        print(
            f"error: unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
            file=sys.stderr,
        )
        return 2
    results = run_suite(args.suite, report=print)
    print(suite_summary_json(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_list_scenarios(_args) -> int:
    for spec in list_scenarios():
        expected = " ".join(f"{k}={v}" for k, v in spec.expected.items())
        print(f"{spec.name:18s} {spec.kind:9s} {spec.summary}  [{expected}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hexch",
        description="Batch runner for exchangeable-array experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads (0 = auto); never affects results",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run an acceptance suite")
    p_verify.add_argument("suite", help="suite name: fast or full")
    p_verify.set_defaults(fn=_cmd_verify)

    p_list = sub.add_parser("list-scenarios", help="show the scenario registry")
    p_list.set_defaults(fn=_cmd_list_scenarios)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
