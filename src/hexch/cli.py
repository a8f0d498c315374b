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
import os
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from ._text import _digits, _fmt, _rows
from .definetti import extract_hierarchy, hierarchy_json_chunks, resynthesize
# hierarchy_to_json_obj is unused here, but bench/spans.py traces it at this
# lookup site
from .definetti import hierarchy_to_json_obj  # noqa: F401
from .fields import _as_tuples, derive_seed
from .scenarios import ScenarioSpec, _request, list_scenarios, make_source
# the tests run by the names _TESTS gives, looked up here at call time
from .stattests import (  # noqa: F401
    _check_buffers,
    _level,
    cond_indep_test,
    conditional_iid_test,
    hexch_test,
    kept_dimension,
)
# leaves is unused here, but bench/spans.py traces it at this lookup site
from .tree import _SEED_MAX, CapError, _check_cells, _integer, _leaf_array, leaves  # noqa: F401

__all__ = ["main", "run_experiment", "array_to_csv", "ConfigError", "CapError"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration or run option."""


# The most resamples a test may ask for: the cell cap bounds memory, not
# time, and 10^6 resamples at 16 cells take 3-5 s on 2 shared vCPUs
_MAX_RESAMPLES = 10**6
# coordinate grids take one axis per depth and np.meshgrid broadcasts at most
# 32 arrays; for m >= 2 the cell cap binds first, so it is checked first
_MAX_DEPTH = 32
_CONFIG_KEYS = {"scenario", "seed", "r", "m", "n", "params", "extract", "resynthesize_m",
                "tests", "out"}
# each test's config keys besides its name, what it runs on (the scenario's
# source, or the sampled array) and the name of the hexch.stattests function
# it calls
_TESTS = {
    "hexch": ({"n_reps", "n_resamples", "level"}, "source", "hexch_test"),
    "conditional_iid": ({"n_resamples", "level"}, "array", "conditional_iid_test"),
    "cond_indep": ({"n_resamples", "level"}, "array", "cond_indep_test"),
}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(map(str, set(obj) - allowed))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}; "
                          f"expected one of {sorted(allowed)}")


def _parse_config(obj) -> tuple[dict, ScenarioSpec]:
    """The checked config and the spec of its scenario.  A malformed field
    raises ValueError; the cell cap is left to :func:`_check_cap`."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("scenario", "seed", "r", "m"):
        if key not in obj:
            raise ConfigError(f"config is missing required key {key!r}")
    _check_keys(obj, _CONFIG_KEYS, "the config")
    if not isinstance(obj["scenario"], str):
        raise ConfigError(f"scenario must be a name, got {obj['scenario']!r}")
    params = obj.get("params", {})
    spec, r, m, n, merged = _request(obj["scenario"], obj["r"], obj["m"], obj.get("n"), params)
    extract = obj.get("extract", False)
    if not isinstance(extract, bool):
        raise ConfigError(f"extract must be true or false, got {extract!r}")
    out = obj.get("out", "hexch-out")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    cfg = {
        "scenario": obj["scenario"],
        "seed": _integer(obj["seed"], "seed", 0, _SEED_MAX),
        "r": r,
        # _request lets m be None, as a model has no truncation
        "m": _integer(m, "m"),
        "n": n,
        # the checked floats of the params the config gives
        "params": {key: merged[key] for key in params},
        "extract": extract,
        "resynthesize_m": (None if obj.get("resynthesize_m") is None
                           else _integer(obj["resynthesize_m"], "resynthesize_m")),
        "tests": [],
        "out": out,
    }
    tests = obj.get("tests", [])
    if not isinstance(tests, list):
        raise ConfigError("tests must be a list")
    for i, t in enumerate(tests):
        if not isinstance(t, dict) or not isinstance(t.get("name"), str):
            raise ConfigError(f"tests[{i}] must be an object with a string 'name'")
        name = t["name"]
        if name not in _TESTS:
            raise ConfigError(f"unknown test {name!r}")
        keys, on, _ = _TESTS[name]
        _check_keys(t, keys | {"name"}, f"tests[{i}] ({name})")
        if on == "array" and spec.form == "sigma-replica":
            raise ConfigError(f"{name} needs a plain tree array, not {spec.name!r}")
        if name == "cond_indep" and (cfg["r"] < 2 or cfg["m"] < 2):
            raise ConfigError("cond_indep needs r >= 2 and m >= 2")
        if name == "conditional_iid" and cfg["m"] < 2:
            raise ConfigError("conditional_iid needs m >= 2")
        level = _level(t.get("level", 0.05), f"tests[{i}].level")
        entry = {
            "name": name,
            "n_reps": _integer(t.get("n_reps", 50), f"tests[{i}].n_reps", 20),
            "n_resamples": _integer(t.get("n_resamples", 199), f"tests[{i}].n_resamples", 1,
                                    _MAX_RESAMPLES),
            "level": level,
        }
        cfg["tests"].append(entry)
    if extract and spec.form == "sigma-replica":
        raise ConfigError(f"hierarchy extraction needs a plain tree array, not {spec.name!r}")
    if cfg["resynthesize_m"] is not None and not extract:
        raise ConfigError("resynthesize_m needs extract")
    return cfg, spec


def _check_cap(cfg: dict) -> None:
    """Refuse, before anything is sampled or written, truncations and
    ``hexch`` buffers above the cell cap, and depths above ``_MAX_DEPTH``."""
    r, m = cfg["r"], cfg["m"]
    _check_cells([(m, r), (cfg["n"] or 1, 1)])
    _check_cells([(cfg["resynthesize_m"] or 1, r)])
    if r > _MAX_DEPTH:
        raise ConfigError(f"r must be <= {_MAX_DEPTH}, got {r}")
    for t in cfg["tests"]:
        if t["name"] == "hexch":
            _check_buffers(t["n_reps"], t["n_resamples"], kept_dimension(r, m, cfg["n"]))


# rows per CSV block
_CHUNK = 1 << 16
_NEWLINE = np.frombuffer(b"\n", np.uint8)[:, None]
# bytes per hashed write of an output file
_WRITE_BLOCK = 1 << 18


def _write(path: Path, pieces: Iterable[bytes], files: dict) -> None:
    """Write the ``bytes`` pieces in blocks of ``_WRITE_BLOCK`` bytes,
    hashing and counting each block once as it is written: pieces are
    copied into one reused block, and the part of a piece that fills a
    block on its own is written as it is.  So the whole text of a streamed
    file is never held, only a block and a piece; the manifest entry
    records the sha256 and size."""
    digest, size = hashlib.sha256(), 0
    block, fill = bytearray(_WRITE_BLOCK), 0

    def put(data) -> None:
        nonlocal size
        digest.update(data)
        size += fh.write(data)

    with open(path, "wb") as fh:
        for data in pieces:
            end = fill + len(data)
            if end < _WRITE_BLOCK:
                block[fill:end] = data
                fill = end
                continue
            view = memoryview(data)
            if fill:
                # top the block up and write it
                block[fill:] = view[: _WRITE_BLOCK - fill]
                put(block)
                view = view[_WRITE_BLOCK - fill :]
            fill = len(view)
            if fill >= _WRITE_BLOCK:
                put(view)
                fill = 0
            else:
                block[:fill] = view
        if fill:
            put(memoryview(block)[:fill])
    files[path.name] = {"sha256": digest.hexdigest(), "bytes": size}


def _key_layout(depths: tuple[int, ...], shape: tuple[int, ...], n: int | None):
    """The key of a row as the text before each coordinate and the text
    after the last: ``[(prefix, m), ...], tail``, one pair per coordinate,
    the fastest last.  Component ``(d, m)`` is ``d/c1/.../cd`` with each c
    in 1..m, components are joined by ``,``, and a replica index ``,i`` with
    i in 1..n comes last."""
    fields, text = [], ""
    for j, (d, m) in enumerate(zip(depths, shape)):
        text += ("," if j else "") + str(d)
        for _ in range(d):
            fields.append(((text + "/").encode(), m))
            text = ""
    if n is not None:
        fields.append(((text + ",").encode(), n))
        text = ""
    return fields, (text + ",").encode()


def _key_planes(layout, lo: int, size: int) -> np.ndarray:
    """The keys of ``layout`` (:func:`_key_layout`) of CSV rows ``lo, lo +
    1, ..., lo + size - 1`` as uint8 planes, one per byte column and row i
    down column i, 0 where a row has no byte."""
    fields, tail = layout
    col = sum(len(pre) + len(str(m)) for pre, m in fields)
    planes = np.empty((col + len(tail), size), np.uint8)
    planes[col:] = np.frombuffer(tail, np.uint8)[:, None]
    # the fastest coordinate first, so the planes fill from the right
    rows = np.arange(lo, lo + size)
    for pre, m in reversed(fields):
        rows, c = np.divmod(rows, m)
        c, w = (c + 1).astype(np.uint32), len(str(m))
        col -= w
        _digits(c, planes[col : col + w])
        for j in range(w - 1):
            # leading zeros are no bytes
            planes[col + j] *= c >= 10 ** (w - 1 - j)
        col -= len(pre)
        planes[col : col + len(pre)] = np.frombuffer(pre, np.uint8)[:, None]
    return planes


def _csv(header: list[str], layout, values) -> Iterator[bytes]:
    """The header line, then the rows (key, value and newline) of
    ``values`` under ``layout`` from :func:`hexch._text._rows` in ``bytes``
    blocks of at most ``_CHUNK`` rows, each value byte-identical to
    ``format(x, ".17g")``."""
    yield (",".join(header) + "\n").encode()
    values = values.reshape(-1)
    for lo in range(0, values.size, _CHUNK):
        x = values[lo : lo + _CHUNK]
        yield _rows(x, _fmt, _key_planes(layout, lo, x.size), _NEWLINE)


def array_to_csv(array: np.ndarray, depths, shape, n=None) -> Iterator[bytes]:
    """Canonical CSV dump as ``bytes`` blocks of at most ``_CHUNK`` rows,
    after a header line: vertex key columns (one per tree component), an
    optional replica index, and the value at 17 significant digits,
    byte-identical to ``format(x, ".17g")``.  Keys are
    :func:`~hexch.tree.encode_vertex`'s (depth, then the coordinates,
    slash-separated), computed from the flat row index; rows follow the
    array, numerically lexicographic (``1/2`` before ``1/10``),
    the first tree slowest and the replica index fastest.  The array must
    hold exactly one value per row, of a real dtype
    (:func:`~hexch.tree._leaf_array`), and the rows must fit the cell cap;
    that is checked here, and the blocks are built as they are read."""
    depths_t, shape_t = _as_tuples(depths, shape)
    n = None if n is None else _integer(n, "n")
    rows = _check_cells([*zip(shape_t, depths_t), (n or 1, 1)])
    array = _leaf_array(array, rows)
    header = [f"vertex_{j}" for j in range(1, len(depths_t) + 1)]
    header = ["vertex"] if np.ndim(depths) == 0 else header
    if n is not None:
        header.append("i")
    layout = _key_layout(tuple(map(int, depths_t)), tuple(map(int, shape_t)), n)
    return _csv(header + ["value"], layout, array)


def run_experiment(config_obj, out_dir, threads: int = 1) -> tuple[int, dict]:
    """Execute one configured pipeline; returns (exit code, emitted files).
    ``threads`` workers run the tests, 0 meaning one per CPU."""
    try:
        threads = _integer(threads, "threads", 0)
        cfg, spec = _parse_config(config_obj)
        _check_cap(cfg)
    except CapError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if threads == 0:
        threads = os.cpu_count() or 1
    files: dict = {}

    src = make_source(cfg["scenario"], cfg["r"], cfg["m"], n=cfg["n"], params=cfg["params"])
    array = src.sample(cfg["seed"])
    _write(out / "array.csv", array_to_csv(array, cfg["r"], cfg["m"], src.n), files)
    if cfg["extract"]:
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
    # the positional and keyword arguments of a test, by what it runs on
    inputs = {"source": ((src.sample, cfg["r"], cfg["m"]), {"n": src.n}),
              "array": ((array, cfg["r"], cfg["m"]), {})}

    def run_test(i):
        entry = cfg["tests"][i]
        keys, on, test = _TESTS[entry["name"]]
        args, kwargs = inputs[on]
        kwargs = {**kwargs, **{k: entry[k] for k in keys}}
        return globals()[test](*args, **kwargs, seed=derive_seed(cfg["seed"], "test", i))

    indices = range(len(cfg["tests"]))
    if threads > 1 and len(indices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(run_test, indices))
    else:
        reports = list(map(run_test, indices))

    report_lines = [json.dumps(r.to_json_obj(), sort_keys=True) for r in reports]
    _write(out / "reports.jsonl", [("\n".join(report_lines) + "\n").encode()], files)

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
    _write(out / "summary.csv", [("\n".join(summary) + "\n").encode()], files)

    manifest = {
        "version": __version__,
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "files": files,
    }
    _write(
        out / "manifest.json",
        [(json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()],
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
        help="worker threads for the tests (0 = one per CPU; a negative value "
        "is a usage error); never affects results",
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
