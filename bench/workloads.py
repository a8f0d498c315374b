"""The benchmark's four workloads.

Each workload builds a fixed pool of inputs from the workload seed. One op
runs one pool entry through hexch's public API: ``call`` is the timed part,
``digest`` (untimed) turns its result into a small comparable value and
raises :class:`CheckFailed` if the output is malformed. Ops cycle through
the pool, so a run that outlasts one pass repeats inputs; the runner checks
each repeat against the first output for that entry, or against the pinned
outputs of the default seed.

Every callee is looked up through its module at call time
(``hexch.cli.run_experiment``, not a name imported once), so the traced run
sees the wrappers it installs there.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np

import hexch.cli
import hexch.definetti
import hexch.scenarios
import hexch.stattests
from hexch.fields import derive_seed


class CheckFailed(Exception):
    """An op's output is malformed or differs from its reference."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Pipeline:
    """One ``hexch run``: sample, CSV, extract, hierarchy JSON, resynthesis,
    and the two PIT tests, at r=2 m=128 (16,384 cells), where per-object
    costs dominate."""

    name = "pipeline"
    tolerance = None
    cycle = 1
    # reports.jsonl is not pinned: the conditional tests may change their RNG
    # stream without changing what they check.
    pinned_files = ("array.csv", "hierarchy.json", "resynthesized.csv")

    def __init__(self, seed: int, tmp: str, m: int = 128):
        self.params = {"m": m}
        self.pool_size = 1
        self.tmp = tmp
        self.config = {
            "scenario": "product",
            "seed": derive_seed(seed, "pipeline"),
            "r": 2,
            "m": m,
            "extract": True,
            "resynthesize_m": m,
            "tests": [{"name": "conditional_iid"}, {"name": "cond_indep"}],
        }

    def call(self, i: int):
        out = tempfile.mkdtemp(dir=self.tmp)
        # ConfigError and CapError (CLI exit codes 2 and 3) propagate and
        # fail the op; exit code 1 is a test verdict, not a failure.
        return out, hexch.cli.run_experiment(self.config, out, threads=1)

    def digest(self, i: int, result) -> dict:
        out, (code, files) = result
        try:
            if code not in (0, 1):
                raise CheckFailed(f"run_experiment returned exit code {code}")
            digest = {}
            for name in self.pinned_files:
                sha = _sha256((Path(out) / name).read_bytes())
                if files.get(name, {}).get("sha256") != sha:
                    raise CheckFailed(f"manifest checksum of {name} does not match")
                digest[name] = sha
            return digest
        finally:
            shutil.rmtree(out)


class Battery:
    """``hexch_test`` calls cycling through three tree cases and one
    replica case, each with a fresh derived seed."""

    name = "battery"
    tolerance = None
    cases = (
        ("path-mean", 2, 8, None),
        ("product", 2, 8, None),
        ("label-leak", 2, 8, None),
        ("toy-magnetization", 2, 4, 20),
    )
    cycle = len(cases)

    def __init__(
        self, seed: int, tmp: str, n_reps: int = 50, n_resamples: int = 199, passes: int = 4
    ):
        self.params = {"n_reps": n_reps, "n_resamples": n_resamples, "passes": passes}
        self.n_reps = n_reps
        self.n_resamples = n_resamples
        self.sources = [
            hexch.scenarios.make_source(name, r, m, n=n) for name, r, m, n in self.cases
        ]
        self.pool_size = len(self.cases) * passes
        self.seeds = [derive_seed(seed, "battery", i) for i in range(self.pool_size)]

    def call(self, i: int):
        src = self.sources[i % len(self.sources)]
        return hexch.stattests.hexch_test(
            src.sample,
            src.r,
            src.m,
            n=src.n,
            n_reps=self.n_reps,
            n_resamples=self.n_resamples,
            seed=self.seeds[i],
        )

    def digest(self, i: int, report) -> float:
        n = self.n_resamples
        count = round(report.p_value * (n + 1)) - 1
        if not (0 <= count <= n and report.p_value == (1 + count) / (n + 1)):
            raise CheckFailed(f"{report.p_value} is not an add-one p-value over {n}")
        return report.p_value


class Roundtrip:
    """Sample ``product`` at r=3 m=16, extract its hierarchy, resynthesize:
    many small arrays and measures over measures, no serialization."""

    name = "roundtrip"
    tolerance = None
    cycle = 1

    def __init__(self, seed: int, tmp: str, r: int = 3, m: int = 16, pool: int = 32):
        self.params = {"r": r, "m": m, "pool": pool}
        self.r, self.m = r, m
        self.source = hexch.scenarios.make_source("product", r, m)
        self.pool_size = pool
        self.seeds = [
            (derive_seed(seed, "roundtrip-sample", i), derive_seed(seed, "roundtrip-resyn", i))
            for i in range(pool)
        ]

    def call(self, i: int):
        s_sample, s_resyn = self.seeds[i]
        x = self.source.sample(s_sample)
        h = hexch.definetti.extract_hierarchy(x, self.r, self.m)
        return x, hexch.definetti.resynthesize(h, self.r, self.m, s_resyn)

    def digest(self, i: int, result) -> str:
        x, y = result
        # resynthesis draws every leaf value from an extracted level-0 measure
        if y.shape != (self.m**self.r,) or not np.isin(y, x).all():
            raise CheckFailed("resynthesized values are not drawn from the sample")
        return _sha256(np.ascontiguousarray(y, dtype="<f8").tobytes())


class Distance:
    """``nested_distance`` between the root measure of a fresh r=3 m=8
    sample and that of its resynthesis; the pairs are built in set-up."""

    name = "distance"
    tolerance = 1e-9
    cycle = 1

    def __init__(self, seed: int, tmp: str, r: int = 3, m: int = 8, pool: int = 24):
        self.params = {"r": r, "m": m, "pool": pool}
        src = hexch.scenarios.make_source("product", r, m)
        self.pool_size = pool
        self.pairs = []
        for i in range(pool):
            x = src.sample(derive_seed(seed, "distance-sample", i))
            ha = hexch.definetti.extract_hierarchy(x, r, m)
            y = hexch.definetti.resynthesize(ha, r, m, derive_seed(seed, "distance-resyn", i))
            hb = hexch.definetti.extract_hierarchy(y, r, m)
            self.pairs.append((ha.root_measure, hb.root_measure))

    def call(self, i: int) -> float:
        return hexch.definetti.nested_distance(*self.pairs[i])

    def digest(self, i: int, d: float) -> float:
        if not (np.isfinite(d) and d >= 0.0):
            raise CheckFailed(f"nested distance {d} is not a finite nonnegative number")
        return d


WORKLOADS = {w.name: w for w in (Pipeline, Battery, Roundtrip, Distance)}
