"""Executable acceptance criteria: one seeded, self-contained check each.

These are the library's exit gates.  Each criterion function runs a fixed
experiment (structure preservation, group laws, test calibration and power,
extraction consistency, round trips, determinism, field quality) and
returns a pass/fail record with details.  The "fast" suite covers the cheap
structural checks; "full" runs everything, statistical batteries included.
"""

from __future__ import annotations

import filecmp
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.stats

from .definetti import extract_hierarchy, nested_distance, resynthesize
from .fields import UniformField, derive_seed, derive_seeds, sample_array
from .hperm import identity_hperm, random_hperm, verify_wedge_preservation
from .scenarios import make_model, make_source
from .stattests import (
    _energy_permutation_pvalue,
    cond_indep_test,
    conditional_iid_test,
    hexch_test,
)
from .tree import TreeVertex, leaves, root

__all__ = ["CriterionResult", "run_suite", "SUITES", "CRITERIA"]

_SEED = 0x5EED


@dataclass
class CriterionResult:
    criterion: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.criterion} ({self.name}): {verdict} "
            f"[{self.seconds:.1f}s] {self.details}"
        )

    def to_json_obj(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
            "seconds": round(self.seconds, 3),
        }


def _timed(criterion, name, fn) -> CriterionResult:
    t0 = time.time()
    passed, details = fn()
    return CriterionResult(criterion, name, passed, details, time.time() - t0)


def criterion_wedge_preservation() -> CriterionResult:
    def run():
        r, m, n_perms = 3, 4, 1000
        lv = leaves(r, m)
        good = sum(
            verify_wedge_preservation(
                random_hperm(r, m, derive_seed(_SEED, "wedge", k)), lv
            )
            for k in range(n_perms)
        )
        n_pairs = len(lv) * (len(lv) - 1) // 2
        return good == n_perms, (
            f"{good}/{n_perms} random table maps preserve all {n_pairs} leaf-pair "
            f"wedges on {{1..{m}}}^{r}"
        )

    return _timed(1, "wedge preservation", run)


def criterion_group_laws() -> CriterionResult:
    def run():
        r, m = 3, 4
        lv = leaves(r, m)
        ident = identity_hperm(r)
        rng = np.random.Generator(np.random.PCG64(derive_seed(_SEED, "group")))
        for k in range(100):
            p = random_hperm(r, m, derive_seed(_SEED, "group-p", k))
            q = random_hperm(r, m, derive_seed(_SEED, "group-q", k))
            v = lv[rng.integers(len(lv))]
            if p.compose(q).apply(v) != p.apply(q.apply(v)):
                return False, f"composition broke at triple {k}"
            if p.invert().apply(p.apply(v)) != v:
                return False, f"inverse round trip broke at triple {k}"
            if p.compose(ident) != p or ident.compose(p) != p:
                return False, f"identity law broke at triple {k}"
            if not p.compose(p.invert()).is_identity():
                return False, f"p o p^-1 not identity at triple {k}"
        return True, "compose/invert/apply identities exact on 100 random triples"

    return _timed(2, "group laws", run)


def _calibration_run(name, r, m, n=None, n_tests=200, seed_tag="calib"):
    src = make_source(name, r, m, n=n)
    rejects = 0
    for t in range(n_tests):
        rep = hexch_test(
            src.sample,
            r,
            m,
            n=src.n,
            n_reps=50,
            n_resamples=199,
            level=0.05,
            seed=derive_seed(_SEED, seed_tag + name, t),
        )
        rejects += rep.reject
    return rejects


def criterion_calibration() -> CriterionResult:
    def run():
        lo, hi = 2, 24  # 99% binomial band around rate 0.05 for 200 runs
        results = {}
        for name in ("path-mean", "product"):
            results[name] = _calibration_run(name, r=2, m=8)
        ok = all(lo <= v <= hi for v in results.values())
        detail = ", ".join(f"{k}: {v}/200" for k, v in results.items())
        return ok, f"rejections within [{lo},{hi}]: {detail}"

    return _timed(3, "generative exchangeability calibration", run)


def _conditional_power_run(name, test, r, m, n_tests=200):
    src = make_source(name, r, m)
    rejects = 0
    for t in range(n_tests):
        seed = derive_seed(_SEED, "power" + name, t)
        arr = src.sample(seed)
        h = extract_hierarchy(arr, r, m)
        if test == "cond_indep":
            rep = cond_indep_test(arr, h, seed=seed)
        else:
            rep = conditional_iid_test(arr, h, seed=seed)
        rejects += rep.reject
    return rejects


def criterion_power() -> CriterionResult:
    def run():
        need = 180
        ll = sum(
            hexch_test(
                make_source("label-leak", 2, 8).sample,
                2,
                8,
                n_reps=50,
                n_resamples=199,
                seed=derive_seed(_SEED, "power-ll", t),
            ).reject
            for t in range(200)
        )
        sc = _conditional_power_run("sibling-coupled", "cond_indep", 2, 16)
        mk = _conditional_power_run("markov-leak", "conditional_iid", 2, 16)
        ok = ll >= need and sc >= need and mk >= need
        return ok, (
            f"label-leak {ll}/200 (hexch), sibling-coupled {sc}/200 (cond_indep), "
            f"markov-leak {mk}/200 (conditional_iid); all must reach {need}"
        )

    return _timed(4, "violation power", run)


def w1_to_uniform(points, c: float) -> float:
    """Exact W1 between the empirical measure of ``points`` and Uniform[0, c].

    Piecewise-linear CDF gap integral; serves as the independent yardstick
    for extraction consistency.
    """
    xs = np.sort(np.asarray(points, dtype=np.float64))
    m = xs.size
    grid = np.concatenate([[0.0], xs, [max(c, xs[-1])]])
    total = 0.0
    for i in range(grid.size - 1):
        x0, x1 = grid[i], grid[i + 1]
        if x1 <= x0:
            continue
        e = min(i, m) / m
        g0 = min(x0 / c, 1.0) - e
        g1 = min(x1 / c, 1.0) - e
        if g0 * g1 >= 0:
            total += (x1 - x0) * (abs(g0) + abs(g1)) / 2
        else:
            xc = e * c
            total += (xc - x0) * abs(g0) / 2 + (x1 - xc) * abs(g1) / 2
    return total


def criterion_extraction_consistency() -> CriterionResult:
    def run():
        seed = derive_seed(_SEED, "extract")
        model = make_model("product", 2)
        f = UniformField(seed, "v")
        v_root = f.value(root(2))
        means, nested = {}, {}
        for m in (8, 32, 128):
            arr = sample_array(model, 2, m, seed)
            h = extract_hierarchy(arr, 2, m)
            # whole-hierarchy error: the root against that of a resynthesis
            y = resynthesize(h, 2, m, derive_seed(seed, "resyn", m))
            nested[m] = nested_distance(h, extract_hierarchy(y, 2, m))
            w1s = []
            for k in range(1, m + 1):
                alpha = TreeVertex((k,), 2)
                c = v_root * f.value(alpha)
                mu = h.measure_at(alpha)
                pts = np.repeat(
                    mu.locations, np.round(mu.weights * m).astype(int)
                )
                w1s.append(w1_to_uniform(pts, c))
            means[m] = float(np.mean(w1s))
        decreasing = means[8] > means[32] > means[128]
        small = means[128] < 0.05
        detail = "; ".join(
            f"m={m}: {means[m]:.4f}, nested error {nested[m]:.4f}" for m in means
        )
        return decreasing and small, (
            f"mean W1 to ground-truth uniforms, and root nested distance to "
            f"the re-extraction of a resynthesis: {detail}; "
            f"decreasing={decreasing}, m=128 below 0.05={small}"
        )

    return _timed(5, "extraction consistency", run)


def criterion_roundtrip() -> CriterionResult:
    def run():
        m, n_rep, n_trials = 32, 100, 100
        model = make_model("product", 2)
        non_reject = 0
        for t in range(n_trials):
            seed_t = derive_seed(_SEED, "roundtrip", t)
            rng = np.random.Generator(np.random.PCG64(derive_seed(seed_t, "subset")))
            subset = np.sort(rng.choice(m * m, size=64, replace=False))
            orig = sample_array(model, 2, m, derive_seeds(seed_t, "orig", n_rep))[:, subset]
            srcs = sample_array(model, 2, m, derive_seeds(seed_t, "src", n_rep))
            resyn = np.empty_like(orig)
            for j, src in enumerate(srcs):
                h = extract_hierarchy(src, 2, m)
                y = resynthesize(h, 2, m, derive_seed(seed_t, "resyn", j))
                resyn[j] = y[subset]
            _, p = _energy_permutation_pvalue(
                orig, resyn, 199, derive_seed(seed_t, "resample")
            )
            non_reject += p >= 0.05
        return non_reject >= 90, (
            f"energy test non-rejects for {non_reject}/{n_trials} "
            f"extract-resynthesize round trips (need 90)"
        )

    return _timed(6, "resynthesis round trip", run)


def criterion_joint_replica() -> CriterionResult:
    def run():
        lo, hi = 2, 24
        rejects = _calibration_run(
            "toy-magnetization", r=2, m=4, n=20, seed_tag="joint"
        )
        return lo <= rejects <= hi, (
            f"joint tree+replica permutation test rejects {rejects}/200, "
            f"band [{lo},{hi}]"
        )

    return _timed(7, "joint replica exchangeability", run)


def criterion_determinism() -> CriterionResult:
    def run():
        from .cli import run_experiment

        config = {
            "scenario": "product",
            "r": 2,
            "m": 8,
            "seed": 424242,
            "tests": [{"name": "hexch", "n_reps": 20, "n_resamples": 99}],
        }
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, threads in enumerate((1, 4, 1, 4)):
                out = Path(tmp) / f"run{i}"
                code, files = run_experiment(config, out, threads=threads)
                if code != 0:
                    return False, f"pipeline exited {code} on run {i}"
                outputs.append(out)
            ref = outputs[0]
            for other in outputs[1:]:
                for fname in ("array.csv", "reports.jsonl", "summary.csv"):
                    if not filecmp.cmp(ref / fname, other / fname, shallow=False):
                        return False, f"{fname} differs between runs"
        return True, (
            "array CSV and reports byte-identical across repeated runs and "
            "thread counts {1, 4}"
        )

    return _timed(8, "pipeline determinism", run)


def criterion_field_quality() -> CriterionResult:
    def run():
        n = 10_000
        vs = [TreeVertex((i,), 1) for i in range(1, n + 1)]
        u = UniformField(derive_seed(_SEED, "fieldq"), "u").values(vs)
        v = UniformField(derive_seed(_SEED, "fieldq"), "v").values(vs)
        d, _ = scipy.stats.kstest(u, "uniform")
        crit = 1.628 / np.sqrt(n)  # 1% asymptotic KS critical value
        rho = float(np.corrcoef(u, v)[0, 1])
        ok = d < crit and abs(rho) < 0.03
        return ok, (
            f"KS D={d:.5f} (1% critical {crit:.5f}), cross-role corr "
            f"rho={rho:.5f} (bound 0.03)"
        )

    return _timed(9, "uniform field quality", run)


CRITERIA = {
    1: criterion_wedge_preservation,
    2: criterion_group_laws,
    3: criterion_calibration,
    4: criterion_power,
    5: criterion_extraction_consistency,
    6: criterion_roundtrip,
    7: criterion_joint_replica,
    8: criterion_determinism,
    9: criterion_field_quality,
}

SUITES = {
    "fast": (1, 2, 5, 8, 9),
    "full": tuple(sorted(CRITERIA)),
}


def run_suite(name: str, report=print) -> list[CriterionResult]:
    """Run a named suite, emitting one line per criterion as it completes."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for idx in SUITES[name]:
        res = CRITERIA[idx]()
        results.append(res)
        if report is not None:
            report(res.line())
    return results


def suite_summary_json(results: list[CriterionResult]) -> str:
    payload = {
        "passed": all(r.passed for r in results),
        "criteria": [r.to_json_obj() for r in results],
    }
    return json.dumps(payload, sort_keys=True)
