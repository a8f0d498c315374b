"""Span recorder for the traced run.

The traced run wraps hexch's public functions at the places their callers
look them up (a module global such as ``hexch.cli.array_to_csv``, or a
class attribute such as ``HPerm.permuted_leaf_indices``) and puts the
originals back when it ends. Each wrapped call inside an op records one
span: name, start, end, parent span and op id. Spans stay in memory until
the run ends. A span's self time is its duration minus the time its child
spans cover.

Counts are computed at the span boundaries from arguments and results (list
lengths, array sizes, report fields); they are not measured.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import Counter
from time import perf_counter

import numpy as np

import hexch.cli
import hexch.definetti
import hexch.fields
import hexch.hperm
import hexch.scenarios
import hexch.stattests
import hexch.tree


def _n_reps(counts, args, kwargs, report):
    counts["stattests.replicates"] += 2 * report.metadata["n_reps"]
    counts["stattests.resamples"] += report.n_resamples


def _resamples(counts, args, kwargs, report):
    counts["stattests.resamples"] += report.n_resamples


def _vertex_list(counts, args, kwargs, result):
    counts["tree.vertices_built"] += len(result)


def _path_matrix(counts, args, kwargs, result):
    # path_matrix(seed, role, r, m) hashes every vertex of depth 0..r once
    r, m = args[2], args[3]
    counts["fields.vertices_hashed"] += sum(m**d for d in range(r + 1))


def _field_values(counts, args, kwargs, result):
    counts["fields.vertices_hashed"] += len(args[1])


def _linprog(counts, args, kwargs, result):
    counts["definetti.lp_solves"] += 1
    counts["definetti.lp_vars"] += len(args[0])


# (span name, lookup sites, count function or None)
SPANS = (
    ("cli.run_experiment", [(hexch.cli, "run_experiment")],
     lambda c, a, k, res: c.update({"cli.bytes_written": sum(f["bytes"] for f in res[1].values())})),
    ("cli.array_to_csv", [(hexch.cli, "array_to_csv")], None),
    ("tree.leaves", [(hexch.cli, "leaves"), (hexch.tree, "leaves")], _vertex_list),
    ("tree.internal_vertices", [(hexch.hperm, "internal_vertices"), (hexch.tree, "internal_vertices")],
     _vertex_list),
    ("fields.path_matrix", [(hexch.fields, "path_matrix"), (hexch.scenarios, "path_matrix")],
     _path_matrix),
    ("fields.UniformField.values", [(hexch.fields.UniformField, "values")], _field_values),
    ("hperm.random_hperm", [(hexch.stattests, "random_hperm"), (hexch.hperm, "random_hperm")], None),
    ("hperm.HPerm.permuted_leaf_indices", [(hexch.hperm.HPerm, "permuted_leaf_indices")],
     lambda c, a, k, res: c.update({"hperm.leaves_permuted": len(res)})),
    ("definetti.extract_hierarchy",
     [(hexch.cli, "extract_hierarchy"), (hexch.definetti, "extract_hierarchy")],
     lambda c, a, k, res: c.update({"definetti.measures_built": len(res.measures)})),
    ("definetti.resynthesize", [(hexch.cli, "resynthesize"), (hexch.definetti, "resynthesize")], None),
    ("definetti.hierarchy_to_json_obj",
     [(hexch.cli, "hierarchy_to_json_obj"), (hexch.definetti, "hierarchy_to_json_obj")], None),
    # the recursion looks nested_distance up in its own module, so every
    # recursive call is a span of its own
    ("definetti.nested_distance", [(hexch.definetti, "nested_distance")], None),
    ("definetti.wasserstein1", [(hexch.definetti, "wasserstein1")], None),
    ("definetti.linprog", [(hexch.definetti, "linprog")], _linprog),
    ("stattests.hexch_test", [(hexch.cli, "hexch_test"), (hexch.stattests, "hexch_test")], _n_reps),
    ("stattests.conditional_iid_test",
     [(hexch.cli, "conditional_iid_test"), (hexch.stattests, "conditional_iid_test")], _resamples),
    ("stattests.cond_indep_test",
     [(hexch.cli, "cond_indep_test"), (hexch.stattests, "cond_indep_test")], _resamples),
)
# The ArraySource.sample callable is a dataclass field, not a module global:
# it is wrapped on every source that make_source returns.
SAMPLE_SPAN = "scenarios.sample"
SAMPLE_SITES = [(hexch.cli, "make_source"), (hexch.scenarios, "make_source")]
COUNTED_CALLS = ("fields.derive_seed", [(hexch.cli, "derive_seed"), (hexch.stattests, "derive_seed")])

SPAN_NAMES = tuple(name for name, _, _ in SPANS) + (SAMPLE_SPAN,)
COUNT_NAMES = (
    "cli.bytes_written",
    "tree.vertices_built",
    "fields.vertices_hashed",
    "fields.derive_seed.calls",
    "hperm.leaves_permuted",
    "scenarios.cells_sampled",
    "definetti.measures_built",
    "definetti.lp_solves",
    "definetti.lp_vars",
    "stattests.replicates",
    "stattests.resamples",
)


class TraceError(Exception):
    """The recorded spans do not nest in their parents and ops, or do not
    add up to the traced wall time."""


class Recorder:
    """Spans and counts of the ops run between ``begin_op`` and ``end_op``.

    Wrapped functions called outside an op run without recording, so
    building inputs inside the traced run leaves no spans.
    """

    def __init__(self):
        # span: (name, start, end, parent index or None, op id, outermost of its name)
        self.spans: list = []
        self.ops: list[tuple[int, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._op = None
        self._op_start = 0.0
        self._saved: list = []

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_start = perf_counter()

    def end_op(self) -> None:
        self.ops.append((self._op, self._op_start, perf_counter()))
        self._op = None
        self._stack.clear()
        self._active.clear()

    def wrap(self, name: str, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._op is None:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else None
            outermost = rec._active[name] == 0
            rec.spans.append(None)
            rec._stack.append(sid)
            rec._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec._active[name] -= 1
                rec._stack.pop()
                rec.spans[sid] = (name, start, end, parent, rec._op, outermost)
            if count is not None:
                count(rec.counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, sites, count in SPANS:
            for owner, attr in sites:
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr), count))
        for owner, attr in SAMPLE_SITES:
            self._patch(owner, attr, self._wrap_make_source(getattr(owner, attr)))
        name, sites = COUNTED_CALLS
        for owner, attr in sites:
            self._patch(owner, attr, self._wrap_counted(name + ".calls", getattr(owner, attr)))

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap_make_source(self, make_source):
        cells = lambda c, a, k, res: c.update({"scenarios.cells_sampled": np.size(res)})

        @functools.wraps(make_source)
        def traced_make_source(*args, **kwargs):
            src = make_source(*args, **kwargs)
            return dataclasses.replace(src, sample=self.wrap(SAMPLE_SPAN, src.sample, cells))

        return traced_make_source

    def _wrap_counted(self, count_name: str, fn):
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if rec._op is not None:
                rec.counts[count_name] += 1
            return fn(*args, **kwargs)

        return counted

    def check_nesting(self) -> None:
        """Every span lies inside its parent, or inside its op if top-level."""
        windows = {op: (start, end) for op, start, end in self.ops}
        for sid, (name, start, end, parent, op, _) in enumerate(self.spans):
            lo, hi = windows[op] if parent is None else self.spans[parent][1:3]
            if parent is not None and self.spans[parent][4] != op:
                raise TraceError(f"span {sid} ({name}) and its parent belong to different ops")
            if not (lo <= start <= end <= hi):
                raise TraceError(f"span {sid} ({name}) is not inside its parent")

    def metrics(self) -> dict[str, float]:
        """Per-op calls, inclusive and self time of every span, the counts,
        the traced wall time and the part of it no span covers."""
        n_ops = len(self.ops)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        top_level = 0.0
        for sid, (name, start, end, parent, op, outermost) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            if outermost:
                incl[name] += end - start
            if parent is None:
                top_level += end - start
        wall = sum(end - start for _, start, end in self.ops)
        unspanned = wall - top_level
        if abs(sum(self_s.values()) + unspanned - wall) > 1e-9 * max(1.0, wall):
            raise TraceError("self times plus uncovered time do not add up to the wall time")
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.s"] = incl[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for name in COUNT_NAMES:
            out[name] = self.counts[name] / n_ops
        out["trace.wall_s"] = wall / n_ops
        out["trace.unspanned_s"] = unspanned / n_ops
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"ops": self.ops, "spans": [s[:5] for s in self.spans]}, fh)

