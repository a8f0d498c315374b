"""The traced bench run (``bench/run.py --trace 1``) wraps hexch functions at
named call sites; every site must exist and get its original back."""

import importlib.util
from pathlib import Path

import hexch.scenarios

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_recorder_patches_and_restores_every_site():
    spans = _load_spans()
    sites = [site for _, span_sites, _ in spans.SPANS for site in span_sites]
    sites += spans.SAMPLE_SITES + spans.COUNTED_CALLS[1]
    originals = [getattr(owner, attr) for owner, attr in sites]
    with spans.Recorder() as rec:
        assert all(getattr(o, a) is not f for (o, a), f in zip(sites, originals))
        # no sampler calls path_matrix, so the op calls it at its lookup site;
        # the counter reads (r, m) as ints from a single-tree call
        rec.begin_op(0)
        hexch.scenarios.path_matrix([1, 2], "v", 2, 4)
        hexch.scenarios.make_source("product", 2, 4).sample([1, 2])
        rec.end_op()
    assert all(getattr(o, a) is f for (o, a), f in zip(sites, originals))
    counts = rec.metrics()
    assert counts["fields.path_matrix.calls"] == 1
    assert counts["fields.vertices_hashed"] == 1 + 4 + 16
    assert counts["scenarios.cells_sampled"] == 2 * 16
