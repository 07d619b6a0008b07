"""Smoke tests of the benchmark: one small pass of each workload, the metric
names and units against BENCHMARK.json, and the correctness gates."""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from zeropat.patterns import mu

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

ANCHORS6 = [
    a for a in workloads.load_reference()["anchors"] if a["n"] == 6
]


def small(name: str, **kw):
    """A workload of the same kind as the benchmark's, sized for a test."""
    if name == "census5":
        return workloads.Census(0, n=4, **kw)
    if name == "kernels678":
        kw.setdefault("anchors", ANCHORS6)
        return workloads.Kernels(0, counts={5: 2, 6: 2}, relabel_n=6, **kw)
    if name == "flags3":
        return workloads.Flags(0, matrices=1)
    return workloads.Scan(0, sample=20)


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == tracing.LAYER_METRICS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_small_pass_reports_every_metric(name):
    wl = small(name)
    passes = run.run_passes(wl, 0)
    assert len(passes) == 1 and passes[0].failures == []
    metrics = run.end_to_end_metrics(passes, [0.5])
    assert list(metrics) == [m for m, _ in run.END_TO_END]
    assert all(v > 0 for v in metrics.values())

    tracer = tracing.Tracer()
    traced = run.run_passes(wl, 0, tracer)
    assert traced[0].failures == []
    layers = tracing.layer_metrics(tracer.spans, len(traced), 0.0)
    assert list(layers) == [m for m, _, _ in tracing.LAYER_METRICS]
    assert tracer.spans and all(s is not None for s in tracer.spans)
    # the originals are back in place after the traced pass
    for mod, attr, _, _ in tracing.TARGETS:
        assert not hasattr(getattr(mod, attr), "__wrapped__")


def test_layer_spans_land_where_the_workload_runs():
    wl = small("census5")
    tracer = tracing.Tracer()
    run.run_passes(wl, 0, tracer)
    m = tracing.layer_metrics(tracer.spans, 1, 0.0)
    assert m["polynomials.pair.calls"] == 30
    assert m["stabdim.stabilizer_dim.calls"] == 30
    assert 0 < m["classify.self_s"] < sum(
        s[2] - s[1] for s in tracer.spans if s[0] == "classify.classify_all"
    )
    assert m["orbit3.gauss_newton_reduce.calls"] == 0


def test_corrupted_census_reference_counts_as_error():
    ref = workloads.load_reference()["census"]["4"]
    ref["counts"]["num_classes"] += 1
    passes = run.run_passes(small("census5", reference=ref), 0)
    assert passes[0].failures == ["num_classes: 30 != 31"]
    ref["records_sha256"] = "0" * 64
    passes = run.run_passes(small("census5", reference=ref), 0)
    assert len(passes[0].failures) == 2


def test_corrupted_anchor_pairing_counts_as_error():
    anchors = copy.deepcopy(ANCHORS6)
    anchors[0]["pairing"] += 1
    passes = run.run_passes(small("kernels678", anchors=anchors), 0)
    # the anchor itself and its relabeled image both disagree
    assert len(passes[0].failures) == 2


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.Kernels(s) for s in (3, 3, 4))
    assert [x[1] for x in a.cases] == [x[1] for x in b.cases]
    assert [x[1] for x in a.cases] != [x[1] for x in c.cases]
    f, g = workloads.Flags(3), workloads.Flags(3)
    assert all((x == y).all() for x, y in zip(f.matrices, g.matrices))
    assert f.restart_seeds == g.restart_seeds


def test_generators():
    rng = random.Random(0)
    for n in (5, 6, 7):
        I = workloads.random_strict_pattern(rng, n)
        assert I.is_strict() and len(I) == mu(n)
    A = workloads.random_traceless3(np.random.default_rng(0))
    assert abs(np.trace(A)) < 1e-12 and abs(np.linalg.norm(A) - 1) < 1e-12
    V = workloads.random_unitary3(np.random.default_rng(0))
    assert np.allclose(V @ V.conj().T, np.eye(3))


def test_setup_probe_times_a_fresh_process():
    (t,) = run.measure_setup("scan5", 0, probes=1)
    assert 0 < t < run.PROBE_TIMEOUT_S
