"""In-memory span tracing of zeropat's layers, for the benchmark's traced run.

The tracer replaces each traced function at the module attribute its caller
looks up (``zeropat.classify.pair_with_vandermonde``,
``zeropat.stabdim.integer_rank``, ``zeropat.orbit3.gauss_newton_reduce``, ...)
with a wrapper that records a span, and puts the originals back on exit.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

from workloads import classify, orbit3, polynomials, stabdim


def _pair_note(args, result):
    return {"n": args[1], "nonzero": result != 0}


def _rows_note(args, result):
    return {"rows": len(result)}


def _flags_note(args, result):
    return {
        "restarts": result.n_restarts,
        "converged": result.n_converged,
        "flags": result.num_flags,
    }


# (module, attribute, span name, note taken from the arguments and result)
TARGETS = [
    (classify, "classify_all", "classify.classify_all", None),
    (classify, "scan_extremal", "classify.scan_extremal", None),
    (classify, "pair_with_vandermonde", "polynomials.pair", _pair_note),
    (polynomials, "pair_with_vandermonde", "polynomials.pair", _pair_note),
    (classify, "norm_squared", "polynomials.norm", None),
    (classify, "stabilizer_dim", "stabdim.stabilizer_dim", None),
    (stabdim, "stabilizer_dim", "stabdim.stabilizer_dim", None),
    (stabdim, "constraint_rows", "stabdim.constraint_rows", _rows_note),
    (stabdim, "integer_rank", "stabdim.integer_rank", None),
    (orbit3, "count_flags", "orbit3.count_flags", _flags_note),
    (orbit3, "gauss_newton_reduce", "orbit3.gauss_newton_reduce", None),
    (orbit3, "torus_equivalent", "orbit3.torus_equivalent", None),
]


class Tracer:
    """Span recorder.  A span is (name, start, end, parent index, pass id,
    note); the parent index is -1 for a span no traced call encloses."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.pass_id = 0
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx] = (
                    name, start, end, parent, self.pass_id,
                    note(args, result) if note and result is not None else None,
                )

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, note), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id, note in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "pass": pass_id, "note": note,
                }) + "\n")


# (metric name, unit, better); the numbers are per traced pass unless the
# name says otherwise.  BENCHMARK.json lists the same metrics.
LAYER_METRICS = [
    ("classify.self_s", "s", "lower"),
    ("classify.scan_extremal.self_s", "s", "lower"),
    ("polynomials.pair.calls", "count", "lower"),
    ("polynomials.pair.s", "s", "lower"),
    ("polynomials.pair.n5.ms_p50", "ms", "lower"),
    ("polynomials.pair.n6.ms_p50", "ms", "lower"),
    ("polynomials.pair.n7.ms_p50", "ms", "lower"),
    ("polynomials.pair.n8.ms_p50", "ms", "lower"),
    ("polynomials.pair.nonzero_ratio", "ratio", "higher"),
    ("polynomials.norm.calls", "count", "lower"),
    ("polynomials.norm.s", "s", "lower"),
    ("stabdim.stabilizer_dim.calls", "count", "lower"),
    ("stabdim.stabilizer_dim.s", "s", "lower"),
    ("stabdim.constraint_rows.s", "s", "lower"),
    ("stabdim.integer_rank.s", "s", "lower"),
    ("stabdim.rows_per_call", "count", "lower"),
    ("orbit3.count_flags.s", "s", "lower"),
    ("orbit3.count_flags.self_s", "s", "lower"),
    ("orbit3.gauss_newton_reduce.calls", "count", "lower"),
    ("orbit3.gauss_newton_reduce.s", "s", "lower"),
    ("orbit3.gauss_newton_reduce.ms_p50", "ms", "lower"),
    ("orbit3.gn.converged_ratio", "ratio", "higher"),
    ("orbit3.new_cluster_ratio", "ratio", "higher"),
    ("orbit3.torus_equivalent.calls", "count", "lower"),
    ("orbit3.torus_equivalent.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, passes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer numbers from the spans of ``passes`` traced passes.  A layer
    the workload does not reach reports zero."""
    by_name: dict[str, list] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, note in spans:
        by_name.setdefault(name, []).append((end - start, note))
        if parent >= 0:
            child_time[parent] += end - start

    def durations(name):
        return [d for d, _ in by_name.get(name, [])]

    def per_pass(x):
        return x / passes

    def self_s(name):
        return per_pass(sum(
            end - start - child_time[k]
            for k, (n, start, end, *_) in enumerate(spans) if n == name
        ))

    def ms_p50(values):
        return statistics.median(values) * 1e3 if values else 0.0

    pairs = by_name.get("polynomials.pair", [])
    rows = [note["rows"] for _, note in by_name.get("stabdim.constraint_rows", [])]
    flags = [note for _, note in by_name.get("orbit3.count_flags", [])]
    converged = sum(f["converged"] for f in flags)
    m = {
        "classify.self_s": self_s("classify.classify_all"),
        "classify.scan_extremal.self_s": self_s("classify.scan_extremal"),
        "polynomials.pair.nonzero_ratio": _ratio(
            sum(note["nonzero"] for _, note in pairs), len(pairs)
        ),
        "stabdim.rows_per_call": _ratio(sum(rows), len(rows)),
        "orbit3.count_flags.self_s": self_s("orbit3.count_flags"),
        "orbit3.gauss_newton_reduce.ms_p50": ms_p50(
            durations("orbit3.gauss_newton_reduce")
        ),
        "orbit3.gn.converged_ratio": _ratio(
            converged, sum(f["restarts"] for f in flags)
        ),
        "orbit3.new_cluster_ratio": _ratio(sum(f["flags"] for f in flags), converged),
        "trace.overhead_ratio": overhead_ratio,
    }
    for n in (5, 6, 7, 8):
        m[f"polynomials.pair.n{n}.ms_p50"] = ms_p50(
            [d for d, note in pairs if note["n"] == n]
        )
    for name in (
        "polynomials.pair", "polynomials.norm", "stabdim.stabilizer_dim",
        "orbit3.gauss_newton_reduce", "orbit3.torus_equivalent",
    ):
        m[f"{name}.calls"] = per_pass(len(durations(name)))
    for name in (
        "polynomials.pair", "polynomials.norm", "stabdim.stabilizer_dim",
        "stabdim.constraint_rows", "stabdim.integer_rank", "orbit3.count_flags",
        "orbit3.gauss_newton_reduce", "orbit3.torus_equivalent",
    ):
        m[f"{name}.s"] = per_pass(sum(durations(name)))
    return {name: m[name] for name, _, _ in LAYER_METRICS}
