"""Closed-loop benchmark of zeropat: one caller, no threads.

    python3 bench/run.py --workload census5 --seed 0 --seconds 60 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
the seed; then passes, each a fixed set of top-level calls into zeropat, are
repeated while the next pass still fits in ``--seconds``.  At least one pass
always runs, and every pass's outputs are checked.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
per-layer metrics of a run whose budget is split between untraced and traced
passes.  The full result, with the run conditions, is also written to
``bench/out/``, and a traced run's spans to a JSONL file beside it.
"""

from __future__ import annotations

import os

# BLAS runs single-threaded in the benchmark process and in the set-up probes
# it starts.  This must happen before numpy is imported.
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("census5", "kernels678", "flags3", "scan5")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# (name, unit) of the end-to-end metrics, as listed in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

# A fresh interpreter that imports zeropat and generates the inputs, then
# prints the system-wide monotonic clock.
_PROBE = (
    "import sys, time; sys.path.insert(0, {bench!r}); import workloads; "
    "workloads.make({name!r}, {seed}); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


@dataclass
class Pass:
    wall: float
    calls: list[float]
    items: int
    failures: list[str]
    info: dict


def run_passes(wl, budget: float, tracer=None) -> list[Pass]:
    """Repeat passes while the next one, estimated by the last, fits in
    ``budget`` seconds; always at least one."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            out, calls = wl.run_pass()
        else:
            tracer.pass_id = len(passes)
            with tracer.patched():
                out, calls = wl.run_pass()
        wall = time.perf_counter() - t0
        passes.append(Pass(wall, calls, wl.items(out), wl.check(out), wl.info(out)))
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return passes


def measure_setup(name: str, seed: int, probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from starting a fresh interpreter until zeropat is imported
    and the workload's inputs are generated, once per probe."""
    code = _PROBE.format(bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(probes):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def end_to_end_metrics(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    walls = [p.wall for p in passes]
    calls = [c for p in passes for c in p.calls]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(walls),
        "items_per_s": sum(p.items for p in passes) / sum(walls),
        "call_ms_p50": float(np.percentile(calls, 50)) * 1e3,
        "call_ms_p90": float(np.percentile(calls, 90)) * 1e3,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "zeropat"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def conditions(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import zeropat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import tracing

    wl = workloads.make(args.workload, args.seed)
    if args.trace:
        base = run_passes(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        traced = run_passes(wl, args.seconds / 2, tracer)
        overhead = (
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in base) - 1
        )
        passes = base + traced
        values = tracing.layer_metrics(tracer.spans, len(traced), overhead)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        setup = measure_setup(args.workload, args.seed)
        passes = run_passes(wl, args.seconds)
        values = end_to_end_metrics(passes, setup)
        units = dict(END_TO_END)

    attempted = sum(p.items for p in passes)
    failures = [f for p in passes for f in p.failures]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    cond = conditions(args.seed)

    print(f"{args.workload}: " + json.dumps(cond))
    print(
        f"  {len(passes)} passes ({len(traced) if args.trace else 0} traced), "
        f"{sum(len(p.calls) for p in passes)} call samples, "
        f"{passes[0].items} items per pass"
    )
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<36} {len(failures) / attempted:.6g} "
          f"({len(failures)} failed checks / {attempted} items)")
    print(f"  info: {json.dumps(passes[-1].info)}")
    for f in failures[:10]:
        print(f"  FAILED: {f}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "conditions": cond,
         "passes": len(passes), "info": passes[-1].info, "failures": failures},
        indent=1,
    ))
    if args.trace:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
