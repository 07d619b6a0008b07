"""Seeded inputs, timed passes and correctness gates for the zeropat benchmark.

A workload builds its inputs from a seed in its constructor; that is the
set-up the benchmark times.  ``run_pass`` makes one pass of top-level calls
into zeropat and returns the outputs with the latency of each call.
``check`` verifies a pass's outputs outside the timed region and returns one
message per failed check.

The benchmark owns its input generators, so a change to zeropat's own
samplers cannot shift the workloads.  zeropat is imported from ``src/`` of
the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import zeropat  # noqa: E402

if Path(zeropat.__file__).resolve().parent != SRC / "zeropat":
    raise ImportError(f"zeropat was imported from {zeropat.__file__}, not from {SRC}")

from zeropat import classify, orbit3, polynomials, stabdim  # noqa: E402
from zeropat.patterns import Pattern, mu  # noqa: E402
from zeropat.verify import load_expected  # noqa: E402


def load_reference() -> dict:
    """The recorded census counts and digests, and the closed-form anchors."""
    return json.loads(Path(__file__).with_name("reference.json").read_text())


#: restarts per count_flags call
FLAG_RESTARTS = 2000
#: residual threshold that count_flags uses to call a restart converged
FLAG_RESIDUAL_TOL = 1e-18
#: seed of the fixed panel of matrices that flags3 conjugates
FLAG_PANEL_SEED = 0


def random_strict_pattern(rng: random.Random, n: int) -> Pattern:
    """Uniform strict pattern of size mu(n): mu(n) distinct off-diagonal cells."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return Pattern(cells[k] for k in sorted(rng.sample(range(len(cells)), mu(n))))


def random_relabeling(rng: random.Random, I: Pattern, n: int) -> Pattern:
    """Image of I under a uniform relabeling, transposed with probability 1/2.
    The image lies in the class of I, so |pairing| and stab_dim are kept."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    J = I.apply_perm(sigma)
    return J.transpose() if rng.random() < 0.5 else J


def random_traceless3(rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian 3 x 3 matrix, made traceless, unit Frobenius norm."""
    re, im = rng.standard_normal((2, 3, 3))
    A = re + 1j * im
    A -= np.trace(A) / 3 * np.eye(3)
    return A / np.linalg.norm(A)


def random_unitary3(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 3 x 3 unitary: QR of a complex Gaussian matrix with
    the phases of R's diagonal moved into Q."""
    re, im = rng.standard_normal((2, 3, 3))
    Q, R = np.linalg.qr(re + 1j * im)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def records_digest(records) -> str:
    """sha256 of the six fields of every class record, in census order."""
    blob = json.dumps(
        [r.to_json() for r in records], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _timed(calls: list, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    calls.append(time.perf_counter() - t0)
    return out


class Census:
    """census5: one classify_all(n).  The input is fixed; the seed is unused."""

    def __init__(self, seed: int, n: int = 5, reference: dict | None = None):
        self.n = n
        self.reference = reference or load_reference()["census"][str(n)]

    def run_pass(self):
        calls: list[float] = []
        out = _timed(calls, classify.classify_all, self.n)
        return out, calls

    def items(self, out) -> int:
        return len(out[1])

    def check(self, out) -> list[str]:
        census, records = out
        got = census.to_json()
        fails = [
            f"{key}: {got[key]} != {want}"
            for key, want in self.reference["counts"].items()
            if got[key] != want
        ]
        if records_digest(records) != self.reference["records_sha256"]:
            fails.append("class records differ from the recorded digest")
        return fails

    def info(self, out) -> dict:
        # informational only: the quoted split is not the pass condition
        census = out[0]
        quoted = load_expected()["census"].get(str(self.n), {})
        return {
            "defective_exceptional_computed": [
                census.num_defective, census.num_exceptional
            ],
            "defective_exceptional_quoted": [
                quoted.get("num_defective"), quoted.get("num_exceptional")
            ],
        }


class Kernels:
    """kernels678: pair_with_vandermonde and stabilizer_dim per pattern on
    seeded random strict patterns at n = 6 and 7, the recorded closed-form
    anchors at n = 6, 7 and 8, and one seeded relabeling of each n = 8 anchor.
    """

    def __init__(
        self,
        seed: int,
        counts: dict[int, int] | None = None,
        anchors: list[dict] | None = None,
        relabel_n: int = 8,
    ):
        rng = random.Random(seed)
        counts = {6: 120, 7: 40} if counts is None else counts
        anchors = load_reference()["anchors"] if anchors is None else anchors
        # (n, pattern, recorded pairing, recorded stab_dim, whether the
        # pairing's sign is recorded); None where nothing is recorded
        self.cases: list[tuple[int, Pattern, int | None, int | None, bool]] = []
        for n, k in counts.items():
            for _ in range(k):
                self.cases.append((n, random_strict_pattern(rng, n), None, None, False))
        for a in anchors:
            P = Pattern.from_json(a["pattern"])
            self.cases.append((a["n"], P, a["pairing"], a["stab_dim"], True))
            if a["n"] == relabel_n:
                Q = random_relabeling(rng, P, a["n"])
                self.cases.append((a["n"], Q, abs(a["pairing"]), a["stab_dim"], False))

    def run_pass(self):
        calls: list[float] = []
        out = []
        for n, I, *_ in self.cases:
            t0 = time.perf_counter()
            p = polynomials.pair_with_vandermonde(I, n)
            s = stabdim.stabilizer_dim(I, n)
            calls.append(time.perf_counter() - t0)
            out.append((p, s))
        return out, calls

    def items(self, out) -> int:
        return len(out)

    def check(self, out) -> list[str]:
        fails = []
        for (n, I, pairing, sd, signed), (p, s) in zip(self.cases, out):
            if pairing is not None and (p if signed else abs(p)) != pairing:
                fails.append(f"n={n} {I}: pairing {p}, recorded {pairing}")
            if sd is not None and s != sd:
                fails.append(f"n={n} {I}: stab_dim {s}, recorded {sd}")
            if s != n * n - stabdim.float_system_rank(I, n):
                fails.append(f"n={n} {I}: stab_dim {s} disagrees with the float rank")
            if p != 0 and s > n:
                fails.append(f"n={n} {I}: nonsingular with stab_dim {s} > {n}")
        return fails

    def info(self, out) -> dict:
        return {"patterns_per_n": {
            str(n): sum(1 for c in self.cases if c[0] == n) for n in (6, 7, 8)
        }}


class Flags:
    """flags3: count_flags with a fixed restart budget on traceless 3 x 3
    matrices.

    Each matrix is a seeded unitary conjugate of a matrix from a fixed panel.
    Conjugation keeps the orbit, so the flag count, and the distribution of
    restart outcomes, which sets the cost, are those of the panel matrix.
    Fresh Gaussian matrices per seed would make the cost swing several-fold
    between matrices with the share of restarts that fail to converge.
    """

    def __init__(self, seed: int, matrices: int = 8):
        panel_rng = np.random.default_rng(FLAG_PANEL_SEED)
        panel = [random_traceless3(panel_rng) for _ in range(matrices)]
        rng = np.random.default_rng(seed)
        self.matrices = []
        for P in panel:
            V = random_unitary3(rng)
            self.matrices.append(V @ P @ V.conj().T)
        self.restart_seeds = [int(s) for s in rng.integers(0, 2**31, matrices)]

    def run_pass(self):
        calls: list[float] = []
        out = [
            _timed(calls, orbit3.count_flags, A, restarts=FLAG_RESTARTS, seed=s)
            for A, s in zip(self.matrices, self.restart_seeds)
        ]
        return out, calls

    def items(self, out) -> int:
        return sum(r.n_restarts for r in out)

    def check(self, out) -> list[str]:
        fails = []
        for k, r in enumerate(out):
            if not r.generic:
                continue
            N = r.num_flags
            if N not in (6, 18) or N % 6:
                fails.append(f"matrix {k}: {N} flags, expected 6 or 18")
            if not r.z_orbit_closed:
                fails.append(f"matrix {k}: clusters not closed under the cycle")
            worst = max((sol.residual for sol in r.solutions), default=0.0)
            if worst > FLAG_RESIDUAL_TOL:
                fails.append(f"matrix {k}: residual {worst:.3g} > {FLAG_RESIDUAL_TOL}")
        return fails

    def info(self, out) -> dict:
        return {
            "num_flags": [r.num_flags for r in out],
            "generic": sum(r.generic for r in out),
            "converged": sum(r.n_converged for r in out),
        }


class Scan:
    """scan5: one seeded scan_extremal(5, sample) per pass."""

    def __init__(self, seed: int, sample: int = 10000):
        self.sample = sample
        self.seed = seed

    def run_pass(self):
        calls: list[float] = []
        out = _timed(calls, classify.scan_extremal, 5, sample=self.sample, seed=self.seed)
        return out, calls

    def items(self, out) -> int:
        return out["scanned"]

    def check(self, out) -> list[str]:
        fails = []
        if not out["passed"]:
            fails.append("scan did not pass")
        if out["counterexample"] is not None:
            fails.append(f"counterexample {out['counterexample']}")
        if out["scanned"] != self.sample:
            fails.append(f"scanned {out['scanned']} != {self.sample}")
        return fails

    def info(self, out) -> dict:
        return {k: out[k] for k in ("max_abs_pairing", "min_norm", "num_argmax", "num_argmin")}


WORKLOADS = {"census5": Census, "kernels678": Kernels, "flags3": Flags, "scan5": Scan}


def make(name: str, seed: int):
    """The workload as the benchmark runs it, with its inputs generated."""
    return WORKLOADS[name](seed)
