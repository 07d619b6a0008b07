"""Census of strict maximal zero patterns under relabeling and transposition.

Enumerates the strict patterns of size mu(n) inside the n x n grid, sorts
them into classes under the group G generated by simultaneous row/column
relabeling and transposition (|G| = 2 n!), keys each class by the coarser
flip equivalence, and classifies every class as nonsingular, defective or
exceptional from its pairing against the Vandermonde expansion and its exact
stabilizer dimension.

One orbit engine serves every consumer.  A pattern is its occupancy mask
over the n x n grid (``Pattern.mask``, 64-bit, so n <= 8), and two matrices
cached per n, built once from the group's gather table, carry a mask's
occupancy bits b to its whole orbit: b @ P lists the 2 n! image masks and
b @ W the flip code of each image, its pair-multiplicity code.  The
canonical form of a pattern is its minimum image and its flip key the
minimum of b @ W, both from the pattern alone.  The census lists the sorted
masks of all strict patterns by array arithmetic, joining every subset of
the low half of the off-diagonal cells with every subset of the high half
of the complementary size, and walks them: the first unvisited mask is the
minimum of its orbit, hence the class representative, and marking its
deduplicated images visited gives the orbit size.  Output is reproducible
bit for bit.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .patterns import Pattern, j_hessenberg, mu, ne
from .polynomials import (
    norm_squared,
    pair_with_vandermonde,
    permutation_table,
)
from .stabdim import stabilizer_dim

MAX_ENUM_N = 5
# the n x n grid must fit the 64-bit masks the orbit engine works on
MAX_MASK_N = 8

STATUS_NONSINGULAR = "nonsingular"
STATUS_DEFECTIVE = "defective"
STATUS_EXCEPTIONAL = "exceptional"


def load_expected() -> dict:
    """The packaged expected constants (census counts, exceptional classes,
    family class counts); code keeps no copy of them."""
    ref = importlib.resources.files("zeropat").joinpath("data/expected.json")
    return json.loads(ref.read_text())


# Canonical representatives of the seven exceptional classes for n = 4.
EXCEPTIONAL_4 = tuple(Pattern.from_json(p) for p in load_expected()["exceptional_n4"])


@dataclass(frozen=True)
class ClassRecord:
    """One equivalence class: canonical representative plus its invariants."""

    canonical: Pattern
    orbit_size: int
    pairing: int
    stab_dim: int
    complexity: int
    status: str

    def to_json(self) -> dict:
        """The record keyed by field name, in field order."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["canonical"] = self.canonical.to_json()
        return out


@dataclass(frozen=True)
class ClassCensus:
    """Aggregate counts for one matrix size."""

    n: int
    total_patterns: int
    num_classes: int
    num_nonsingular: int
    num_defective: int
    num_exceptional: int
    num_weak_classes: int

    def to_json(self) -> dict:
        return asdict(self)


def offdiag_cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def enumerate_strict(n: int):
    """Every strict pattern of size mu(n) in the n x n grid, once each, in
    increasing mask order: a view over ``_strict_masks``."""
    if not 2 <= n <= MAX_ENUM_N:
        raise ValueError(
            f"full enumeration is budgeted for 2 <= n <= {MAX_ENUM_N}, got {n}"
        )
    return (Pattern.from_mask(int(m), n) for m in _strict_masks(n))


def strict_count(n: int) -> int:
    """Binomial count of strict patterns of size mu(n)."""
    return math.comb(2 * mu(n), mu(n))


# -- the orbit engine ------------------------------------------------------------

#: strict masks per visited-scan chunk of the census walk; the n = 5 walk
#: time is flat for chunks from 256 to 65,536 masks
_WALK_CHUNK = 4096


def _group_table(n: int) -> np.ndarray:
    """Gather table of G on the n x n grid, 2 n! rows by n^2 columns: the
    image of a mask under row g has at cell c the bit the mask has at cell
    table[g, c].  Cell c is bit c of ``Pattern.mask``, (i-1)*n + (j-1)."""
    if not 1 <= n <= MAX_MASK_N:
        raise ValueError(
            f"orbit masks are 64-bit: need 1 <= n <= {MAX_MASK_N}, got {n}"
        )
    perms = permutation_table(n)[0].astype(np.intp)
    relabel = perms[:, :, None] * n + perms[:, None, :]
    table = np.concatenate([relabel, relabel.transpose(0, 2, 1)])
    return table.reshape(-1, n * n)


def _cell_bits(masks, n: int) -> np.ndarray:
    """Occupancy bits of masks, cell c at index c of a new last axis."""
    cells = np.arange(n * n, dtype=np.uint64)
    return (np.asarray(masks, dtype=np.uint64)[..., None] >> cells) & np.uint64(1)


def _weak_weights(n: int) -> np.ndarray:
    """Weight of each cell in a weak code, flattened like ``_cell_bits``:
    cells (i, j) and (j, i) both weigh the base-3 place of the pair {i < j},
    the first pair in lexicographic order most significant; diagonal cells
    weigh 0.  A code lists the multiplicities (0, 1 or 2) of the unordered
    pairs {i < j} in lexicographic order as base-3 digits, most significant
    first, so codes order like those tuples."""
    weights = np.zeros((n, n), dtype=np.uint64)
    weights[np.triu_indices(n, 1)] = np.uint64(3) ** np.arange(
        mu(n) - 1, -1, -1, dtype=np.uint64
    )
    return (weights + weights.T).ravel()


@functools.cache
def _image_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Image-power matrix P and image-weight matrix W of G on the n x n
    grid, n^2 rows by 2 n! columns each, cached and read-only.  For the
    occupancy bits b of a mask, b @ P holds its image masks and b @ W the
    weak codes of those images, one column per group element.  The image
    under row g of ``_group_table`` moves cell table[g, c] to cell c, so
    column g has the power 2^c and the weight of cell c in row table[g, c].
    Needs n <= 8."""
    table = _group_table(n)
    column = np.arange(len(table))[:, None]
    P = np.zeros((n * n, len(table)), dtype=np.uint64)
    W = np.zeros_like(P)
    P[table, column] = np.uint64(1) << np.arange(n * n, dtype=np.uint64)
    W[table, column] = _weak_weights(n)
    P.flags.writeable = W.flags.writeable = False
    return P, W


def _orbit_images(mask: int, n: int) -> np.ndarray:
    """The 2 n! image masks of one occupancy mask under relabeling and
    transposition, one per group element, repeated where the stabilizer is
    nontrivial.  Needs n <= 8."""
    P, _ = _image_matrices(n)
    return _cell_bits(mask, n) @ P


def _weak_code(mask: int, n: int) -> int:
    """Flip key of the class of one occupancy mask: the minimum weak code
    (see ``_weak_weights``) over its images.  Needs n <= 8."""
    _, W = _image_matrices(n)
    return int((_cell_bits(mask, n) @ W).min())


def _strict_masks(n: int) -> np.ndarray:
    """Sorted occupancy masks of all strict size-mu(n) patterns.  The 2 mu(n)
    off-diagonal cells split into a low and a high half; every mask joins a
    subset of one half with a subset of the other, the two sizes summing to
    mu(n)."""
    cells = np.array(
        [(i - 1) * n + (j - 1) for i, j in offdiag_cells(n)], dtype=np.uint64
    )
    halves = []
    for half in (cells[: mu(n)], cells[mu(n):]):
        spread = np.zeros(1, dtype=np.uint64)
        size = np.zeros(1, dtype=np.intp)
        for c in half:
            spread = np.concatenate([spread, spread | (np.uint64(1) << c)])
            size = np.concatenate([size, size + 1])
        halves.append((spread, size))
    (low, low_size), (high, high_size) = halves
    masks = np.concatenate([
        (high[high_size == mu(n) - k, None] | low[low_size == k]).ravel()
        for k in range(mu(n) + 1)
    ])
    masks.sort()
    return masks


def _class_walk(n: int):
    """Yield (canonical mask, orbit size) for every class of strict
    size-mu(n) patterns in increasing canonical mask.  The first unvisited
    strict mask is the minimum of its orbit; each chunk of the sorted masks
    lists its unvisited ones at once, and each is checked again before use,
    since an orbit met earlier in the chunk may cover it."""
    masks = _strict_masks(n)
    visited = np.zeros(masks.size, dtype=bool)
    for start in range(0, masks.size, _WALK_CHUNK):
        fresh = start + np.flatnonzero(~visited[start:start + _WALK_CHUNK])
        for k in fresh.tolist():
            if visited[k]:
                continue
            images = np.sort(_orbit_images(masks[k], n))
            orbit = images[np.concatenate(([True], images[1:] != images[:-1]))]
            visited[np.searchsorted(masks, orbit)] = True
            yield int(masks[k]), int(orbit.size)


def canonical_form(I: Pattern, n: int) -> Pattern:
    """Minimum occupancy mask over the orbit of I under relabeling and
    transposition; constant on orbits and distinct across them.  Needs
    n <= 8."""
    return Pattern.from_mask(int(_orbit_images(I.mask(n), n).min()), n)


def weak_canonical_form(I: Pattern, n: int) -> tuple[int, ...]:
    """Canonicalized multiplicity vector of unordered pairs: the class
    invariant of flip equivalence combined with relabeling, taken as the
    least vector over the orbit of I (transposition keeps multiplicities).
    Needs n <= 8."""
    code = _weak_code(I.mask(n), n)
    return tuple(code // 3**k % 3 for k in reversed(range(mu(n))))


def classify_all(n: int, progress: bool = False) -> tuple[ClassCensus, list[ClassRecord]]:
    """Full census for one size: every orbit with pairing, stabilizer
    dimension and status, plus aggregate counts."""
    if not 2 <= n <= MAX_ENUM_N:
        raise ValueError(
            f"full classification is budgeted for 2 <= n <= {MAX_ENUM_N}, got {n}"
        )
    log = (lambda msg: print(msg, file=sys.stderr)) if progress else (lambda msg: None)
    total = strict_count(n)
    log(f"walking the orbits of {total} strict patterns for n={n}: "
        "canonical form, orbit size and flip key, then pairing and stabilizer rank")
    records = []
    weak_keys = set()
    covered = 0
    tally = {STATUS_NONSINGULAR: 0, STATUS_DEFECTIVE: 0, STATUS_EXCEPTIONAL: 0}
    for rep_mask, orbit_size in _class_walk(n):
        weak_keys.add(_weak_code(rep_mask, n))
        rep = Pattern.from_mask(rep_mask, n)
        pairing = pair_with_vandermonde(rep, n)
        sd = stabilizer_dim(rep, n)
        if pairing != 0:
            status = STATUS_NONSINGULAR
            if sd > n:
                raise AssertionError(
                    f"nonsingular class with stabilizer dimension {sd} > {n}"
                )
        elif sd > n:
            status = STATUS_DEFECTIVE
        else:
            status = STATUS_EXCEPTIONAL
        tally[status] += 1
        covered += orbit_size
        records.append(
            ClassRecord(
                canonical=rep,
                orbit_size=orbit_size,
                pairing=pairing,
                stab_dim=sd,
                complexity=rep.complexity(),
                status=status,
            )
        )
        if len(records) % 100 == 0:
            log(f"  classified {len(records)} classes, {covered}/{total} patterns")

    assert covered == total
    census = ClassCensus(
        n=n,
        total_patterns=total,
        num_classes=len(records),
        num_nonsingular=tally[STATUS_NONSINGULAR],
        num_defective=tally[STATUS_DEFECTIVE],
        num_exceptional=tally[STATUS_EXCEPTIONAL],
        num_weak_classes=len(weak_keys),
    )
    return census, records


# -- reports over specific slices ------------------------------------------------


def audit_exceptional4() -> dict:
    """Audit of the seven exceptional classes for n = 4: each is singular,
    not defective, the classes are pairwise distinct, and together they are
    exactly the exceptional classes of the full census."""
    n = 4
    per_pattern = []
    canon_forms = set()
    for I in EXCEPTIONAL_4:
        pairing = pair_with_vandermonde(I, n)
        sd = stabilizer_dim(I, n)
        canon = canonical_form(I, n)
        canon_forms.add(canon.mask(n))
        per_pattern.append(
            {
                "pattern": I.to_json(),
                "pairing": pairing,
                "stab_dim": sd,
                "singular": pairing == 0,
                "non_defective": sd <= n,
            }
        )
    census, records = classify_all(n)
    census_exceptional = {
        r.canonical.mask(n) for r in records if r.status == STATUS_EXCEPTIONAL
    }
    report = {
        "patterns": per_pattern,
        "all_singular": all(p["singular"] for p in per_pattern),
        "all_non_defective": all(p["non_defective"] for p in per_pattern),
        "num_distinct_classes": len(canon_forms),
        "exhausts_exceptional_classes": canon_forms == census_exceptional,
        "passed": False,
    }
    report["passed"] = (
        report["all_singular"]
        and report["all_non_defective"]
        and report["num_distinct_classes"] == 7
        and report["exhausts_exceptional_classes"]
    )
    return report


def complexity_one_case_a(n: int) -> Pattern:
    """Representative with the doubled pair and the missing pair sharing an
    index: upper triangle minus (1,2) plus (3,1)."""
    return Pattern([p for p in ne(n) if p != (1, 2)] + [(3, 1)])


def complexity_one_case_b(n: int) -> Pattern:
    """Representative with the doubled pair and the missing pair disjoint:
    upper triangle minus (1,2) plus (4,3)."""
    return Pattern([p for p in ne(n) if p != (1, 2)] + [(4, 3)])


def check_complexity_one(n: int) -> dict:
    """Complexity-1 patterns fall into two flip-equivalence classes; the class
    of case (a) has pairing of magnitude n!/2, the class of case (b) is
    singular and defective."""
    if n < 4:
        raise ValueError("the two-class split needs n >= 4")
    a = complexity_one_case_a(n)
    b = complexity_one_case_b(n)
    pa = pair_with_vandermonde(a, n)
    pb = pair_with_vandermonde(b, n)
    report = {
        "n": n,
        "case_a_pairing": pa,
        "case_b_pairing": pb,
        "case_a_magnitude_ok": abs(pa) == math.factorial(n) // 2,
        "case_b_singular": pb == 0,
        "case_b_defective": stabilizer_dim(b, n) > n,
    }
    keys = {weak_canonical_form(a, n), weak_canonical_form(b, n)}
    report["distinct_weak_classes"] = len(keys)
    if n <= MAX_ENUM_N:
        # complexity is a class invariant, so whole classes are in or out
        count = 0
        weak_keys = set()
        for rep_mask, orbit_size in _class_walk(n):
            if Pattern.from_mask(rep_mask, n).complexity() == 1:
                count += orbit_size
                weak_keys.add(_weak_code(rep_mask, n))
        report["num_complexity_one_patterns"] = count
        report["num_weak_classes"] = len(weak_keys)
    else:
        report["num_weak_classes"] = None
    report["passed"] = (
        report["case_a_magnitude_ok"]
        and report["case_b_singular"]
        and report["case_b_defective"]
        and report["distinct_weak_classes"] == 2
        and (report["num_weak_classes"] in (None, 2))
    )
    return report


def verify_hessenberg(max_n: int = 7) -> dict:
    """Pairings of the Hessenberg-band family against the closed form
    (-1)^(n-1) C(n,k) C(n-2,k-1) for all 3 <= n <= max_n, 1 <= k <= n-1."""
    rows = []
    ok = True
    for n in range(3, max_n + 1):
        for k in range(1, n):
            got = pair_with_vandermonde(j_hessenberg(k, n), n)
            expect = (-1) ** (n - 1) * math.comb(n, k) * math.comb(n - 2, k - 1)
            rows.append({"n": n, "k": k, "pairing": got, "expected": expect})
            ok = ok and got == expect
    return {"rows": rows, "passed": ok}


def _sampled_classes(n: int, sample: int, seed: int) -> list[tuple[int, int]]:
    """(canonical mask, number of draws) of each class met by ``sample``
    distinct strict patterns drawn with random.Random(seed), in order of
    first meeting."""
    if sample < 1:
        raise ValueError("a sampled scan needs at least one pattern")
    if sample > strict_count(n):
        raise ValueError(
            f"cannot sample {sample} distinct patterns: n={n} has only "
            f"{strict_count(n)} strict patterns of size mu(n)"
        )
    rng = random.Random(seed)
    bits = [(i - 1) * n + (j - 1) for i, j in offdiag_cells(n)]
    seen = set()
    draws: dict[int, int] = {}
    while len(seen) < sample:
        mask = sum(1 << bits[k] for k in rng.sample(range(len(bits)), mu(n)))
        if mask not in seen:
            seen.add(mask)
            key = int(_orbit_images(mask, n).min())
            draws[key] = draws.get(key, 0) + 1
    return list(draws.items())


def scan_extremal(n: int, sample: int | None = None, seed: int = 0) -> dict:
    """Extremes of the pairing and of the squared norm over strict patterns of
    size mu(n).

    Exhaustive for n <= MAX_ENUM_N, over the census walk; otherwise a seeded
    random sample of distinct patterns is scanned, which cannot exceed the
    strict_count(n) patterns there are.  Reports the maximum |pairing|, the
    minimum norm, how many patterns attain them, and whether the extremes
    agree with the expected bound n! attained exactly at the patterns whose
    difference product is the Vandermonde expansion up to sign (the full
    simple patterns).

    |pairing|, the norm and simplicity are class invariants (relabeling
    permutes the variables, transposition multiplies chi by (-1)^mu), so both
    modes scan classes, each weighted by the patterns it stands for: its
    orbit size, or its number of draws; n <= 8.
    """
    if sample is not None:
        classes = _sampled_classes(n, sample, seed)
    elif 2 <= n <= MAX_ENUM_N:
        classes = list(_class_walk(n))
    else:
        raise ValueError(
            f"an exhaustive scan is budgeted for 2 <= n <= {MAX_ENUM_N}, got {n}; "
            "pass a sample"
        )
    nfact = math.factorial(n)
    groups = []
    for mask, weight in classes:
        I = Pattern.from_mask(mask, n)
        groups.append((I, weight, abs(pair_with_vandermonde(I, n)), norm_squared(I, n)))
    max_pair = max((p for _, _, p, _ in groups), default=None)
    min_norm = min((q for _, _, _, q in groups), default=None)
    argmax = [(I, w) for I, w, p, _ in groups if p == max_pair]
    argmin = [(I, w) for I, w, _, q in groups if q == min_norm]
    counterexample = next(
        (I for I, _, p, q in groups if p > nfact or q < nfact), None
    )
    extremes_simple = all(I.is_simple() for I, _ in argmax + argmin)
    num_argmax = sum(w for _, w in argmax)
    num_argmin = sum(w for _, w in argmin)
    # exhaustively, the attaining sets must be exactly the full simple patterns
    bound_attained = sample is not None or (
        max_pair == min_norm == nfact and num_argmax == num_argmin == 2 ** mu(n)
    )
    return {
        "n": n,
        "scanned": sum(w for _, w, _, _ in groups),
        "max_abs_pairing": max_pair,
        "min_norm": min_norm,
        "num_argmax": num_argmax,
        "num_argmin": num_argmin,
        "counterexample": counterexample.to_json() if counterexample else None,
        "extremes_attained_only_at_signed_vandermonde": extremes_simple,
        "passed": counterexample is None and extremes_simple and bound_attained,
    }
