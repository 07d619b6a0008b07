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
minimum of b @ W, both from the pattern alone.  The census walks the strict
masks in increasing order, which is the colex order of their off-diagonal
cells, unranked chunk by chunk: the first unvisited mask is the minimum of
its orbit, hence the class representative.  Its images are marked visited
at their colex ranks, two lookups in tables cached per n, and the orbit
size is 2 n! over the number of images equal to the representative, its
stabilizer.  Output is reproducible bit for bit.
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

from .patterns import Pattern, mu
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


def _require_enum_budget(n: int, what: str, hint: str = "") -> None:
    """The sizes a full walk of the strict patterns is budgeted for, checked
    before any work."""
    if not 2 <= n <= MAX_ENUM_N:
        raise ValueError(
            f"{what} is budgeted for 2 <= n <= {MAX_ENUM_N}, got {n}{hint}"
        )


def enumerate_strict(n: int):
    """Every strict pattern of size mu(n) in the n x n grid, once each, in
    increasing mask order: the colex ranks unranked chunk by chunk."""
    _require_enum_budget(n, "full enumeration")
    starts = range(0, strict_count(n), _WALK_CHUNK)
    chunks = (np.arange(k, min(k + _WALK_CHUNK, starts.stop)) for k in starts)
    return (Pattern.from_mask(m, n) for c in chunks for m in _unrank(c, n).tolist())


def strict_count(n: int) -> int:
    """Binomial count of strict patterns of size mu(n)."""
    return math.comb(2 * mu(n), mu(n))


# -- the orbit engine ------------------------------------------------------------

#: colex ranks per chunk of the census walk; the n = 5 walk takes 17 ms at
#: 4096, 20-29 ms from 2048 to 16,384, 44 ms at 65,536, where more unvisited
#: entries are rechecked, and 67 ms at 256, where unranking costs per chunk
_WALK_CHUNK = 4096
#: class representatives per flip-key product of the census (0.5 MB at n = 5)
_KEY_CHUNK = 256
#: the shift of each cell of a mask, and the bit a shift moves
_SHIFTS, _ONE = np.arange(MAX_MASK_N**2, dtype=np.uint64), np.uint64(1)


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
    return (np.asarray(masks, dtype=np.uint64)[..., None] >> _SHIFTS[:n * n]) & _ONE


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


def _weak_code(masks, n: int) -> np.ndarray:
    """Flip key of the class of each occupancy mask: the minimum weak code
    (see ``_weak_weights``) over its images, in an array shaped like
    ``masks``.  Needs n <= 8."""
    _, W = _image_matrices(n)
    return (_cell_bits(masks, n) @ W).min(axis=-1)


@functools.cache
def _colex(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The colex numbering of strict masks, cached and read-only: the grid
    bit of each off-diagonal cell in index order, and binom[t, c] = C(c, t)
    for t <= mu(n) and c < 2 mu(n).  A strict mask has mu(n) bits, all
    off-diagonal, so masks order as the colex order of their off-diagonal
    cell indices c_1 < ... < c_mu, and the rank of a mask in that order is
    sum_t C(c_t, t), the combinatorial number system (Knuth, TAOCP 7.2.1.3)."""
    m = mu(n)
    cells = np.array([(i - 1) * n + j - 1 for i, j in offdiag_cells(n)], np.uint64)
    binom = np.array(
        [[math.comb(c, t) for c in range(2 * m)] for t in range(m + 1)], dtype=np.int64
    )
    cells.flags.writeable = binom.flags.writeable = False
    return cells, binom


@functools.cache
def _rank_tables(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Tables of the colex rank (``_colex``) of strict masks for n <= 6,
    cached and read-only.

    The grid bits below the last cell, a diagonal one, split into a low and
    a high half, each with a table of the terms C(c_t, t) of its own cells,
    indexed by its bits: the low half counts t from 1; the high half counts
    it from mu(n) less its own set bits, since every other bit of the mask
    lies below it.  Entries that no strict mask reaches hold meaningless
    values.

    Returns the first bit of the high half and the low and the high table,
    which take 3 MB at n = 6.  ValueError for n > 6, where two halves would
    take about 256 MB."""
    if n > 6:
        raise ValueError(f"colex rank tables are budgeted for n <= 6, got {n}")
    m = mu(n)
    cells, binom = _colex(n)
    index = {c: k for k, c in enumerate(cells.tolist())}
    shift = (n * n - 1) // 2
    tables = []
    for top in (False, True):
        # each new bit doubles the table: the low half adds cells upward, the
        # new bit the most significant index bit, the high half adds them
        # downward, the new bit the least significant one
        axis = -1 if top else 0
        terms = size = np.zeros(1, dtype=np.int64)
        for c in range(n * n - 2, shift - 1, -1) if top else range(shift):
            k = index.get(c)
            add = 0 if k is None else binom[np.clip(
                m - size if top else size + 1, 0, m), k]
            terms = np.stack([terms, terms + add], axis).ravel()
            size = np.stack([size, size + (k is not None)], axis).ravel()
        terms.flags.writeable = False
        tables.append(terms)
    return shift, tables[0], tables[1]


def _rank(masks, n: int) -> np.ndarray:
    """Colex rank of each strict mask (``_colex``), from the two cached
    tables of ``_rank_tables``, so n <= 6; ``_unrank`` inverts it.  Strict
    masks leave the last cell, a diagonal one, empty, so they are
    nonnegative as int64, the index type of the gathers."""
    shift, low, high = _rank_tables(n)
    m = np.asarray(masks, dtype=np.uint64).view(np.int64)
    return low[m & (low.size - 1)] + high[m >> shift]


def _unrank(ranks, n: int) -> np.ndarray:
    """The strict masks of the given colex ranks (``_colex``), as uint64:
    from t = mu(n) down to 1, the t-th cell index is the largest c with
    C(c, t) at most what remains of the rank."""
    cells, binom = _colex(n)
    rest = np.array(ranks, dtype=np.int64)
    masks = np.zeros(rest.shape, dtype=np.uint64)
    for t in range(mu(n), 0, -1):
        c = np.searchsorted(binom[t], rest, side="right") - 1
        rest -= binom[t, c]
        masks |= _ONE << cells[c]
    return masks


def _class_walk(n: int):
    """Yield (canonical mask, orbit size) for every class of strict
    size-mu(n) patterns in increasing canonical mask.  The walk runs over
    the colex ranks; the first unvisited mask is the minimum of its orbit,
    its images are marked visited at their ranks, and its orbit size is
    2 n! over the number of images equal to it, its stabilizer.  Each chunk
    of ranks unranks its unvisited ones at once, each checked again before
    use, since an orbit met earlier in the chunk may cover it."""
    order = 2 * math.factorial(n)
    visited = np.zeros(strict_count(n), dtype=bool)
    for start in range(0, visited.size, _WALK_CHUNK):
        fresh = start + np.flatnonzero(~visited[start:start + _WALK_CHUNK])
        for k, mask in zip(fresh.tolist(), _unrank(fresh, n).tolist()):
            if visited[k]:
                continue
            images = _orbit_images(mask, n)
            visited[_rank(images, n)] = True
            yield mask, order // int(np.count_nonzero(images == mask))


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
    code = int(_weak_code(I.mask(n), n))
    return tuple(code // 3**k % 3 for k in reversed(range(mu(n))))


def classify_all(n: int, progress: bool = False) -> tuple[ClassCensus, list[ClassRecord]]:
    """Full census for one size: every orbit with pairing, stabilizer
    dimension and status, plus aggregate counts."""
    _require_enum_budget(n, "full classification")
    log = (lambda msg: print(msg, file=sys.stderr)) if progress else (lambda msg: None)
    total = strict_count(n)
    log(f"walking the orbits of {total} strict patterns for n={n}, then pairing, "
        "stabilizer dimension (pinned-entry count) and flip key of each class")
    records = []
    weak_keys = set()
    covered = 0
    tally = {STATUS_NONSINGULAR: 0, STATUS_DEFECTIVE: 0, STATUS_EXCEPTIONAL: 0}
    walk = list(_class_walk(n))
    for rep_mask, orbit_size in walk:
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

    if covered != total:
        raise AssertionError(
            f"the class orbits cover {covered} of the {total} strict patterns"
        )
    for k in range(0, len(walk), _KEY_CHUNK):
        weak_keys.update(_weak_code([m for m, _ in walk[k:k + _KEY_CHUNK]], n).tolist())
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


# -- the extremal scan ------------------------------------------------------------


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
    else:
        _require_enum_budget(n, "an exhaustive scan", "; pass a sample")
        classes = list(_class_walk(n))
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
