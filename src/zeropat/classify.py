"""Census of strict maximal zero patterns under relabeling and transposition.

Enumerates the strict patterns of size mu(n) inside the n x n grid, sorts
them into classes under the group G generated by simultaneous row/column
relabeling and transposition (|G| = 2 n!), keys each class by the coarser
flip equivalence, and classifies every class as nonsingular, defective or
exceptional from its pairing against the Vandermonde expansion and its exact
stabilizer dimension.

One orbit engine serves every consumer.  A pattern is its occupancy mask
over the n x n grid (``Pattern.mask``, 64-bit, so n <= 8), and two float64
matrices per n, built from the group's gather table and cached for exact
BLAS products, carry a mask's occupancy bits b to its orbit: b @ P lists
the 2 n! image masks and b @ W the flip (pair-multiplicity) code of each
relabeling.  The canonical form of a pattern is its minimum image and its
flip key the minimum of b @ W, both from the pattern alone.  The census
walks the strict masks in increasing order, the colex order of their
off-diagonal cells, unranked a slice of unvisited ranks at a time: a mask
is its class representative when it equals its minimum image.  Only
representatives' images are marked visited, at their colex ranks, and
only representatives are keyed; the orbit size is 2 n! over the number of
images equal to the representative, its stabilizer.  Output is
reproducible bit for bit.
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

#: colex ranks per chunk of the census walk, and still unvisited ranks per
#: slice of a chunk, unranked and imaged in one product.  The n = 5 walk
#: takes 5 ms at 4096 and 8192, 6-7 ms at 512 and 65,536; slices of 64 keep
#: its transients to 0.44 MB, and 48 to 128 take 5-7 ms, 32 about 10 ms
_WALK_CHUNK, _WALK_SLICE = 4096, 64


def _require_mask_n(n: int) -> None:
    """ValueError unless the n x n grid fits a 64-bit mask."""
    if not 1 <= n <= MAX_MASK_N:
        raise ValueError(
            f"orbit masks are 64-bit: need 1 <= n <= {MAX_MASK_N}, got {n}"
        )


def _group_table(n: int) -> np.ndarray:
    """Gather table of G on the n x n grid, 2 n! rows by n^2 columns: the
    image of a mask under row g has at cell c the bit the mask has at cell
    table[g, c].  Cell c is bit c of ``Pattern.mask``, (i-1)*n + (j-1)."""
    _require_mask_n(n)
    perms = permutation_table(n)[0].astype(np.intp)
    relabel = perms[:, :, None] * n + perms[:, None, :]
    table = np.concatenate([relabel, relabel.transpose(0, 2, 1)])
    return table.reshape(-1, n * n)


def _cell_bits(masks, n: int) -> np.ndarray:
    """Occupancy bits of masks as uint8, cell c at index c of a new last axis."""
    masks = np.asarray(masks, dtype="<u8")[..., None].view(np.uint8)
    return np.unpackbits(masks, axis=-1, bitorder="little")[..., :n * n]


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
def _float_images(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Image-power matrix P and image-weight matrix W of G on the n x n
    grid in float64, cached and read-only.  For the occupancy bits b of a
    mask, b @ P holds its image masks, one column per group element, and
    b @ W the weak codes of its n! relabelings, since weak weights are
    symmetric and a transposed image has the code of its relabeling.  Row
    g of ``_group_table`` moves cell table[g, c] to cell c, so column g has
    the power 2^c and the weight of cell c in row table[g, c].  Products
    are exact while their sums stay below 2^53: weak codes stay below 3^28
    for n <= 8 and masks below 2^49 for n <= 7; at n = 8 P holds the low 32
    bits of the images, then the high ones (83 MB, W 21 MB)."""
    table = _group_table(n)
    order = len(table)
    width = n * n if n * n <= 53 else 32
    column = np.arange(order)[:, None]
    P = np.zeros((n * n, order * (n * n // width)))
    for k, s in enumerate(range(0, n * n, width)):
        P[table[:, s:s + width], column + k * order] = 2.0 ** np.arange(width)
    W = np.zeros((n * n, order // 2))
    W[table[:order // 2], column[:order // 2]] = _weak_weights(n)
    P.flags.writeable = W.flags.writeable = False
    return P, W


def _orbit_images(masks, n: int) -> np.ndarray:
    """The 2 n! image masks of each occupancy mask under relabeling and
    transposition, one per group element, repeated where the stabilizer is
    nontrivial, as uint64 on a new last axis.  Needs n <= 8."""
    Pf, _ = _float_images(n)
    images = (_cell_bits(masks, n) @ Pf).astype(np.uint64)
    order = 2 * math.factorial(n)
    if images.shape[-1] > order:  # n = 8: the low and the high 32 bits
        images = images[..., :order] | images[..., order:] << np.uint64(32)
    return images


def _weak_code(masks, n: int) -> np.ndarray:
    """Flip key of the class of each occupancy mask: the minimum weak code
    (see ``_weak_weights``) over its images, as uint64 in an array shaped
    like ``masks``.  Needs n <= 8."""
    _, Wf = _float_images(n)
    return (_cell_bits(masks, n) @ Wf).min(axis=-1).astype(np.uint64)


@functools.cache
def _colex(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The colex numbering of strict masks, cached and read-only: the grid
    bit of each off-diagonal cell in index order, and binom[t, c] = C(c, t)
    for t <= mu(n) and c < 2 mu(n).  A strict mask has mu(n) bits, all
    off-diagonal, so masks order as the colex order of their off-diagonal
    cell indices c_1 < ... < c_mu, and the rank of a mask in that order is
    sum_t C(c_t, t), the combinatorial number system (Knuth, TAOCP 7.2.1.3).
    Needs n <= 8."""
    _require_mask_n(n)
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
        masks |= np.uint64(1) << cells[c]
    return masks


def _class_walk(n: int):
    """Yield (canonical mask, orbit size, flip key) for every class of
    strict size-mu(n) patterns in increasing canonical mask.  The walk runs
    over the colex ranks, in increasing mask order, a chunk's unvisited
    ranks a slice at a time, unranked and imaged in one product.  An
    unvisited mask is the minimum of its orbit, the representative, exactly
    when it equals the least of its images; only those images are marked
    visited, at their ranks, before the next slice.  The orbit size is 2 n!
    over the stabilizer, the images equal to the representative, and the
    flip keys of the slice's representatives are one ``_weak_code``."""
    order = 2 * math.factorial(n)
    visited = np.zeros(strict_count(n), dtype=bool)
    for start in range(0, visited.size, _WALK_CHUNK):
        fresh = start + np.flatnonzero(~visited[start:start + _WALK_CHUNK])
        while fresh.size:
            masks = _unrank(fresh[:_WALK_SLICE], n)
            images = _orbit_images(masks, n)
            reps = masks == images.min(axis=-1)
            masks, images = masks[reps], images[reps]
            visited[_rank(images, n)] = True
            sizes = order // np.count_nonzero(images == masks[:, None], axis=-1)
            keys = _weak_code(masks, n)
            yield from zip(masks.tolist(), sizes.tolist(), keys.tolist())
            fresh = fresh[_WALK_SLICE:]
            fresh = fresh[~visited[fresh]]


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
    dimension and status, plus aggregate counts; the number of flip classes
    is the number of distinct flip keys the walk gives."""
    _require_enum_budget(n, "full classification")
    log = (lambda msg: print(msg, file=sys.stderr)) if progress else (lambda msg: None)
    total = strict_count(n)
    log(f"walking the orbits of {total} strict patterns for n={n}, then pairing, "
        "stabilizer dimension (pinned-entry count) and flip key of each class")
    records = []
    covered = 0
    tally = {STATUS_NONSINGULAR: 0, STATUS_DEFECTIVE: 0, STATUS_EXCEPTIONAL: 0}
    walk = list(_class_walk(n))
    for rep_mask, orbit_size, _ in walk:
        rep = Pattern.from_mask(rep_mask, n)
        pairing = pair_with_vandermonde(rep, n)
        sd = stabilizer_dim(rep, n)
        if pairing != 0 and sd > n:
            raise AssertionError(f"nonsingular class with stabilizer dimension {sd} > {n}")
        status = (STATUS_NONSINGULAR if pairing != 0
                  else STATUS_DEFECTIVE if sd > n else STATUS_EXCEPTIONAL)
        tally[status] += 1
        covered += orbit_size
        records.append(ClassRecord(rep, orbit_size, pairing, sd, rep.complexity(), status))
        if len(records) % 100 == 0:
            log(f"  classified {len(records)} classes, {covered}/{total} patterns")

    if covered != total:
        raise AssertionError(
            f"the class orbits cover {covered} of the {total} strict patterns"
        )
    census = ClassCensus(
        n, total, len(records), tally[STATUS_NONSINGULAR], tally[STATUS_DEFECTIVE],
        tally[STATUS_EXCEPTIONAL], len({key for _, _, key in walk}),
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
    bits = _colex(n)[0].tolist()
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

    A sample may miss the bound, so its own extremes prove nothing: the
    scanned classes that attain n!, in the pairing and in the norm, must be
    the simple ones, and exhaustively the 2^mu(n) full simple patterns.

    |pairing|, the norm and simplicity are class invariants (relabeling
    permutes the variables, transposition multiplies chi by (-1)^mu), so both
    modes scan classes, each weighted by the patterns it stands for: its
    orbit size, or its number of draws; n <= 8.
    """
    if sample is not None:
        classes = _sampled_classes(n, sample, seed)
    else:
        _require_enum_budget(n, "an exhaustive scan", "; pass a sample")
        classes = [(mask, size) for mask, size, _ in _class_walk(n)]
    nfact = math.factorial(n)
    groups = []
    for mask, weight in classes:
        I = Pattern.from_mask(mask, n)
        groups.append((I, weight, abs(pair_with_vandermonde(I, n)), norm_squared(I, n)))
    max_pair = max((p for _, _, p, _ in groups), default=None)
    min_norm = min((q for _, _, _, q in groups), default=None)
    counterexample = next(
        (I for I, _, p, q in groups if p > nfact or q < nfact), None
    )
    extremes_simple = all(
        I.is_simple() == (p == nfact) == (q == nfact) for I, _, p, q in groups
    )
    num_argmax = sum(w for _, w, p, _ in groups if p == max_pair)
    num_argmin = sum(w for _, w, _, q in groups if q == min_norm)
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
