"""Zero patterns of complex matrices under unitary similarity.

Exact classification of strict maximal zero patterns (nonsingular, defective,
exceptional), closed-form inner product identities for several pattern
families, exact stabilizer dimensions, and a numerical study of the reducing
flags of the 3 x 3 cyclic pattern.
"""

from .patterns import (
    Pattern,
    block_extend,
    cyclic3,
    delta,
    j_family,
    j_hessenberg,
    lam,
    lam_prime,
    mu,
    ne,
    nw,
    parse_family,
    pi_family,
    se,
    sw,
)
from .polynomials import (
    Poly,
    chi,
    complete,
    diff_apply,
    elementary,
    in_coinvariant_ideal,
    inner,
    norm_squared,
    pair_with_vandermonde,
    shift,
    vandermonde,
)
from .classify import (
    ClassCensus,
    ClassRecord,
    canonical_form,
    classify_all,
    enumerate_strict,
    weak_canonical_form,
)
from .stabdim import is_defective, stabilizer_dim

__version__ = "0.1.0"

__all__ = [
    "Pattern",
    "Poly",
    "ClassCensus",
    "ClassRecord",
    "block_extend",
    "canonical_form",
    "chi",
    "classify_all",
    "complete",
    "cyclic3",
    "delta",
    "diff_apply",
    "elementary",
    "enumerate_strict",
    "in_coinvariant_ideal",
    "inner",
    "is_defective",
    "j_family",
    "j_hessenberg",
    "lam",
    "lam_prime",
    "mu",
    "ne",
    "norm_squared",
    "nw",
    "pair_with_vandermonde",
    "parse_family",
    "pi_family",
    "se",
    "shift",
    "stabilizer_dim",
    "sw",
    "vandermonde",
    "weak_canonical_form",
]
