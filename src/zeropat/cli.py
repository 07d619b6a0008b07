"""Command line entry point.

Subcommands:

* ``pair``        inner product of a pattern's difference product with the
                  Vandermonde expansion (exact integer)
* ``classify``    full census for one size, checked against packaged
                  expectations; nonzero exit and a full audit dump on mismatch
* ``verify``      named verification suites
* ``flags3``      reducing-flag statistics for random matrices under the
                  3 x 3 cyclic pattern
* ``stabdim``     exact stabilizer dimension and defectiveness verdict
* ``invariants``  the sixteen scalar invariants of a traceless 3 x 3 matrix

All output is deterministic for a fixed seed; results go to stdout or
``--out``, progress only to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import fields

import numpy as np

from .classify import ClassRecord, classify_all, load_expected
from .patterns import Pattern, parse_family
from .polynomials import pair_with_vandermonde
from .stabdim import is_defective, stabilizer_dim
from .verify import SUITES, run_suite

SCHEMA_VERSION = 1


def _emit(obj, args) -> None:
    if getattr(args, "format", "json") == "text":
        text = _as_text(obj)
    elif getattr(args, "format", "json") == "csv":
        text = _as_csv(obj)
    else:
        text = json.dumps(obj, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _as_text(obj) -> str:
    if isinstance(obj, dict):
        return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in obj.items())
    return str(obj)


def _as_csv(obj) -> str:
    """The class records of ``classify`` output, one row each."""
    cols = [f.name for f in fields(ClassRecord)]
    lines = [",".join(cols)]
    for r in obj["classes"]:
        vals = [json.dumps(r["canonical"], separators=(",", ":"))]
        vals += [str(r[c]) for c in cols[1:]]
        lines.append(",".join(f'"{v}"' if "," in v else v for v in vals))
    return "\n".join(lines)


def _require_at_least(flag: str, value: int | None, low: int) -> None:
    """A count below ``low`` would check nothing and still report a pass."""
    if value is not None and value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _resolve_pattern(args) -> tuple[Pattern, int]:
    if args.family and args.pattern:
        raise ValueError("give --pattern or --family, not both")
    if args.family:
        I, n = parse_family(args.family)
        if args.n not in (None, n):
            raise ValueError(f"--family {args.family} fixes n = {n}, not {args.n}")
        return I, n
    if args.pattern:
        if args.n is None:
            raise ValueError("--pattern needs --n")
        I = Pattern.from_json(json.loads(args.pattern))
        return I, args.n
    raise ValueError("need --pattern or --family")


def cmd_pair(args) -> int:
    I, n = _resolve_pattern(args)
    value = pair_with_vandermonde(I, n)
    if args.format == "text":
        print(value)
    else:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "n": n,
                "pattern": I.to_json(),
                "pairing": value,
                "nonsingular": value != 0,
            },
            args,
        )
    return 0


def cmd_classify(args) -> int:
    if args.weak and args.format != "text":
        raise ValueError("--weak needs --format text")
    census, records = classify_all(args.n, progress=args.n >= 5)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "census": census.to_json(),
        "classes": [r.to_json() for r in records],
    }
    expected = load_expected()["census"].get(str(args.n))
    mismatches = {}
    if expected:
        got = census.to_json()
        for key, val in expected.items():
            if got.get(key) != val:
                mismatches[key] = {"expected": val, "computed": got.get(key)}
    payload["expected_mismatches"] = mismatches
    if args.weak:
        print(census.num_weak_classes)
        return 0 if not mismatches else 1
    _emit(payload, args)
    if mismatches:
        print(
            "expected-count mismatch; full census emitted for audit: "
            + json.dumps(mismatches, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    opts = {
        "max_n": args.max_n,
        "samples": args.samples,
        "seed": args.seed,
    }
    given = {k: v for k, v in opts.items() if v is not None}
    takes = {name: inspect.signature(SUITES[name]).parameters for name in names}
    if args.suite != "all":
        ignored = [k for k in given if k not in takes[args.suite]]
        if ignored:
            flags = ", ".join("--" + k.replace("_", "-") for k in ignored)
            raise ValueError(f"suite {args.suite!r} does not take {flags}")
    # hessenberg starts at n = 3
    _require_at_least("--max-n", args.max_n, 3)
    _require_at_least("--samples", args.samples, 1)
    reports = []
    ok = True
    for name in names:
        rep = run_suite(name, **{k: v for k, v in given.items() if k in takes[name]})
        reports.append(rep)
        ok = ok and bool(rep["passed"])
        print(f"{name}: {'pass' if rep['passed'] else 'FAIL'}", file=sys.stderr)
    _emit(
        {"schema_version": SCHEMA_VERSION, "reports": reports, "passed": ok}, args
    )
    return 0 if ok else 1


def cmd_flags3(args) -> int:
    from .orbit3 import count_flags, poly_P2_ratio, random_traceless

    _require_at_least("--samples", args.samples, 1)
    _require_at_least("--restarts", args.restarts, 1)
    rng = np.random.default_rng(args.seed)
    samples = []
    all_ok = True
    for k in range(args.samples):
        A = random_traceless(rng)
        res = count_flags(A, restarts=args.restarts, seed=args.seed + 1000 + k)
        ratios = []
        for sol in res.solutions:
            try:
                ratios.append(poly_P2_ratio(sol.reduced))
            except ValueError:
                ratios.append(None)
        samples.append(
            {
                "N": res.num_flags,
                "P1": res.cluster_p1,
                "P2_ratio": ratios,
                "cluster_residuals": [s.residual for s in res.solutions],
                "converged": res.n_converged,
                "incomplete": res.incomplete,
                "generic": res.generic,
                "z_orbit_closed": res.z_orbit_closed,
                "p1_group_sizes": res.p1_group_sizes,
                "last_new_cluster": res.last_new_cluster,
                "gn_iterations": res.gn_iterations,
            }
        )
        if res.generic:
            all_ok = all_ok and res.num_flags % 6 == 0 and res.z_orbit_closed
        print(
            f"sample {k}: N={res.num_flags} converged={res.n_converged}",
            file=sys.stderr,
        )
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "seed": args.seed,
            "restarts": args.restarts,
            "samples": samples,
            "passed": all_ok,
        },
        args,
    )
    return 0 if all_ok else 1


def cmd_stabdim(args) -> int:
    I, n = _resolve_pattern(args)
    dim = stabilizer_dim(I, n)
    defective = is_defective(I, n)
    if args.format == "text":
        print(f"stabilizer dimension: {dim}")
        print(f"defective: {'yes' if defective else 'no'}")
    else:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "n": n,
                "pattern": I.to_json(),
                "stab_dim": dim,
                "defective": defective,
                "bound": n * n - 2 * len(I),
            },
            args,
        )
    return 0


def cmd_invariants(args) -> int:
    from .orbit3 import invariants

    if args.matrix == "zero":
        X = np.zeros((3, 3), dtype=complex)
    else:
        try:
            with open(args.matrix) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --matrix: {exc}") from None
        try:
            X = np.array([[complex(re, im) for re, im in row] for row in data])
        except (TypeError, ValueError):
            raise ValueError("--matrix rows must be lists of [re, im] pairs") from None
    vals = invariants(X)
    _emit(
        {"schema_version": SCHEMA_VERSION, "invariants": [float(v) for v in vals]},
        args,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zeropat",
        description="zero patterns under unitary similarity: exact census and numerics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt_default="json", formats=("json", "text")):
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.add_argument("--format", choices=formats, default=fmt_default)

    sp = sub.add_parser("pair", help="pairing of a pattern with the Vandermonde expansion")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--pattern", help='JSON list of positions, e.g. "[[1,3],[2,1],[3,2]]"')
    sp.add_argument("--family", help="family spec, e.g. lambda:6 or pi:4 or jkn:2,5")
    common(sp)
    sp.set_defaults(fn=cmd_pair)

    sp = sub.add_parser("classify", help="full census for one size")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--weak", action="store_true", help="text mode: print only the weak class count")
    common(sp, formats=("json", "csv", "text"))
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--max-n", dest="max_n", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("flags3", help="reducing-flag statistics for the cyclic pattern")
    sp.add_argument("--samples", type=int, default=5)
    sp.add_argument("--restarts", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_flags3)

    sp = sub.add_parser("stabdim", help="exact stabilizer dimension of a pattern subspace")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--pattern")
    sp.add_argument("--family")
    common(sp, fmt_default="text")
    sp.set_defaults(fn=cmd_stabdim)

    sp = sub.add_parser("invariants", help="sixteen scalar invariants of a 3 x 3 traceless matrix")
    sp.add_argument("--matrix", required=True,
                    help="path to a JSON [[ [re,im], ... ], ...] matrix, or 'zero'")
    common(sp)
    sp.set_defaults(fn=cmd_invariants)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
