"""Command line entry point.

Subcommands:

* ``gen``       print members of a polynomial family
* ``turan``     build a (possibly extended/reflected/shifted) Turan expression
* ``stability`` decide weak Hurwitz stability of a coefficient list
* ``campaign``  sweep a (k, n) grid of extended Turan stability verdicts
* ``verify``    run the named verification suites

Exit code is 0 iff every assertion of the invoked command passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import harness, sequences, stability
from .expressions import extended_turan, reflect_shift
from .harness import DEFAULT_SEED, CampaignConfig, TIER_LIMITS
from .polycore import Poly
from .sequences import SequenceSpec


def _rational(flag: str, text: str) -> Fraction:
    """``text`` as a Fraction; text that is not a rational (``x``, ``1/0``)
    is a ValueError that names the flag and the text."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: {text.strip()!r} is not a rational number") from None


def _rationals(flag: str, text: str) -> list[Fraction]:
    return [_rational(flag, entry) for entry in text.split(",")]


def _parse_spec(args) -> SequenceSpec:
    return sequences.spec(
        args.family, _rationals("--params", args.params) if args.params else ()
    )


def _emit_polys(polys, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([p.to_text() for p in polys]))
    else:
        for i, p in enumerate(polys):
            print(f"P_{i}: {p.pretty()}  [{p.to_text()}]")


# the largest sequence index gen and turan compute, P_k or P_(k+2n): a deep
# grid needs P_220
MAX_INDEX = 500


def _check_k(args) -> None:
    if args.k < 0:
        raise ValueError("--k must be >= 0")


def _check_index(what: str, index: int) -> None:
    if index > MAX_INDEX:
        raise ValueError(f"{what} must be <= {MAX_INDEX}; got {index}")


def cmd_gen(args) -> int:
    _check_k(args)
    _check_index("--k", args.k)
    spec = _parse_spec(args)
    polys = sequences.generate(spec, args.k)
    _emit_polys(polys, args.format)
    return 0


def cmd_turan(args) -> int:
    _check_k(args)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    _check_index("--k + 2*--n", args.k + 2 * args.n)
    spec = _parse_spec(args)
    seq = sequences.generate(spec, 2 * args.n + args.k)
    shift = _rational("--shift", args.shift or "0")
    expr = reflect_shift(extended_turan(seq, args.k, args.n), args.reflect, shift)
    if args.format == "json":
        print(json.dumps({"family": spec.family, "k": args.k, "n": args.n,
                          "coeffs": expr.to_text()}))
    else:
        print(f"{expr.pretty()}  [{expr.to_text()}]")
    return 0


def cmd_stability(args) -> int:
    poly = Poly(_rationals("--poly", args.poly))
    if poly.is_zero:
        raise ValueError("the zero polynomial has no stability verdict")
    cert = stability.is_weakly_hurwitz(poly)
    if args.certificate:
        print(json.dumps(cert.summary()))
    else:
        print("weakly-hurwitz-stable" if cert.verdict else "unstable")
    return 0


def cmd_campaign(args) -> int:
    cfg = CampaignConfig(
        family=_parse_spec(args),
        k_max=args.k_max,
        n_max=args.n_max,
        reflect=args.reflect,
        shift=_rational("--shift", args.shift or "0"),
        jobs=args.jobs,
        tier=args.tier,
    )
    out = os.path.abspath(args.out)
    out_dir = os.path.dirname(out)
    if not os.path.isdir(out_dir):
        raise OSError(f"cannot write report to {args.out}: no directory {out_dir}")
    if os.path.isdir(out):
        raise OSError(f"cannot write report to {args.out}: it is a directory")
    if not os.access(out_dir, os.W_OK):  # for the report's .partial file
        raise OSError(f"cannot write report to {args.out}: not writable")
    records = harness.run_campaign(cfg)
    harness.emit_reports(records, args.out, with_timing=args.timing)
    flagged = [r for r in records if r.flagged]
    print(f"{len(records)} cells, {len(flagged)} flagged -> {args.out}")
    for rec in flagged:
        print(
            f"!! COUNTEREXAMPLE CANDIDATE: family={rec.family} k={rec.k} "
            f"n={rec.n} verdict={rec.verdict}"
        )
    return 1 if flagged else 0


# the suites of ``verify``, by name; each takes the --seed value
_SUITES = {
    "fisk": lambda seed: harness.verify_fisk_counterexample(),
    "cheby": lambda seed: harness.verify_chebyshev_closed_forms(20, 6),
    "thm12": lambda seed: (
        harness.verify_theorem_1_2(sequences.spec("bell"), 25)
        and harness.verify_theorem_1_2(sequences.spec("hermite"), 12)
        and harness.verify_theorem_1_2(harness.polar_unit_sequence(17), 15)
    ),
    "legendre": lambda seed: harness.verify_legendre_turan(20),
    "wronskian": lambda seed: harness.verify_wronskian_strip(100, seed=seed),
    "jensen": lambda seed: harness.verify_jensen_laguerre_relations(25, seed=seed),
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        passed = _SUITES[name](args.seed)
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="turanstab", description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", required=True, choices=sequences.FAMILIES)
        wanted = "; ".join(f"{name} {params}" for name, params
                           in sequences.FAMILIES.items() if params)
        p.add_argument("--params", help=f"comma-separated family parameters ({wanted})")

    p = sub.add_parser("gen", help="generate family members P_0..P_k")
    add_family(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("turan", help="build a Turan-type expression")
    add_family(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--reflect", action="store_true")
    p.add_argument("--shift", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_turan)

    p = sub.add_parser("stability", help="weak Hurwitz stability verdict")
    p.add_argument("--poly", required=True,
                   help="ascending comma-separated coefficients, e.g. 0,-8,-2,0,1")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("campaign", help="sweep extended Turan stability verdicts")
    add_family(p)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--n-max", type=int, default=1)
    p.add_argument("--reflect", action="store_true")
    p.add_argument("--shift", default=None)
    p.add_argument("--tier", choices=tuple(TIER_LIMITS), default="desk")
    p.add_argument("--jobs", type=int, default=1,
                   help="workers, at most one per diagonal and per CPU this "
                        "process may run on: this process and a forked child "
                        "for each other one; 1, or a platform without fork, "
                        "runs in-process")
    p.add_argument("--timing", action="store_true",
                   help="include per-cell timings (report no longer byte-stable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True, choices=(*_SUITES, "all"))
    p.set_defaults(func=cmd_verify)
    return parser


# argparse reads a value that starts with "-" and is not a plain number,
# such as -1,1 or -1/2, as an option; these flags take the next argument
# as their value, whatever it starts with
_VALUE_FLAGS = ("--poly", "--params", "--shift")


def _attach_values(argv: list[str]) -> list[str]:
    """``argv`` with each ``FLAG VALUE`` of a value flag as ``FLAG=VALUE``."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in _VALUE_FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input: one stderr line, and argparse's usage-error exit code
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
