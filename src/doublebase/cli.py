"""Command-line interface.

Each subcommand returns a library result, which main prints by its str
(brackets as [lo, hi], words as PRE(PER), directives as HEAD(TAIL)), or
a text.  Exit status: 0 on success, 2 on a precondition or parse error
(a ValueError), 3 when _undecided holds for the result.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction

from .classify import Classification, Label, classify_omega, classify_sigma, classify_univoque
from .config import DEFAULT, Config
from .critical import (
    Case,
    CriticalResult,
    KsResult,
    curve_csv,
    generalized_golden_ratio,
    komornik_loreti,
    ks_crosscheck,
    sample_curve,
)
from .expansions import BasePair, hole, quasi_greedy, quasi_lazy
from .oracle import verify_membership
from .series import reduce_system
from .solvers import PreconditionError, mu
from .spectral import (
    build_automaton,
    entropy,
    ifs_dimension,
    univoque_dimension_lower_bound,
)
from .substitution import SMapResult, limit_word, parse_directive, s_map
from .words import parse_word

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_UNDECIDED = 3


def _config(args) -> Config:
    given = {name: getattr(args, name, None) for name in ("precision", "tol", "max_depth")}
    return replace(DEFAULT, **{name: value for name, value in given.items() if value is not None})


def _at_least(low: int):
    """An argparse type for integers of at least `low`: a depth below 1
    or a length below 0 compares nothing, so argparse rejects it and
    names the option."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _cmd_expand(args) -> str:
    fn = quasi_greedy if args.mode == "quasi-greedy" else quasi_lazy
    BasePair(args.q0, args.q1)  # rejects bases <= 1 and infinite ones
    if args.x is not None:
        x = Fraction(args.x)
    else:
        left, right = hole(Fraction(args.q0), Fraction(args.q1))
        x = left if args.mode == "quasi-greedy" else right
    run = fn(args.q0, args.q1, x, args.digits)
    if not run.boundary:
        return run.digits
    marks = "".join("^" if run.flagged(i) else " " for i in range(len(run.digits)))
    return f"{run.digits}\n{marks.rstrip()}   (^ = exact boundary hit)"


def _cmd_entropy(args) -> str:
    m = build_automaton(parse_word(args.a), parse_word(args.b))
    return "\n".join([f"{entropy(m)!r}  (states={len(m)}, live={len(m.live)})",
                      *(m.dump_lines() if args.dump else ())])


def _cmd_dim(args) -> str:
    if args.r0 is not None and args.r1 is not None:
        return repr(ifs_dimension(args.r0, args.r1))
    if args.q0 is None or args.q1 is None:
        raise PreconditionError("dim needs either --r0/--r1 or --q0/--q1")
    return repr(univoque_dimension_lower_bound(args.q0, args.q1, config=_config(args)))


def _cmd_curve(args) -> str:
    rows = sample_curve(args.q0_from, args.q0_to, args.samples, args.what, config=_config(args))
    text = curve_csv(rows)
    if not args.out:
        return text.removesuffix("\n")  # main prints it with its newline
    with open(args.out, "w") as fh:
        fh.write(text)
    return f"wrote {len(rows)} rows to {args.out}"


def _cmd_reduce(args) -> str:
    offset, scale = reduce_system(args.d0, args.q0, args.d1, args.q1)
    return f"offset={offset!r} scale={scale!r}"


def _undecided(res) -> bool:
    """The exit-3 rule: an Undecided classification, a truncated s-map,
    a ks tie ("=") or a primitive-limit or depth-exhausted critical
    value whose bracket is wider than 1e-6."""
    if isinstance(res, Classification):
        return res.label is Label.UNDECIDED
    if isinstance(res, SMapResult):
        return res.truncated
    if isinstance(res, KsResult):
        return res.order == "="
    if isinstance(res, CriticalResult):
        return res.case in (Case.PRIMITIVE_LIMIT, Case.DEPTH_EXHAUSTED) and res.value.width > 1e-6
    return False


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="doublebase",
        description="Two-base binary expansions: critical bases, subshift "
        "classification, entropy and dimension bounds.",
    )
    p.add_argument("--precision", type=int,
                   help="digits of the decimal signs that certify what floats cannot (default 30)")
    p.add_argument("--tol", type=float, help="bracket width tolerance")
    p.add_argument("--max-depth", dest="max_depth", type=int, help="directive descent depth")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gr", help="generalized golden ratio G(q0)")
    s.add_argument("q0", type=float)
    s.set_defaults(fn=lambda a: generalized_golden_ratio(a.q0, config=_config(a)))

    s = sub.add_parser("kl", help="generalized Komornik-Loreti constant K(q0)")
    s.add_argument("q0", type=float)
    s.set_defaults(fn=lambda a: komornik_loreti(a.q0, config=_config(a)))

    s = sub.add_parser("mu", help="crossing base of g_u and g~_v")
    s.add_argument("--u", required=True, help="word PRE(PER)")
    s.add_argument("--v", required=True, help="word PRE(PER)")
    s.set_defaults(fn=lambda a: mu(parse_word(a.u), parse_word(a.v), config=_config(a)))

    s = sub.add_parser("classify-omega", help="cardinality of Omega_{a,b}")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.set_defaults(fn=lambda a: classify_omega(parse_word(a.a), parse_word(a.b), _config(a).max_depth))

    s = sub.add_parser("classify-sigma", help="cardinality of Sigma_{a,b}")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.set_defaults(fn=lambda a: classify_sigma(parse_word(a.a), parse_word(a.b), _config(a).max_depth))

    s = sub.add_parser("classify-u", help="cardinality of the univoque set U_{q0,q1}")
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.set_defaults(fn=lambda a: classify_univoque(a.q0, a.q1, config=_config(a)))

    s = sub.add_parser("expand", help="quasi-greedy / quasi-lazy digits")
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.add_argument("--mode", choices=["quasi-greedy", "quasi-lazy"], default="quasi-greedy")
    s.add_argument("--digits", type=_at_least(0), default=32)
    s.add_argument("--x", type=str, default=None, help="point to expand (default: hole endpoint)")
    s.set_defaults(fn=_cmd_expand)

    s = sub.add_parser("smap", help="directive sequence of a word's partition cell")
    s.add_argument("--word", required=True)
    s.add_argument("--directive-depth", dest="directive_depth", type=_at_least(1), default=48)
    s.set_defaults(fn=lambda a: s_map(parse_word(a.word), a.directive_depth))

    s = sub.add_parser("limit-word", help="limit word of a directive sequence")
    s.add_argument("--directive", required=True)
    s.add_argument("--seed", choices=["0", "1"], default="0")
    s.add_argument("--length", type=_at_least(0), default=64)
    s.set_defaults(fn=lambda a: limit_word(parse_directive(a.directive), a.seed, a.length))

    s = sub.add_parser("entropy", help="topological entropy of Omega_{a,b}")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--dump", action="store_true", help="print the automaton edges")
    s.set_defaults(fn=_cmd_entropy)

    s = sub.add_parser("dim", help="IFS dimension / univoque dimension lower bound")
    s.add_argument("--q0", type=float)
    s.add_argument("--q1", type=float)
    s.add_argument("--r0", type=float)
    s.add_argument("--r1", type=float)
    s.set_defaults(fn=_cmd_dim)

    s = sub.add_parser("curve", help="sample G/K on a grid, CSV output")
    s.add_argument("--from", dest="q0_from", type=float, required=True)
    s.add_argument("--to", dest="q0_to", type=float, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--what", choices=["gr", "kl", "both"], default="both")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_curve)

    s = sub.add_parser("reduce", help="reduce an alphabet-base system to standard digits")
    s.add_argument("--d0", type=float, required=True)
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--d1", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.set_defaults(fn=_cmd_reduce)

    s = sub.add_parser("ks", help="order of the expansion-bound directives at (q0, q1)")
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.add_argument("--directive-depth", dest="directive_depth", type=_at_least(1), default=24)
    s.set_defaults(fn=lambda a: ks_crosscheck(a.q0, a.q1, a.directive_depth))

    s = sub.add_parser("verify", help="hole-avoidance check for a word's orbit")
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.add_argument("--word", required=True)
    s.add_argument("--shifts", type=int, default=None)
    # the global --tol, also accepted after the subcommand; unset, it is 0
    s.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="hole tolerance (default 0)")
    s.set_defaults(fn=lambda a: verify_membership(a.q0, a.q1, parse_word(a.word), a.shifts, a.tol or 0.0))

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PRECONDITION if exc.code not in (0, None) else 0
    try:
        res = args.fn(args)
    except ValueError as exc:  # WordError, DirectiveError, PreconditionError, ... among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(res)
    return EXIT_UNDECIDED if _undecided(res) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
