"""Command-line interface.

Exit status: 0 on success, 2 on precondition or parse errors, 3 when the
computation ends Undecided.  All numeric results are printed as closed
brackets [lo, hi]; words use the PRE(PER) text format and directives the
HEAD(TAIL) format, e.g. 01(10) and LM(R).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .classify import Label, classify_omega, classify_sigma, classify_univoque
from .config import DEFAULT, Config
from .critical import (
    curve_csv,
    generalized_golden_ratio,
    komornik_loreti,
    ks_crosscheck,
    sample_curve,
)
from .expansions import BasePair, hole, quasi_greedy, quasi_lazy
from .oracle import verify_membership
from .series import reduce_system, DegenerateSystemError
from .solvers import PreconditionError, mu
from .spectral import (
    build_automaton,
    entropy,
    ifs_dimension,
    univoque_dimension_lower_bound,
)
from .substitution import DirectiveError, limit_word, parse_directive, s_map
from .words import WordError, parse_word

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_UNDECIDED = 3


def _config(args) -> Config:
    cfg = DEFAULT
    if getattr(args, "precision", None):
        cfg = cfg.with_(precision=args.precision)
    if getattr(args, "tol", None):
        cfg = cfg.with_(tol=args.tol)
    if getattr(args, "max_depth", None):
        cfg = cfg.with_(max_depth=args.max_depth)
    return cfg


def _print_critical(res) -> int:
    print(f"[{res.value.lo!r}, {res.value.hi!r}] node={res.node} case={res.case.value}")
    if res.case.value in ("PrimitiveLimit", "DepthExhausted"):
        return EXIT_UNDECIDED if res.value.width > 1e-6 else EXIT_OK
    return EXIT_OK


def _cmd_gr(args) -> int:
    return _print_critical(generalized_golden_ratio(args.q0, config=_config(args)))


def _cmd_kl(args) -> int:
    return _print_critical(komornik_loreti(args.q0, config=_config(args)))


def _cmd_mu(args) -> int:
    res = mu(parse_word(args.u), parse_word(args.v), config=_config(args))
    print(f"[{res.lo!r}, {res.hi!r}]")
    return EXIT_OK


def _cmd_classify_omega(args) -> int:
    res = classify_omega(parse_word(args.a), parse_word(args.b), args.max_depth or DEFAULT.max_depth)
    print(res)
    return EXIT_UNDECIDED if res.label is Label.UNDECIDED else EXIT_OK


def _cmd_classify_sigma(args) -> int:
    res = classify_sigma(parse_word(args.a), parse_word(args.b), args.max_depth or DEFAULT.max_depth)
    print(res)
    return EXIT_UNDECIDED if res.label is Label.UNDECIDED else EXIT_OK


def _cmd_classify_u(args) -> int:
    res = classify_univoque(args.q0, args.q1, config=_config(args))
    print(res)
    return EXIT_UNDECIDED if res.label is Label.UNDECIDED else EXIT_OK


def _cmd_expand(args) -> int:
    fn = quasi_greedy if args.mode == "quasi-greedy" else quasi_lazy
    BasePair(args.q0, args.q1)  # rejects bases <= 1
    if args.x is not None:
        x = Fraction(args.x)
    else:
        left, right = hole(Fraction(args.q0), Fraction(args.q1))
        x = left if args.mode == "quasi-greedy" else right
    run = fn(args.q0, args.q1, x, args.digits)
    marks = "".join("^" if run.flagged(i) else " " for i in range(len(run.digits)))
    print(run.digits)
    if run.boundary:
        print(marks.rstrip() + "   (^ = exact boundary hit)")
    return EXIT_OK


def _cmd_smap(args) -> int:
    res = s_map(parse_word(args.word), args.directive_depth)
    print(res)
    return EXIT_UNDECIDED if res.truncated else EXIT_OK


def _cmd_limit_word(args) -> int:
    out = limit_word(parse_directive(args.directive), args.seed, args.length)
    print(out)
    return EXIT_OK


def _cmd_entropy(args) -> int:
    m = build_automaton(parse_word(args.a), parse_word(args.b))
    h = entropy(m)
    print(f"{h!r}  (states={len(m)}, live={len(m.live)})")
    if args.dump:
        for line in m.dump_lines():
            print(line)
    return EXIT_OK


def _cmd_dim(args) -> int:
    if args.r0 is not None and args.r1 is not None:
        print(repr(ifs_dimension(args.r0, args.r1)))
        return EXIT_OK
    if args.q0 is None or args.q1 is None:
        raise PreconditionError("dim needs either --r0/--r1 or --q0/--q1")
    print(repr(univoque_dimension_lower_bound(args.q0, args.q1, config=_config(args))))
    return EXIT_OK


def _cmd_curve(args) -> int:
    rows = sample_curve(args.q0_from, args.q0_to, args.samples, args.what, config=_config(args))
    text = curve_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    offset, scale = reduce_system(args.d0, args.q0, args.d1, args.q1)
    print(f"offset={offset!r} scale={scale!r}")
    return EXIT_OK


def _cmd_ks(args) -> int:
    res = ks_crosscheck(args.q0, args.q1, args.directive_depth)
    print(f"{res.order}  node={res.node}")
    return EXIT_UNDECIDED if res.order == "Undecided" else EXIT_OK


def _cmd_verify(args) -> int:
    print(verify_membership(args.q0, args.q1, parse_word(args.word), args.shifts, args.tol or 0.0))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="doublebase",
        description="Two-base binary expansions: critical bases, subshift "
        "classification, entropy and dimension bounds.",
    )
    p.add_argument("--precision", type=int, help="decimal digits for solver certification")
    p.add_argument("--tol", type=float, help="bracket width tolerance")
    p.add_argument("--max-depth", dest="max_depth", type=int, help="directive descent depth")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gr", help="generalized golden ratio G(q0)")
    s.add_argument("q0", type=float)
    s.set_defaults(fn=_cmd_gr)

    s = sub.add_parser("kl", help="generalized Komornik-Loreti constant K(q0)")
    s.add_argument("q0", type=float)
    s.set_defaults(fn=_cmd_kl)

    s = sub.add_parser("mu", help="crossing base of g_u and g~_v")
    s.add_argument("--u", required=True, help="word PRE(PER)")
    s.add_argument("--v", required=True, help="word PRE(PER)")
    s.set_defaults(fn=_cmd_mu)

    s = sub.add_parser("classify-omega", help="cardinality of Omega_{a,b}")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.set_defaults(fn=_cmd_classify_omega)

    s = sub.add_parser("classify-sigma", help="cardinality of Sigma_{a,b}")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.set_defaults(fn=_cmd_classify_sigma)

    s = sub.add_parser("classify-u", help="cardinality of the univoque set U_{q0,q1}")
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.set_defaults(fn=_cmd_classify_u)

    s = sub.add_parser("expand", help="quasi-greedy / quasi-lazy digits")
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.add_argument("--mode", choices=["quasi-greedy", "quasi-lazy"], default="quasi-greedy")
    s.add_argument("--digits", type=int, default=32)
    s.add_argument("--x", type=str, default=None, help="point to expand (default: hole endpoint)")
    s.set_defaults(fn=_cmd_expand)

    s = sub.add_parser("smap", help="directive sequence of a word's partition cell")
    s.add_argument("--word", required=True)
    s.add_argument("--directive-depth", dest="directive_depth", type=int, default=48)
    s.set_defaults(fn=_cmd_smap)

    s = sub.add_parser("limit-word", help="limit word of a directive sequence")
    s.add_argument("--directive", required=True)
    s.add_argument("--seed", choices=["0", "1"], default="0")
    s.add_argument("--length", type=int, default=64)
    s.set_defaults(fn=_cmd_limit_word)

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
    s.add_argument("--directive-depth", dest="directive_depth", type=int, default=24)
    s.set_defaults(fn=_cmd_ks)

    s = sub.add_parser("verify", help="hole-avoidance check for a word's orbit")
    s.add_argument("--q0", type=float, required=True)
    s.add_argument("--q1", type=float, required=True)
    s.add_argument("--word", required=True)
    s.add_argument("--shifts", type=int, default=None)
    s.add_argument("--tol", type=float, default=0.0)
    s.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PRECONDITION if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (WordError, DirectiveError, PreconditionError, DegenerateSystemError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
