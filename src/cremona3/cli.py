"""Command-line front end.

Exit codes: 0 success, 1 identity-verification failure, 2 parse error,
3 domain error (kernel/centralizer/character violations and friends).
All output goes through the deterministic formatter, so identical
invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import re
import sys

from .autgroup import PolyMap, commutes, parse_poly_map, parse_word
from .centralizer import decompose
from .derivation import (
    Derivation,
    KERNEL_VARIABLE_NAMES,
    kernel_coordinates,
    nagata_derivation,
)
from .errors import DomainError, ParseError
from .exactpoly import _check_dimension
from .grammar import (
    _check_printable_power,
    _parse_rational_token,
    format_map,
    format_polynomial,
    format_rational,
    parse_map,
    parse_polynomial,
)
from .nagata import TorusElement, character_lambda


def _cmd_parse(args) -> int:
    value = parse_polynomial(args.expression, args.dim)
    print(format_polynomial(value))
    return 0


def _cmd_compose(args) -> int:
    f = parse_poly_map(args.first)
    g = parse_poly_map(args.second)
    print(format_map(f.compose(g).components))
    return 0


def _cmd_invert(args) -> int:
    if args.dim > 0:  # a --dim past the limit is refused before the file is opened
        _check_dimension(args.dim)
    with open(args.word, encoding="utf-8", errors="surrogateescape") as handle:
        word = parse_word(handle.read(), args.dim)
    print(format_map(word.inverse().evaluate().components))
    return 0


def _cmd_exp(args) -> int:
    if args.derivation is not None:
        base = Derivation(parse_map(args.derivation))
    else:
        base = nagata_derivation()
    q = parse_polynomial(args.q, base.dimension)
    # A q outside the kernel exits 3 at once: qD is then not locally nilpotent
    # (the proof is in exp_kernel's docstring), so its series could not end.
    print(format_map(base.exp_kernel(q)))
    return 0


def _cmd_commutes(args) -> int:
    f = parse_poly_map(args.first)
    g = parse_poly_map(args.second)
    print("true" if commutes(f, g) else "false")
    return 0


def _cmd_kernel_coords(args) -> int:
    value = kernel_coordinates(parse_polynomial(args.expression, 3))
    print(format_polynomial(value, KERNEL_VARIABLE_NAMES))
    return 0


def _cmd_decompose(args) -> int:
    triple = decompose(PolyMap(parse_map(args.map, 3)))
    print(f"alpha = {format_rational(triple.alpha)}")
    print(f"w = {format_polynomial(triple.w)}")
    print(f"q = {format_polynomial(triple.q, KERNEL_VARIABLE_NAMES)}")
    return 0


def _cmd_character(args) -> int:
    t = TorusElement(_parse_rational_token(args.beta), _parse_rational_token(args.gamma))
    if args.k >= 0:  # a negative index keeps the error character_lambda gives it
        _check_printable_power(t.beta * t.gamma, 2 * args.k + 1)
    print(format_rational(character_lambda(args.k, t)))
    return 0


def _cmd_verify_paper(args) -> int:
    from .verify import QUICK, run_suite

    results = run_suite(seed=args.seed, profile=QUICK)
    for result in results:
        if result.passed:
            print(f"PASS {result.name}")
        else:
            print(f"FAIL {result.name}: {result.detail}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cremona3",
        description="Exact computations with polynomial automorphisms of affine 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its canonical form")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("expression")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("compose", help="compose two maps, right one applied first")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("invert", help="invert a generator word and print the resulting map")
    p.add_argument("--word", required=True, help="file with one generator per line")
    p.add_argument("--dim", type=int, default=3)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("exp", help="exponential of q times the shear derivation")
    p.add_argument("--q", required=True)
    p.add_argument(
        "--derivation",
        default=None,
        help='override the derivation, e.g. "(y, z, 0)"',
    )
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("commutes", help="do two maps commute?")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_commutes)

    p = sub.add_parser("kernel-coords", help="rewrite a kernel element in coordinates Z, P")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_kernel_coords)

    p = sub.add_parser("decompose", help="split a commuting map into (alpha, w, q)")
    p.add_argument("map")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("character", help="the torus character (beta*gamma)^(2k+1)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("verify-paper", help="run the full identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_paper)

    # A value that starts with one "-", as "-x" or "-1/2", is a value, not an option:
    # argparse's own rule (a private attribute, pinned by a test) takes only numbers so.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile("-(?!-)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
