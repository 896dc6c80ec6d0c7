"""Command-line surface: CSV emitters and the verification suite.

Subcommands:
    sequence    emit the constructed sequence (index,i,j,value)
    complexity  exact complexities of sequence prefixes
    bounds      all six lower-bound formulas over a parameter grid
    figures     the two comparison presets (q=32, k=5 and k=20)
    verify      run the self-check suite; nonzero exit on any failure

Field elements appear in CSV as prime-field coefficient vectors joined by
':' with the low-degree coefficient first ("0:1" is z in GF(4)); the same
syntax is accepted for --a and --modulus.  Exit codes: 0 success, 1
verification failure, 2 usage error (bad arguments, a field larger than
field.MAX_FIELD_ORDER, or an --out path that cannot be written).  A grid
axis is one option with two names (--k/--k-range, --n/--n-range) and, like
every option, keeps its last value.  Missing or malformed options are
refused by argparse with its usage line; every other check prints
"error: ..." and runs before any output is written.  CSV cells are never
quoted, since none can hold a comma, a quote or a newline (see _write_csv).
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import nullcontext
from typing import Iterable, Optional

from .bounds import (BOUNDS, FIGURE_PRESETS, MAX_Q_BITS, bound, decimal_string,
                     figure_rows, floor_ratios)
from .complexity import PerVariable, TotalDegree, complexity_profiles
from .field import Element, FieldContext, _is_prime, element_from_str, element_names
from .sequence import build_sequence, full_length
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _int_list(text: str) -> tuple[int, ...]:
    """':'-joined integers, as for --modulus."""
    try:
        return tuple(int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}; expected ':'-joined integers") from None


def _int_range(text: str) -> range:
    """A grid axis (--k or --n): LO:HI[:STEP], inclusive, or one integer
    N as N:N, as a range, which is never listed."""
    parts = _int_list(text)
    if len(parts) == 1:
        parts *= 2
    if len(parts) > 3:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected LO:HI[:STEP]")
    lo, hi, step = (parts + (1,))[:3]
    if step < 1:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; step must be >= 1")
    values = range(lo, hi + 1, step)
    if not values:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty")
    return values


def _config(args: argparse.Namespace) -> argparse.Namespace:
    """The checks argparse cannot state: --p is prime and --e is >= 1."""
    if getattr(args, "p", None) is not None and not _is_prime(args.p):
        raise ValueError(f"--p must be prime, got {args.p}")
    if getattr(args, "e", None) is not None and args.e < 1:
        raise ValueError(f"extension degree must be >= 1, got {args.e}")
    return args


def _write_csv(path: Optional[str], header: list, lines: Iterable[str]) -> int:
    """Write the header, then lines (chunks of whole "\n"-ended rows), to
    path (stdout if None).  No cell needs quoting: each is an int, a decimal
    or Fraction string, a ':'-joined element or a fixed word."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as out:
        out.write(",".join(header) + "\n")
        out.writelines(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _field_and_sequence(args: argparse.Namespace, length: Optional[int] = None
                        ) -> tuple[FieldContext, tuple[Element, ...]]:
    """The field from --p/--e/--modulus and the sequence from --ell/--a; with
    length, only the rows of the sequence that its first length terms need."""
    ctx = FieldContext(args.p, args.e, args.modulus)
    a = element_from_str(args.a, ctx) if args.a is not None else None
    return ctx, build_sequence(ctx, args.ell, a, length)


def cmd_sequence(args: argparse.Namespace) -> int:
    ctx, terms = _field_and_sequence(args)
    steps, names = ctx.order - 2, element_names(ctx)
    js = [str(j) for j in range(1, steps + 1)]
    blocks = ((map(str, range(start + 1, start + steps + 1)), [str(i)] * steps, js,
               map(names.__getitem__, terms[start:start + steps]))
              for i, start in enumerate(range(0, len(terms), steps), start=1))
    return _write_csv(args.out, ["index", "i", "j", "value"],
                      ("\n".join(map(",".join, zip(*cols))) + "\n" for cols in blocks))


def cmd_complexity(args: argparse.Namespace) -> int:
    last = args.ns[-1]  # the n grid ascends
    ctx, terms = _field_and_sequence(args, last)
    top = full_length(ctx.q)
    for n in args.ns:  # stops at the first bad n, at most top + 1 steps
        if not 1 <= n <= top:
            raise ValueError(f"n must be in 1..{top}, got {n}")
    kind = PerVariable if args.mode == "per-variable" else TotalDegree
    # one walk covers every k and n, at about the cost of the largest k's
    # profile of the largest n
    profiles = complexity_profiles(ctx, terms[:last], kind, args.ks)
    return _write_csv(
        args.out, ["n", "k", "mode", "result_kind", "value_or_lo", "hi"],
        (f"{n},{k},{args.mode},exact,{profiles[k][n - 1]},{profiles[k][n - 1]}\n"
         for n in args.ns for k in args.ks))


def cmd_bounds(args: argparse.Namespace) -> int:
    # p >= 2^(bits(p) - 1) bounds q from below before q is computed
    if (args.e * (args.p.bit_length() - 1) >= MAX_Q_BITS
            or (args.p ** args.e).bit_length() > MAX_Q_BITS):
        raise ValueError(f"q = {args.p}^{args.e} is 2^{MAX_Q_BITS} or more, "
                         "too large to print its bounds")
    q = args.p ** args.e
    ell = args.ell if args.ell is not None else q

    def row(n: int, k: int) -> str:
        r1, r2 = floor_ratios(q, n)
        cells = ",".join([decimal_string(bound(name, q, k, ell, n)) for name in BOUNDS])
        return f"{n},{k},{ell},{r1},{r2},{cells}\n"

    # both grids ascend, every limit is on n, k or ell and every denominator
    # is positive, so the first and last rows check them all before --out opens
    row(args.ns[0], args.ks[0]), row(args.ns[-1], args.ks[-1])
    return _write_csv(args.out, ["n", "k", "ell", "r1", "r2", *BOUNDS],
                      (row(n, k) for n in args.ns for k in args.ks))


def cmd_figures(args: argparse.Namespace) -> int:
    preset, classes = figure_rows(args.preset)
    label = preset.family  # N for fig1, L for fig2
    # the four value cells are one tail per (r1, r2) class
    tails = ((ns, f"{decimal_string(own)},{decimal_string(rival)},{own!s},{rival!s}\n")
             for ns, own, rival in classes)
    return _write_csv(
        args.out,
        ["n", f"{label}1", f"{label}2", f"{label}1_exact", f"{label}2_exact"],
        ("".join([f"{n},{tail}" for n in ns]) for ns, tail in tails))


def cmd_verify(args: argparse.Namespace) -> int:
    specs = None
    if args.p is not None:
        specs = [(args.p, 1 if args.e is None else args.e)]
    elif args.e is not None:
        raise ValueError("--e needs --p")
    results = run_suite(field_specs=specs)
    width = max(len(r.name) for r in results) + 2
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}{status}  {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"RESULT: {passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermseq",
        allow_abbrev=False,  # no prefix matching, here or in any subcommand
        description="sequences from collinear Hermitian-curve places, their "
                    "recurrence complexity, and exact lower-bound sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_field_args(sp):
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--e", type=int, default=1,
                        help="extension degree, q = p^e (default 1)")

    def add_sequence_args(sp):
        add_field_args(sp)
        sp.add_argument("--modulus", type=_int_list,
                        help="':'-joined coefficients (low degree first) of a "
                             "degree-2e irreducible over F_p")
        sp.add_argument("--a", help="x-coordinate of the line (default: epsilon)")
        sp.add_argument("--ell", type=int, required=True,
                        help="number of marked places, 2..q")

    def add_grid_args(sp):
        # one option per axis, two names for it: args.ks and args.ns
        for name in ("k", "n"):
            sp.add_argument(f"--{name}", f"--{name}-range", dest=f"{name}s",
                            type=_int_range, required=True, metavar="LO:HI[:STEP]")

    sp = add_parser("sequence", help="emit the constructed sequence")
    add_sequence_args(sp)
    sp.add_argument("--out", help="output CSV path (default stdout)")
    sp.set_defaults(handler=cmd_sequence)

    sp = add_parser("complexity", help="complexities of sequence prefixes")
    add_sequence_args(sp)
    add_grid_args(sp)
    sp.add_argument("--mode", choices=["per-variable", "total-degree"],
                    default="per-variable")
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_complexity)

    sp = add_parser("bounds", help="all six bound formulas on a grid")
    add_field_args(sp)
    sp.add_argument("--ell", type=int, help="default: q")
    add_grid_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_bounds)

    sp = add_parser("figures", help="comparison presets fig1 / fig2")
    sp.add_argument("--preset", choices=sorted(FIGURE_PRESETS), required=True)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_figures)

    sp = add_parser("verify", help="run the self-check suite")
    sp.add_argument("--p", type=int,
                    help="restrict the per-field checks to this field")
    sp.add_argument("--e", type=int)
    sp.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
