"""Command line front end.

Exit codes: 0 success, 1 a requested property failed to hold (or a
generator failed its certification), 2 bad usage or unreadable input.

A call adds only its own command's arguments, or every command's when the
first token names none (no arguments, `-h`, an unknown name). argparse
hands every token after the command name to that command's parser, so the
others' arguments cannot change what a call prints; all five subcommands
are still registered with their help, so usage, help and errors read as
before. Each process parses once, and the other commands' arguments took
about 0.5 of the 2.9 ms of `search --n 8` on F(4,3,4), which the cup+cap
bound answers (Python 3.11, shared 2-core host).
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .constructions import KINDS, ConstructionSpec
from .errors import ConstructionError, LinecellsError, ParameterRangeError, at_least
from .familyfile import parse_family, serialize_family
from .geometry import parse_rat
from .svg import RenderOptions, render_svg
from .verify import (
    exists_n_convex,
    f_L_bound,
    find_n_convex,
    format_report,
    known_exact,
    largest_convex_subset,
    lower_bound_value,
    upper_bound_value,
    verify_properties,
)


def _read_family(path: str):
    if path == "-":
        return parse_family(sys.stdin.read())
    return parse_family(Path(path).read_text())


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_generate(args) -> int:
    spec = ConstructionSpec(
        kind=args.kind, p=args.p, q=args.q, l=args.l, k=args.k, n=args.n,
        epsilon_scale=parse_rat(args.epsilon_scale),
    )
    _write_text(args.output, serialize_family(spec.build()))
    return 0


def _cmd_verify(args) -> int:
    family = _read_family(args.family)
    sides = tuple(args.check_unbounded) if args.check_unbounded else ("right",)
    report = verify_properties(
        family, l=args.l, p=args.p, q=args.q, check_unbounded=sides, k=args.k
    )
    # every check runs before anything prints, so a usage error prints none
    if args.no_convex is not None:
        ok = not exists_n_convex(family, args.no_convex)
        report = replace(
            report, checks=report.checks + ((f"no {args.no_convex} in convex position", ok),)
        )
    print(format_report(report))
    return 0 if report.passed else 1


def _cmd_search(args) -> int:
    family = _read_family(args.family)
    if args.largest:
        size, witness = largest_convex_subset(family)
        print(f"largest convex position subset: {size} lines {list(witness)}")
        return 0
    witness = find_n_convex(family, args.n)
    if witness is None:
        print(f"no {args.n} lines in convex position")
        return 0
    print(f"found {args.n} lines in convex position: {list(witness)}")
    return 1


def _cmd_bounds(args) -> int:
    # every option is checked whether or not a value reads it
    at_least("c", args.c, 1)
    if (args.p is None) != (args.q is None):
        missing = "q" if args.q is None else "p"
        raise ParameterRangeError(f"--{missing} is missing: --p and --q are read together")
    values = []
    exact = known_exact(args.l, args.n)
    if exact is not None:
        values.append(("exact", exact))
    if args.n >= 5:
        values.append(("lower", lower_bound_value(args.l, args.n)))
    if args.n >= 3:
        values.append(("upper", upper_bound_value(args.l, args.n, args.c)))
    if args.p is not None:
        values.append(("f_L upper", f_L_bound(args.l, args.p, args.q, args.c)))
    # every value is computed before anything prints, so a usage error prints none
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # n = 100000 prints 60,000 digits, past the limit
    try:
        print("\n".join(f"{name}: {value}" for name, value in values))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _parse_viewport(text: str):
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"viewport needs 4 comma separated values: {text!r}")
    return tuple(parse_rat(piece) for piece in parts)


def _parse_signs(text: str):
    signs = []
    for ch in text:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise ValueError(f"cell spec must use only '+' and '-': {text!r}")
    return tuple(signs)


def _parse_indices(text: str):
    return tuple(int(piece) for piece in text.split(",") if piece.strip())


def _cmd_render(args) -> int:
    family = _read_family(args.family)
    options = RenderOptions(
        viewport=_parse_viewport(args.viewport) if args.viewport else None,
        highlight=_parse_signs(args.highlight_cell) if args.highlight_cell else None,
        highlight_lines=_parse_indices(args.highlight_lines)
        if args.highlight_lines
        else None,
        width=args.width,
    )
    _write_text(args.output, render_svg(family, options))
    return 0


def _generate_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--p", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--l", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--epsilon-scale", default="1", help="rational slope spread knob")
    gen.add_argument("-o", "--output", help="output path (default stdout)")


def _verify_arguments(ver: argparse.ArgumentParser) -> None:
    ver.add_argument("family", help="family file ('-' for stdin)")
    ver.add_argument("--l", "--max-concurrency", dest="l", type=int, required=True)
    ver.add_argument("--p", type=int, required=True, help="longest allowed cup")
    ver.add_argument("--q", type=int, required=True, help="longest allowed cap")
    ver.add_argument(
        "--check-unbounded",
        action="append",
        choices=("left", "right"),
        help="also require no k-fold unbounded cell on this side (repeatable)",
    )
    ver.add_argument("--k", type=int, default=4, help="unbounded cell size to exclude")
    ver.add_argument("--no-convex", type=int, help="also require no N in convex position")


def _search_arguments(sea: argparse.ArgumentParser) -> None:
    sea.add_argument("family", help="family file ('-' for stdin)")
    group = sea.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="subset size to search for")
    group.add_argument("--largest", action="store_true", help="report the maximum size")


def _bounds_arguments(bnd: argparse.ArgumentParser) -> None:
    bnd.add_argument("--l", type=int, required=True)
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--c", type=int, default=1, help="constant in the upper bounds")
    bnd.add_argument("--p", type=int)
    bnd.add_argument("--q", type=int)


def _render_arguments(ren: argparse.ArgumentParser) -> None:
    ren.add_argument("family", help="family file ('-' for stdin)")
    ren.add_argument("-o", "--output", help="output path (default stdout)")
    ren.add_argument(
        "--viewport",
        help="x0,y0,x1,y1 in family coordinates; write --viewport=-2,-2,2,3 "
        "when x0 is negative, since a value after a space that starts with "
        "'-' reads as an option",
    )
    ren.add_argument("--highlight-cell", help="sign vector like '++-' to fill")
    ren.add_argument("--highlight-lines", help="comma separated line indices to accent")
    ren.add_argument("--width", type=int, default=640)


# name: (help, arguments, run), in the order the usage lists them
_COMMANDS = {
    "generate": ("build a family and write it out", _generate_arguments, _cmd_generate),
    "verify": ("check the defining properties of a family", _verify_arguments, _cmd_verify),
    "search": ("look for subsets in convex position", _search_arguments, _cmd_search),
    "bounds": ("print threshold bounds", _bounds_arguments, _cmd_bounds),
    "render": ("draw a family as an SVG", _render_arguments, _cmd_render),
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, and the arguments of `command`
    only, its -h included, or of all five when `command` is None."""
    parser = argparse.ArgumentParser(
        prog="linecells",
        description="Build and check line families with bounded concurrency "
        "and no large subfamily in convex position.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, run) in _COMMANDS.items():
        wanted = command in (None, name)
        cmd = sub.add_parser(name, help=help_text, add_help=wanted)
        if wanted:
            arguments(cmd)
            cmd.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    if not gc.get_freeze_count():
        # The interpreter's and the imported modules' objects live as long
        # as the process. Frozen (gc.freeze), they leave the collector's
        # generations, so a collection that a command sets off does not
        # traverse those thousands of objects again. Once per process: a
        # caller that runs main many times, such as the test suite, finds
        # its heap frozen after the first call.
        gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LinecellsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
