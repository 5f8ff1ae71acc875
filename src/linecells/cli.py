"""Command line front end.

Exit codes: 0 success, 1 a requested property failed to hold (or a
generator failed its certification), 2 bad usage or unreadable input.

One table, `_COMMANDS`, holds every command's arguments as data. A
well-formed call is read from it directly (`_parse`) into the namespace
argparse would make; argparse is imported only for what that reader
hands on: help, usage errors, and the forms it does not take, such as
abbreviations or '--'. `_build_parser` feeds the same table to argparse,
adding the arguments of the named command only, so usage, help and
errors read as before. argparse's constructors and its first message
lookup, which imports `locale`, cost about 2 ms a call: reading the
table, `search --n 8` on F(4,3,4), which the cup+cap bound answers, takes
0.5 ms in place of 2.7, and `bounds` 0.1 in place of 2.2 (medians of
fresh processes, Python 3.11, shared 2-core host).
"""

from __future__ import annotations

import gc
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
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


_FAMILY = (("family",), dict(help="family file ('-' for stdin)"))
_OUTPUT = (("-o", "--output"), dict(help="output path (default stdout)"))
_INT = dict(type=int)

# name: (help, arguments, run), in the order the usage lists them. Each
# argument is (flags, add_argument keywords), its long flag last; an entry
# (None, arguments) is a group of which exactly one must be given.
_COMMANDS = {
    "generate": ("build a family and write it out", (
        (("--kind",), dict(required=True, choices=KINDS)),
        (("--p",), _INT),
        (("--q",), _INT),
        (("--l",), _INT),
        (("--k",), _INT),
        (("--n",), _INT),
        (("--epsilon-scale",), dict(default="1", help="rational slope spread knob")),
        _OUTPUT,
    ), _cmd_generate),
    "verify": ("check the defining properties of a family", (
        _FAMILY,
        (("--l", "--max-concurrency"), dict(dest="l", type=int, required=True)),
        (("--p",), dict(type=int, required=True, help="longest allowed cup")),
        (("--q",), dict(type=int, required=True, help="longest allowed cap")),
        (("--check-unbounded",), dict(
            action="append",
            choices=("left", "right"),
            help="also require no k-fold unbounded cell on this side (repeatable)",
        )),
        (("--k",), dict(type=int, default=4, help="unbounded cell size to exclude")),
        (("--no-convex",), dict(type=int, help="also require no N in convex position")),
    ), _cmd_verify),
    "search": ("look for subsets in convex position", (
        _FAMILY,
        (None, (
            (("--n",), dict(type=int, help="subset size to search for")),
            (("--largest",), dict(action="store_true", help="report the maximum size")),
        )),
    ), _cmd_search),
    "bounds": ("print threshold bounds", (
        (("--l",), dict(type=int, required=True)),
        (("--n",), dict(type=int, required=True)),
        (("--c",), dict(type=int, default=1, help="constant in the upper bounds")),
        (("--p",), _INT),
        (("--q",), _INT),
    ), _cmd_bounds),
    "render": ("draw a family as an SVG", (
        _FAMILY,
        _OUTPUT,
        (("--viewport",), dict(
            help="x0,y0,x1,y1 in family coordinates; write --viewport=-2,-2,2,3 "
            "when x0 is negative, since a value after a space that starts with "
            "'-' reads as an option",
        )),
        (("--highlight-cell",), dict(help="sign vector like '++-' to fill")),
        (("--highlight-lines",), dict(help="comma separated line indices to accent")),
        (("--width",), dict(type=int, default=640)),
    ), _cmd_render),
}


def _parse(argv):
    """The namespace argparse makes of a well-formed call, read from the
    same table, or None for argparse to read argv: help, a usage error, or
    a form this reader does not take (an abbreviation, '--', '-o=x', a
    repeated option, a value that is empty or '--' or, after a space,
    starts with '-'), which argparse reads as it always has."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments, run = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": run}
    options, positionals, required, one_of, seen = {}, [], set(), set(), set()
    for flags, keywords in arguments:
        group = not flags
        for flags, keywords in [(flags, keywords)] if flags else keywords:
            dest = keywords.get("dest") or flags[-1].lstrip("-").replace("-", "_")
            switch = keywords.get("action") == "store_true"
            values[dest] = keywords.get("default", False if switch else None)
            if flags[0][0] == "-":
                options.update(dict.fromkeys(flags, (dest, keywords)))
            else:
                positionals.append((dest, keywords))
            if keywords.get("required"):
                required.add(dest)
            if group:
                one_of.add(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            if not positionals:
                return None
            dest, keywords = positionals.pop(0)
            value = token
        else:
            flag, equals, value = token.partition("=") if token[:2] == "--" else (token, "", "")
            if flag not in options:
                return None
            dest, keywords = options[flag]
            if keywords.get("action") == "store_true":
                if equals:
                    return None
                value = True
            elif not equals:
                value = next(tokens, "")
                if value.startswith("-") and value != "-":
                    return None
        # argparse refuses a value '--' with its usage error (_build_parser)
        if value in ("", "--") or dest in seen and keywords.get("action") != "append":
            return None
        seen.add(dest)
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        if keywords.get("action") == "append":
            value = (values[dest] or []) + [value]
        values[dest] = value
    if positionals or not required <= seen or one_of and len(one_of & seen) != 1:
        return None
    return SimpleNamespace(**values)


def _build_parser(command: Optional[str] = None):
    """The argparse parser with every subcommand, and the arguments of
    `command` only, its -h included, or of all five when `command` is None."""
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def _get_values(self, action, arg_strings):
            # argparse drops a '--' from an option's values, so that
            # --output=-- or -o-- would read as [] and reach the command
            if action.option_strings and arg_strings == ["--"]:
                raise argparse.ArgumentError(action, "expected one argument")
            return super()._get_values(action, arg_strings)

    parser = ArgumentParser(
        prog="linecells",
        description="Build and check line families with bounded concurrency "
        "and no large subfamily in convex position.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, run) in _COMMANDS.items():
        wanted = command in (None, name)
        cmd = sub.add_parser(name, help=help_text, add_help=wanted)
        if wanted:
            for flags, keywords in arguments:
                container = cmd if flags else cmd.add_mutually_exclusive_group(required=True)
                for flags, keywords in [(flags, keywords)] if flags else keywords:
                    container.add_argument(*flags, **keywords)
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
    args = _parse(argv)
    if args is None:
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
