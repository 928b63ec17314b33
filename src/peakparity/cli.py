"""Command-line interface.

Exit status 0 on success, 1 when an input fails validation or falls
outside a map's domain, or a verification run finds a failing check,
and 2 when the command line itself is malformed.  A rejected stdin
line is named by its number.  When the reader closes the output pipe
early (``peakparity enumerate ... | head``), the command stops quietly
with exit status 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Iterator

from .bijections import MapKind, apply_map
from .enumeration import PathClass, count_table, generate
from .paths import (
    DyckPath,
    MotzkinPath,
    PathStats,
    PeakParityError,
    classify,
    stats,
)
from .verify import format_report, run_verification

_FORMATS = ("plain", "tsv", "json-lines")


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _nonnegative(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakparity",
        description=(
            "Bijections between Dyck paths with parity-constrained peak heights "
            "and restricted Motzkin paths."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=_FORMATS, default="plain")

    def add_map(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--map",
            dest="map_kind",
            required=True,
            choices=[k.value for k in MapKind],
        )

    def add_path(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "path",
            metavar="PATH",
            help=(
                "path text over U, D, F; use - to read one path per line from "
                "stdin (empty line means the empty path) or @ for the empty path"
            ),
        )

    p = sub.add_parser("convert", help="apply one of the maps to a path")
    p.set_defaults(run=_cmd_convert)
    add_map(p)
    add_format(p)
    add_path(p)

    p = sub.add_parser("classify", help="report the peak-parity class of a Dyck path")
    p.set_defaults(run=_cmd_classify)
    add_format(p)
    add_path(p)

    p = sub.add_parser("enumerate", help="list every path of a class at one size")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument(
        "--class",
        dest="path_class",
        required=True,
        choices=[c.value for c in PathClass],
    )
    p.add_argument("--n", type=_nonnegative, required=True)
    add_format(p)

    p = sub.add_parser(
        "count", help="tabulate class sizes against their counting formulas"
    )
    p.set_defaults(run=_cmd_count)
    p.add_argument("--max-n", type=_positive, required=True)
    add_format(p)

    p = sub.add_parser(
        "stats", help="apply a map and report step statistics of input and output"
    )
    p.set_defaults(run=_cmd_stats)
    add_map(p)
    add_format(p)
    add_path(p)

    p = sub.add_parser(
        "verify", help="run every exhaustive cross-check up to a size bound"
    )
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--max-n", type=_nonnegative, required=True)
    add_format(p)

    return parser


def _input_texts(args: argparse.Namespace) -> Iterator[str]:
    """The path texts to process; in stdin mode, args.line follows the line read."""
    if args.path == "-":
        for number, line in enumerate(sys.stdin, 1):
            args.line = number
            yield line.rstrip("\r\n")
    elif args.path == "@":
        yield ""
    else:
        yield args.path


def _cmd_convert(args: argparse.Namespace) -> int:
    kind = MapKind(args.map_kind)
    parse = DyckPath if kind.takes_dyck else MotzkinPath
    if args.format == "tsv":
        print("input\toutput")
    for text in _input_texts(args):
        result = apply_map(kind, parse(text))
        if args.format == "plain":
            print(result.render())
        elif args.format == "tsv":
            print(f"{text}\t{result.render()}")
        else:
            print(
                json.dumps(
                    {"map": kind.value, "input": text, "output": result.render()}
                )
            )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.format == "tsv":
        print("input\tclass")
    for text in _input_texts(args):
        label = classify(DyckPath.from_text(text)).value
        if args.format == "plain":
            print(label)
        elif args.format == "tsv":
            print(f"{text}\t{label}")
        else:
            print(json.dumps({"input": text, "class": label}))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.format == "tsv":
        print("path")
    for path in generate(PathClass(args.path_class), args.n):
        if args.format == "json-lines":
            print(json.dumps({"path": path.render()}))
        else:
            print(path.render())
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    table = count_table(args.max_n)
    if args.format == "json-lines":
        for row in table.rows:
            print(json.dumps(asdict(row)))
    else:
        sys.stdout.write(table.to_tsv())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    kind = MapKind(args.map_kind)
    parse = DyckPath if kind.takes_dyck else MotzkinPath
    if args.format == "tsv":
        header = ["map", "input", "output"]
        header += [f"input_{k}" for k in PathStats.keys]
        header += [f"output_{k}" for k in PathStats.keys]
        print("\t".join(header))
    for text in _input_texts(args):
        path = parse(text)
        result = apply_map(kind, path)
        source = stats(path).as_dict()
        target = stats(result).as_dict()
        if args.format == "tsv":
            row = [kind.value, path.render(), result.render()]
            row += [str(source[k]) for k in PathStats.keys]
            row += [str(target[k]) for k in PathStats.keys]
            print("\t".join(row))
        else:
            print(
                json.dumps(
                    {
                        "map": kind.value,
                        "input": path.render(),
                        "output": result.render(),
                        "input_stats": source,
                        "output_stats": target,
                    }
                )
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(args.max_n)
    if args.format == "json-lines":
        for r in results:
            print(json.dumps(asdict(r)))
    else:
        print(format_report(results, args.max_n))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.line = None
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except PeakParityError as exc:
        where = "" if args.line is None else f"line {args.line}: "
        print(f"peakparity: error: {where}{exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # cannot fail again (the recipe of the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
