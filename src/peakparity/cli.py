"""Command-line interface.

Each command builds its output as a lazy stream of records (dicts) and
prints it through one writer, ``_write``, as json-lines, as tsv under a
header of named columns, or in the command's plain form.

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
from dataclasses import asdict, fields
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .bijections import MapKind, apply_map
from .enumeration import CountRow, PathClass, count_table, generate
from .paths import (
    DyckPath,
    MotzkinPath,
    Path,
    PathStats,
    PeakParityError,
    classify,
    stats,
)
from .verify import run_verification

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


def _write(
    fmt: str, records: Iterable[dict], columns: Sequence[str] = (), plain=None
) -> None:
    """Print records as json-lines, as tsv under a header of the columns, or
    plain: the lines plain(records) makes, or else the last column of each."""
    if fmt == "json-lines":
        lines = map(json.dumps, records)
    elif fmt == "tsv":
        print("\t".join(columns))
        lines = ("\t".join(str(r[c]) for c in columns) for r in records)
    else:
        lines = plain(records) if plain else map(itemgetter(columns[-1]), records)
    for line in lines:
        print(line)


def _images(args: argparse.Namespace) -> Iterator[tuple[Path, Path]]:
    """Each input path with its image under the map args.map_kind names."""
    kind = MapKind(args.map_kind)
    parse = DyckPath if kind.takes_dyck else MotzkinPath
    for text in _input_texts(args):
        path = parse(text)
        yield path, apply_map(kind, path)


def _cmd_convert(args: argparse.Namespace) -> int:
    records = (
        {"map": args.map_kind, "input": path.render(), "output": image.render()}
        for path, image in _images(args)
    )
    _write(args.format, records, ("input", "output"))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    records = (
        {"input": text, "class": classify(DyckPath.from_text(text)).value}
        for text in _input_texts(args)
    )
    _write(args.format, records, ("input", "class"))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    paths = generate(PathClass(args.path_class), args.n)
    records = ({"path": path.render()} for path in paths)
    _write(args.format, records, ("path",))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    rows = map(asdict, count_table(args.max_n))
    fmt = "tsv" if args.format == "plain" else args.format
    _write(fmt, rows, [f.name for f in fields(CountRow)])
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    sides = ("input", "output")
    columns = ["map", *sides] + [f"{s}_{k}" for s in sides for k in PathStats.keys]

    def records() -> Iterator[dict]:
        for path, image in _images(args):
            record = dict(map=args.map_kind, input=path.render(), output=image.render())
            for side, p in zip(sides, (path, image)):
                values = stats(p).as_dict()
                if args.format == "tsv":
                    record.update((f"{side}_{k}", v) for k, v in values.items())
                else:
                    record[f"{side}_stats"] = values
            yield record

    fmt = "json-lines" if args.format == "plain" else args.format
    _write(fmt, records(), columns)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(args.max_n)
    failed = sum(not r.passed for r in results)
    total = len(results)

    def report(records: Iterable[dict]) -> Iterator[str]:
        for r in records:
            line = f"{r['name']} ({r['cases']} cases)"
            yield f"PASS {line}" if r["passed"] else f"FAIL {line}: {r['detail']}"
        if failed:
            yield f"verify: {failed} of {total} checks FAILED for n = 0..{args.max_n}"
        else:
            yield f"verify: {total}/{total} checks passed for n = 0..{args.max_n}"

    fmt = "plain" if args.format == "tsv" else args.format
    _write(fmt, map(asdict, results), plain=report)
    return 1 if failed else 0


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
