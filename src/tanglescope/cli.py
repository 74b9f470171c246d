"""Command-line interface: analyze, render, fixtures, resolution."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .canvas import DEFAULT_PIXEL_CAP, WeightedCanvas
from .duality import max_supported_resolution
from .fixtures import FIXTURE_NAMES, fixture
from .io import format_grid, load_picture
from .render import render_mask, render_svg
from .report import analyze, decode_report, encode_report
from .search import SearchDefect


def _add_picture_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="picture file (.pgm or grid text)")
    parser.add_argument("--N", type=int, default=None,
                        help="order-function offset (default: max edge weight)")
    parser.add_argument("--n", type=int, default=1,
                        help="bit depth for PGM quantization (default 1)")
    parser.add_argument("--pixel-cap", type=int, default=DEFAULT_PIXEL_CAP,
                        help="pixel limit")


def _load(args) -> WeightedCanvas:
    picture = load_picture(args.input, n=args.n, pixel_cap=args.pixel_cap)
    return WeightedCanvas.from_picture(picture, args.N)


def cmd_analyze(args) -> int:
    wc = _load(args)
    report, ok = analyze(wc, pixel_cap=args.pixel_cap)
    text = encode_report(report)
    sys.stdout.write(text)
    if args.json:
        Path(args.json).write_text(text)
    return 0 if ok else 2


def cmd_render(args) -> int:
    report = decode_report(Path(args.report).read_text())
    if args.style == "svg":
        Path(args.output).write_text(render_svg(report))
    else:
        Path(args.output).write_bytes(render_mask(report))
    return 0


def cmd_fixtures(args) -> int:
    picture = fixture(args.name)
    comment = None
    if args.name == "noisedisc4x4":
        comment = ("noise bits from lcg x -> (1103515245*x + 12345) mod 2^31, "
                   "seed 1, bit 16, row-major border scan")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.grid"
    path.write_text(format_grid(picture, comment=comment))
    print(path)
    return 0


def cmd_resolution(args) -> int:
    wc = _load(args)
    subset = int(args.subset, 16) if args.subset else None
    print(max_supported_resolution(wc, subset=subset,
                                   pixel_cap=args.pixel_cap))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for `main` to report, instead of printing the
    usage and exiting 2, the code of a failed verification."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tanglescope",
        description="Exact region and line-structure analysis of tiny pictures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis, JSON report on stdout")
    _add_picture_args(p)
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("render", help="draw the tree-set lines of a report")
    p.add_argument("report", help="report JSON file")
    p.add_argument("--style", choices=("svg", "mask"), required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fixtures", help="write a built-in picture")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("-o", "--output", default=".", help="output directory")
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("resolution", help="maximum supported resolution")
    _add_picture_args(p)
    p.add_argument("--subset", help="restrict to a pixel subset (hex bitmask)")
    p.set_defaults(func=cmd_resolution)

    return parser


def main(argv=None) -> int:
    """Run one command.  Exit code 1 is bad input (a malformed picture,
    argument or report, or an unreadable file); 2 is a failed
    verification, a failed verdict in a report or an internal check that
    raised `SearchDefect`.  An error is reported on one stderr line."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SearchDefect, ValueError, OSError) as exc:
        print(f"tanglescope: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SearchDefect) else 1


if __name__ == "__main__":
    sys.exit(main())
