"""Command-line front end.

Subcommands:
  aggregate    classic CSV -> interval CSV, grouping by a concept column
  pca          interval CSV -> JSON result plus scores/correlations CSVs
  plot-circle  interval CSV -> correlation-circle SVG
  plot-plane   interval CSV -> principal-plane SVG
  bench        time the two eigenproblem routes on synthetic tables

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Running out of memory exits 2, reported as "out of memory". An unexpected
exception exits 3, reported as "internal error". Errors print a one-line
diagnostic, never a stack trace.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import benchmark_paths
from .errors import DataError, NumericError
from .pca import (
    PcaResult,
    clamp_correlations,
    pca_auto,
    pca_zzt,
    pca_ztz,
    result_to_json,
)
from .render import PlotSpec, render_circle, render_plane
from .tableio import (
    aggregate_classic,
    parse_classic_csv,
    parse_interval_csv,
    write_interval_csv,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's default 2
        raise _UsageError(message)


def _parse_axes(text: str) -> PlotSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("axes must look like 1,2")
    try:
        return PlotSpec(axis_x=int(parts[0]), axis_y=int(parts[1]))
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError("axes must be integers") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _column_names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


# newline="" on both sides: the parser sees the file's exact text (a CR in a
# quoted label survives), and every output is written with LF.
def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def _write(path: Path | str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _run_pca(args: argparse.Namespace) -> PcaResult:
    table = parse_interval_csv(_read(args.input))
    if args.exclude_cols:
        table = table.without_columns(args.exclude_cols)
    # Looked up per call, so the route functions can be patched in tests.
    route = {"auto": pca_auto, "zzt": pca_zzt, "ztz": pca_ztz}[args.method]
    return route(table, args.q)


def _cmd_aggregate(args: argparse.Namespace) -> None:
    table = parse_classic_csv(_read(args.input), concept=args.by, exclude=args.exclude_cols)
    _write(args.output, write_interval_csv(aggregate_classic(table, args.by)))


def _cmd_pca(args: argparse.Namespace) -> None:
    result = _run_pca(args)
    if args.clamp:
        result = replace(result, correlations=clamp_correlations(result.correlations))
    out = Path(args.output)
    _write(out, result_to_json(result, clamp=False) + "\n")
    base = out.with_suffix("") if out.suffix else out
    _write(base.with_name(base.name + ".scores.csv"), write_interval_csv(result.scores))
    _write(base.with_name(base.name + ".correlations.csv"),
           write_interval_csv(result.correlations))


def _cmd_plot(args: argparse.Namespace) -> None:
    result = _run_pca(args)
    if args.command == "plot-circle":
        svg = render_circle(clamp_correlations(result.correlations), args.axes)
    else:
        svg = render_plane(result.scores, args.axes)
    _write(args.output, svg)


def _cmd_bench(args: argparse.Namespace) -> None:
    try:
        report = benchmark_paths(args.m, args.n, args.trials)
    except DataError:
        raise
    except ValueError as exc:  # the sizes or trial count, not the data
        raise _UsageError(str(exc)) from None
    print(f"bench m={report.m} n={report.n} trials={report.trials}")
    print(f"{'path':<6} {'median_s':>12}")
    print(f"{'zzt':<6} {report.median_zzt:>12.6f}")
    print(f"{'ztz':<6} {report.median_ztz:>12.6f}")
    faster = "ztz" if report.median_ztz <= report.median_zzt else "zzt"
    print(f"faster: {faster}  auto selects: {report.auto_method}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sympca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: _Parser, output_help: str) -> None:
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--output", required=True, help=output_help)

    def add_method(p: _Parser) -> None:
        p.add_argument(
            "--method", choices=("auto", "zzt", "ztz"), default="auto",
            help="eigenproblem route (default: auto picks the smaller matrix)",
        )
        p.add_argument("--q", type=_positive_int, default=None,
                       help="number of components (default: all positive)")

    def add_exclude(p: _Parser) -> None:
        p.add_argument(
            "--exclude-cols", type=_column_names, action="extend", default=[],
            metavar="COLS",
            help="comma-separated columns to drop before analysis (repeatable)",
        )

    p = sub.add_parser("aggregate", help="classic CSV -> interval CSV by concept")
    add_io(p, "output interval CSV path")
    p.add_argument("--by", required=True, help="concept column to group by")
    add_exclude(p)
    p.set_defaults(handler=_cmd_aggregate)

    p = sub.add_parser("pca", help="interval CSV -> JSON + CSV results")
    add_io(p, "output JSON path (scores/correlations CSVs written alongside)")
    add_method(p)
    p.add_argument(
        "--clamp", action=argparse.BooleanOptionalAction, default=True,
        help="clamp reported correlations to [-1, 1] (default: on)",
    )
    add_exclude(p)
    p.set_defaults(handler=_cmd_pca)

    for name, help_text in (
        ("plot-circle", "interval CSV -> correlation circle SVG"),
        ("plot-plane", "interval CSV -> principal plane SVG"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_io(p, "output SVG path")
        add_method(p)
        p.add_argument("--axes", type=_parse_axes, default=PlotSpec(),
                       help="pair of 1-based component indices (default 1,2)")
        add_exclude(p)
        p.set_defaults(handler=_cmd_plot)

    p = sub.add_parser("bench", help="time the zzt vs ztz paths")
    p.add_argument("--m", type=int, required=True, help="number of objects")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--trials", type=int, default=5, help="timing trials (default 5)")
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, mapping failures to documented exit codes."""
    try:
        args = _build_parser().parse_args(argv)
        args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # the table is too large, as for the Gram limit
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # contract: one-line diagnostic, never a trace
        detail = str(exc) or type(exc).__name__
        print(f"error: internal error: {detail}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
