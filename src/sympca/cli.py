"""Command-line front end.

Subcommands:
  aggregate    classic CSV -> interval CSV, grouping by a concept column
  pca          interval CSV -> JSON result plus scores/correlations CSVs
  plot-circle  interval CSV -> correlation-circle SVG
  plot-plane   interval CSV -> principal-plane SVG
  bench        time the two eigenproblem routes on synthetic tables

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
An unexpected exception also exits 3, reported as "internal error". Errors
print a one-line diagnostic, never a stack trace.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .bench import benchmark_paths
from .errors import DataError, NumericError
from .intervals import IntervalMatrix
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
    ClassicTable,
    aggregate_classic,
    parse_classic_csv,
    parse_interval_csv,
    write_interval_csv,
)

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    method: str = "auto"
    q: int | None = None
    axes: tuple[int, int] = (1, 2)
    clamp: bool = True
    exclude_cols: tuple[str, ...] = ()
    by: str | None = None
    bench_m: int = 200
    bench_n: int = 10
    bench_trials: int = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's default 2
        raise _UsageError(message)


def _parse_axes(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("axes must look like 1,2")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("axes must be integers") from None


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
        p.add_argument("--q", type=int, default=None,
                       help="number of components (default: all positive)")

    def add_exclude(p: _Parser) -> None:
        p.add_argument(
            "--exclude-cols", action="append", default=[], metavar="COLS",
            help="comma-separated columns to drop before analysis (repeatable)",
        )

    p = sub.add_parser("aggregate", help="classic CSV -> interval CSV by concept")
    add_io(p, "output interval CSV path")
    p.add_argument("--by", required=True, help="concept column to group by")
    add_exclude(p)

    p = sub.add_parser("pca", help="interval CSV -> JSON + CSV results")
    add_io(p, "output JSON path (scores/correlations CSVs written alongside)")
    add_method(p)
    p.add_argument(
        "--clamp", action=argparse.BooleanOptionalAction, default=True,
        help="clamp reported correlations to [-1, 1] (default: on)",
    )
    add_exclude(p)

    for name, help_text in (
        ("plot-circle", "interval CSV -> correlation circle SVG"),
        ("plot-plane", "interval CSV -> principal plane SVG"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_io(p, "output SVG path")
        add_method(p)
        p.add_argument("--axes", type=_parse_axes, default=(1, 2),
                       help="pair of 1-based component indices (default 1,2)")
        add_exclude(p)

    p = sub.add_parser("bench", help="time the zzt vs ztz paths")
    p.add_argument("--m", type=int, required=True, help="number of objects")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--trials", type=int, default=5, help="timing trials (default 5)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    excludes: list[str] = []
    for chunk in getattr(args, "exclude_cols", []) or []:
        excludes.extend(c.strip() for c in chunk.split(",") if c.strip())
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        method=getattr(args, "method", "auto"),
        q=getattr(args, "q", None),
        axes=getattr(args, "axes", (1, 2)),
        clamp=getattr(args, "clamp", True),
        exclude_cols=tuple(excludes),
        by=getattr(args, "by", None),
        bench_m=getattr(args, "m", 200),
        bench_n=getattr(args, "n", 10),
        bench_trials=getattr(args, "trials", 5),
    )


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_interval_table(config: RunConfig) -> IntervalMatrix:
    table = parse_interval_csv(_read_text(config.input_path))
    if config.exclude_cols:
        table = table.without_columns(config.exclude_cols)
    return table


def _run_pca(table: IntervalMatrix, config: RunConfig) -> PcaResult:
    runner = {"auto": pca_auto, "zzt": pca_zzt, "ztz": pca_ztz}[config.method]
    return runner(table, config.q)


def _cmd_aggregate(config: RunConfig) -> None:
    table = parse_classic_csv(_read_text(config.input_path), concept=config.by)
    if config.exclude_cols:
        drop = set(config.exclude_cols)
        keep = [j for j, c in enumerate(table.cols) if c not in drop]
        table = ClassicTable(
            table.rows,
            tuple(table.cols[j] for j in keep),
            table.values[:, keep],
            concept=table.concept,
            concept_labels=table.concept_labels,
        )
    result = aggregate_classic(table, config.by)
    Path(config.output_path).write_text(write_interval_csv(result), encoding="utf-8")


def _cmd_pca(config: RunConfig) -> None:
    table = _load_interval_table(config)
    result = _run_pca(table, config)
    out = Path(config.output_path)
    out.write_text(result_to_json(result, clamp=config.clamp) + "\n", encoding="utf-8")
    base = out.with_suffix("") if out.suffix else out
    correlations = (
        clamp_correlations(result.correlations) if config.clamp
        else result.correlations
    )
    base.with_name(base.name + ".scores.csv").write_text(
        write_interval_csv(result.scores), encoding="utf-8"
    )
    base.with_name(base.name + ".correlations.csv").write_text(
        write_interval_csv(correlations), encoding="utf-8"
    )


def _cmd_plot(config: RunConfig) -> None:
    table = _load_interval_table(config)
    result = _run_pca(table, config)
    spec = PlotSpec(axis_x=config.axes[0], axis_y=config.axes[1])
    if config.command == "plot-circle":
        svg = render_circle(clamp_correlations(result.correlations), spec)
    else:
        svg = render_plane(result.scores, spec)
    Path(config.output_path).write_text(svg, encoding="utf-8")


def _cmd_bench(config: RunConfig) -> None:
    report = benchmark_paths(config.bench_m, config.bench_n, config.bench_trials)
    print(f"bench m={report.m} n={report.n} trials={report.trials}")
    print(f"{'path':<6} {'median_s':>12}")
    print(f"{'zzt':<6} {report.median_zzt:>12.6f}")
    print(f"{'ztz':<6} {report.median_ztz:>12.6f}")
    faster = "ztz" if report.median_ztz <= report.median_zzt else "zzt"
    print(f"faster: {faster}  auto selects: {report.auto_method}")


def run(config: RunConfig) -> int:
    """Execute one command, mapping failures to documented exit codes."""
    handlers = {
        "aggregate": _cmd_aggregate,
        "pca": _cmd_pca,
        "plot-circle": _cmd_plot,
        "plot-plane": _cmd_plot,
        "bench": _cmd_bench,
    }
    handler = handlers.get(config.command)
    if handler is None:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        handler(config)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # contract: one-line diagnostic, never a trace
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(_config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
