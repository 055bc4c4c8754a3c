"""The benchmark's workloads: seeded inputs, one op each, a traced replay of
the op through public sympca calls, and the checks of every op's output.

Inputs come from this file's own numpy code. Midpoints get a geometrically
decaying spectrum (singular values from 10 down to 1) so that no two
eigenvalues are close: at a near-tie the eigenvectors are not unique, and
the comparison with the reference would test the tie, not the program.

An op's output is compared with the reference in ``oracle`` until one op
passes; from then on an output whose bytes equal the verified output passes
at once, and any other output is compared with the reference again. The
comparison runs in a process of its own (``verifier.py``), so that the
reference's memory is not counted as the program's.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
import sympca
import sympca.cli
from oracle import Checker, Reference
from tracing import Tracer

VERIFIER = Path(__file__).resolve().parent / "verifier.py"

OILS_ROWS = ("Linseed", "Perilla", "Cotton", "Sesame", "Camellia", "Olive", "Beef", "Hog")
OILS_COLS = ("GRA", "FRE", "IOD", "SAP")
OILS_LO = np.array([
    [0.93, -27, 170, 118], [0.93, -5, 192, 188], [0.916, -6, 99, 189],
    [0.92, -6, 104, 187], [0.916, -25, 80, 189], [0.914, 0, 79, 187],
    [0.86, 30, 40, 190], [0.858, 22, 53, 190],
], dtype=float)
OILS_HI = np.array([
    [0.935, -18, 204, 196], [0.937, -4, 208, 197], [0.918, -1, 113, 198],
    [0.926, -4, 116, 193], [0.917, -15, 82, 193], [0.919, 6, 90, 196],
    [0.87, 38, 48, 199], [0.864, 32, 77, 202],
], dtype=float)

# Both routes, and both sides of the 64/65 eigensolver switch.
GRID_SHAPES = (
    (30, 12), (12, 30), (48, 48), (64, 64), (65, 65), (200, 10),
    (10, 200), (500, 40), (40, 500), (2000, 20), (20, 2000),
)


def structured_bounds(rng: np.random.Generator, m: int, n: int):
    """Seeded m x n interval bounds with well-separated midpoint eigenvalues."""
    r = min(m - 1, n)
    left = rng.standard_normal((m, r))
    left -= left.mean(axis=0)
    left, _ = np.linalg.qr(left)
    right, _ = np.linalg.qr(rng.standard_normal((n, r)))
    core = (left * np.geomspace(10.0, 1.0, r)) @ right.T
    scale = rng.uniform(0.5, 20.0, n)
    mid = rng.uniform(-50.0, 50.0, n) + core * (scale / core.std(axis=0))
    half = rng.uniform(0.02, 0.3, (m, n)) * scale
    return mid - half, mid + half


def labels(prefix: str, count: int) -> tuple[str, ...]:
    width = len(str(count))
    return tuple(f"{prefix}{i + 1:0{width}d}" for i in range(count))


def interval_csv_text(rows, cols, lo: np.ndarray, hi: np.ndarray) -> str:
    lines = ["," + ",".join(cols)]
    for label, a, b in zip(rows, lo.tolist(), hi.tolist()):
        lines.append(label + "," + ",".join(f'"[{x!r},{y!r}]"' for x, y in zip(a, b)))
    return "\n".join(lines) + "\n"


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def component_labels(q: int) -> list[str]:
    return [f"PC{k + 1}" for k in range(q)]


def replay_pca(tracer: Tracer, x: sympca.IntervalMatrix) -> None:
    """pca_auto's steps through public calls, one span each.

    The transport is the single matrix expression Z^T V / sqrt(lambda)
    (or Z U / sqrt(lambda) on the other route).
    """
    m, n = x.shape
    with tracer.span("pca.replay"):
        with tracer.span("pca.standardize"):
            bundle = sympca.standardize(x)
        z = bundle.z
        wide = m <= n
        with tracer.span("linalg.gram", gram_flops=m * n * min(m, n)):
            gram = z @ z.T if wide else z.T @ z
        with tracer.span("linalg.eigen", dim=gram.shape[0]):
            eig = sympca.eigen_sym(gram)
        q = eig.positive_count
        lam = eig.values[:q]
        with tracer.span("linalg.transport"):
            if wide:
                v = eig.vectors[:, :q]
                u = z.T @ v / np.sqrt(lam)
            else:
                u = eig.vectors[:, :q]
                v = z @ u / np.sqrt(lam)
        pcs = component_labels(q)
        root_m = math.sqrt(m)
        low, high = bundle.bounds.low, bundle.bounds.high
        with tracer.span("intervals.project", project_flops=8 * m * n * q):
            scores = sympca.interval_project(
                sympca.BoundsPair(low * root_m, high * root_m), u, rows=x.rows, cols=pcs
            )
        with tracer.span("intervals.project", project_flops=8 * m * n * q):
            correlations = sympca.interval_project(
                sympca.BoundsPair(low.T, high.T), v, rows=x.cols, cols=pcs
            )
    with tracer.span("intervals.construct"):
        for table in (scores, correlations):
            sympca.IntervalMatrix(table.rows, table.cols, table.lo, table.hi)


class Workload:
    """One op, run untraced (``op``) or as a traced replay (``traced_op``)."""

    name = ""
    cells = 0  # input cells one op processes
    # How an op's time follows the host's speed, relative to the kernel of
    # ``hostspeed``. Fits of log op time on log kernel time gave 0.93 per op
    # and 1.0 per run for batch-grid: its tables are small, and it is
    # interpreter-bound like the kernel.
    host_sensitivity = 1.0

    def __init__(self) -> None:
        self._verified: str | None = None

    def prepare(self) -> None:
        """Remove the previous op's outputs, so a failed op cannot pass on them."""

    def op(self):
        raise NotImplementedError

    def traced_op(self, tracer: Tracer):
        """Returns (output, tables given to pca_auto) for the pca replay."""
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def verify(self, output) -> list[str]:
        raise NotImplementedError

    def corrupt(self, output) -> None:
        """Damage one result on purpose (used by the oracle self-test)."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        key = self.digest(output)
        if key == self._verified:
            return []
        done = subprocess.run(
            [sys.executable, str(VERIFIER)], input=pickle.dumps((self, output)),
            capture_output=True, timeout=170,
        )
        if done.returncode != 0:
            return [f"{self.name}: verifier exited {done.returncode}: "
                    f"{done.stderr.decode(errors='replace')[-2000:]}"]
        problems = pickle.loads(done.stdout)
        if not problems and self._verified is None:
            self._verified = key
        return problems


class _CliWorkload(Workload):
    outputs: tuple[Path, ...] = ()
    # Fits gave 0.67-0.88 per op (four of 13-28 ops each) and about 0.8 per
    # run: these ops parse 17-20 MB inputs into hundreds of MB of objects,
    # and memory slows less than the CPU core when the host is busy.
    host_sensitivity = 0.8

    def prepare(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def digest(self, output) -> str:
        return digest(repr(output).encode(), *(p.read_bytes() for p in self.outputs))


class CliPcaTall(_CliWorkload):
    """``sympca pca`` on a tall bracket-cell CSV: JSON plus the two CSVs."""

    name = "cli-pca-tall"

    def __init__(self, seed: int, workdir: Path, m: int = 20000, n: int = 20) -> None:
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        self.rows, self.cols = labels("o", m), labels("X", n)
        self.lo, self.hi = structured_bounds(rng, m, n)
        self.cells = m * n
        workdir.mkdir(parents=True, exist_ok=True)
        self.input = workdir / "table.csv"
        self.input.write_text(interval_csv_text(self.rows, self.cols, self.lo, self.hi), encoding="utf-8")
        self.json = workdir / "result.json"
        self.scores_csv = workdir / "result.scores.csv"
        self.corr_csv = workdir / "result.correlations.csv"
        self.outputs = (self.json, self.scores_csv, self.corr_csv)

    def op(self):
        return sympca.cli.main(["pca", "--input", str(self.input), "--output", str(self.json)])

    def traced_op(self, tracer: Tracer):
        """The ``pca`` command's steps (clamped correlations, as by default)."""
        with tracer.span("cli.command"):
            text = self.input.read_text(encoding="utf-8")
            with tracer.span("tableio.parse_interval", bytes_read=self.input.stat().st_size):
                table = sympca.parse_interval_csv(text)
            with tracer.span("pca.auto"):
                result = sympca.pca_auto(table)
            with tracer.span("pca.to_json") as span:
                text = sympca.result_to_json(result, clamp=True)
            span["json_bytes"] = len(text.encode())
            self.json.write_text(text + "\n", encoding="utf-8")
            correlations = sympca.clamp_correlations(result.correlations)
            for path, part in ((self.scores_csv, result.scores), (self.corr_csv, correlations)):
                with tracer.span("tableio.write_interval") as span:
                    text = sympca.write_interval_csv(part)
                span["bytes_written"] = len(text.encode())
                path.write_text(text, encoding="utf-8")
        return 0, [table]

    def verify(self, output) -> list[str]:
        check = Checker(self.name)
        if output != 0:
            check.fail(f"exit code {output}")
            return check.problems
        ref = Reference(self.lo, self.hi)
        doc = json.loads(self.json.read_text(encoding="utf-8"))
        pcs = component_labels(ref.q)
        for key, rows in (("scores", self.rows), ("correlations", self.cols)):
            check.equal(f"{key}.rows", doc[key]["rows"], list(rows))
            check.equal(f"{key}.cols", doc[key]["cols"], pcs)
        oracle.check_pca(
            check, ref,
            eigenvalues=doc["eigenvalues"],
            scores_lo=doc["scores"]["lo"], scores_hi=doc["scores"]["hi"],
            corr_lo=doc["correlations"]["lo"], corr_hi=doc["correlations"]["hi"],
            center_scores=doc["center_scores"]["values"],
            center_correlations=doc["center_correlations"]["values"],
            method_used=doc["method_used"], clamped=True,
        )
        for key, path in (("scores", self.scores_csv), ("correlations", self.corr_csv)):
            rows, cols, lo, hi = oracle.read_interval_csv(path.read_text(encoding="utf-8"))
            same = (
                rows == doc[key]["rows"] and cols == doc[key]["cols"]
                and np.array_equal(lo, doc[key]["lo"]) and np.array_equal(hi, doc[key]["hi"])
            )
            if not same:
                check.fail(f"{path.name} does not hold the {key} of the JSON result")
        return check.problems

    def corrupt(self, output) -> None:
        """Perturb one endpoint of the scores CSV."""
        rows, cols, lo, hi = oracle.read_interval_csv(self.scores_csv.read_text(encoding="utf-8"))
        lo[0, 0] -= 1e-6
        self.scores_csv.write_text(interval_csv_text(rows, cols, lo, hi), encoding="utf-8")


class BatchGrid(Workload):
    """One in-memory sweep of pca_auto over a fixed list of tables."""

    name = "batch-grid"

    def __init__(self, seed: int, workdir: Path, shapes=GRID_SHAPES) -> None:
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        bounds = [(OILS_ROWS, OILS_COLS, OILS_LO, OILS_HI)]
        for m, n in shapes:
            bounds.append((labels("r", m), labels("c", n), *structured_bounds(rng, m, n)))
        self.bounds = bounds
        self.tables = [sympca.IntervalMatrix(r, c, lo, hi) for r, c, lo, hi in bounds]
        self.cells = sum(lo.size for _, _, lo, _ in bounds)

    def op(self):
        return [sympca.pca_auto(x) for x in self.tables]

    def traced_op(self, tracer: Tracer):
        results = []
        for x in self.tables:
            with tracer.span("pca.auto"):
                results.append(sympca.pca_auto(x))
        return results, self.tables

    def digest(self, output) -> str:
        parts = []
        for r in output:
            parts.append(r.method_used.encode())
            for a in (r.eigenvalues, r.loadings_u, r.axes_v, r.scores.lo, r.scores.hi,
                      r.correlations.lo, r.correlations.hi, r.center_scores,
                      r.center_correlations):
                parts.append(np.ascontiguousarray(a).tobytes())
        return digest(*parts)

    def verify(self, output) -> list[str]:
        if len(output) != len(self.tables):
            return [f"{self.name}: {len(output)} results for {len(self.tables)} tables"]
        problems = []
        for (rows, cols, lo, hi), r in zip(self.bounds, output):
            ref = Reference(lo, hi)
            check = Checker(f"{self.name} {lo.shape[0]}x{lo.shape[1]}")
            pcs = tuple(component_labels(ref.q))
            check.equal("scores labels", (r.scores.rows, r.scores.cols), (rows, pcs))
            check.equal("correlations labels", (r.correlations.rows, r.correlations.cols), (cols, pcs))
            oracle.check_pca(
                check, ref,
                eigenvalues=r.eigenvalues,
                scores_lo=r.scores.lo, scores_hi=r.scores.hi,
                corr_lo=r.correlations.lo, corr_hi=r.correlations.hi,
                center_scores=r.center_scores, center_correlations=r.center_correlations,
                loadings=r.loadings_u, axes=r.axes_v,
                method_used=r.method_used, clamped=False,
            )
            problems += check.problems
        return problems

    def corrupt(self, output) -> None:
        """Swap lower and upper bounds in one score column of one table."""
        scores = output[3].scores
        scores.lo[:, 0], scores.hi[:, 0] = scores.hi[:, 0].copy(), scores.lo[:, 0].copy()


class ConceptReport(_CliWorkload):
    """``aggregate --by state``, then ``plot-circle`` and ``plot-plane`` on its output."""

    name = "concept-report"

    def __init__(self, seed: int, workdir: Path, records: int = 50000, groups: int = 5000,
                 n: int = 20) -> None:
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        lo, hi = structured_bounds(rng, groups, n)
        centre, spread = (lo + hi) / 2.0, (hi - lo) / 2.0
        group = rng.integers(0, groups, records)
        self.keys = np.array([f"S{g:04d}" for g in group])
        self.values = centre[group] + spread[group] * rng.uniform(-1.0, 1.0, (records, n))
        self.cols = labels("V", n)
        self.cells = self.values.size
        lines = [",state," + ",".join(self.cols)]
        for label, key, row in zip(labels("rec", records), self.keys, self.values.tolist()):
            lines.append(f"{label},{key}," + ",".join(map(repr, row)))
        workdir.mkdir(parents=True, exist_ok=True)
        self.input = workdir / "records.csv"
        self.input.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.aggregate = workdir / "concepts.csv"
        self.circle = workdir / "circle.svg"
        self.plane = workdir / "plane.svg"
        self.outputs = (self.aggregate, self.circle, self.plane)

    def _argv(self):
        agg = str(self.aggregate)
        return (
            ["aggregate", "--input", str(self.input), "--output", agg, "--by", "state"],
            ["plot-circle", "--input", agg, "--output", str(self.circle)],
            ["plot-plane", "--input", agg, "--output", str(self.plane)],
        )

    def op(self):
        return tuple(sympca.cli.main(argv) for argv in self._argv())

    def _traced_plot(self, tracer: Tracer, circle: bool):
        with tracer.span("cli.command"):
            text = self.aggregate.read_text(encoding="utf-8")
            with tracer.span("tableio.parse_interval", bytes_read=self.aggregate.stat().st_size):
                table = sympca.parse_interval_csv(text)
            with tracer.span("pca.auto"):
                result = sympca.pca_auto(table)
            spec = sympca.PlotSpec(axis_x=1, axis_y=2)
            if circle:
                correlations = sympca.clamp_correlations(result.correlations)
                with tracer.span("render.circle") as span:
                    svg = sympca.render_circle(correlations, spec)
            else:
                with tracer.span("render.plane") as span:
                    svg = sympca.render_plane(result.scores, spec)
            span["svg_bytes"] = len(svg.encode())
            (self.circle if circle else self.plane).write_text(svg, encoding="utf-8")
        return table

    def traced_op(self, tracer: Tracer):
        with tracer.span("cli.command"):
            text = self.input.read_text(encoding="utf-8")
            with tracer.span("tableio.parse_classic", bytes_read=self.input.stat().st_size):
                classic = sympca.parse_classic_csv(text, concept="state")
            with tracer.span("tableio.aggregate") as span:
                concepts = sympca.aggregate_classic(classic, "state")
            span["groups"] = len(concepts.rows)
            with tracer.span("tableio.write_interval") as span:
                text = sympca.write_interval_csv(concepts)
            span["bytes_written"] = len(text.encode())
            self.aggregate.write_text(text, encoding="utf-8")
        tables = [self._traced_plot(tracer, circle) for circle in (True, False)]
        return (0, 0, 0), tables

    def verify(self, output) -> list[str]:
        check = Checker(self.name)
        if output != (0, 0, 0):
            check.fail(f"exit codes {output}")
            return check.problems
        keys, lo, hi = oracle.group_min_max(self.keys, self.values)
        keys = keys.tolist()
        ref = Reference(lo, hi)
        rows, cols, got_lo, got_hi = oracle.read_interval_csv(self.aggregate.read_text(encoding="utf-8"))
        check.equal("aggregate rows", rows, keys)
        check.equal("aggregate cols", cols, list(self.cols))
        if not (np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)):
            check.fail("aggregate bounds differ from the per-group min/max")
        try:
            circle = oracle.svg_rects(self.circle.read_text(encoding="utf-8"))
            plane = oracle.svg_rects(self.plane.read_text(encoding="utf-8"))
        except oracle.ET.ParseError as exc:
            check.fail(f"SVG is not well-formed XML: {exc}")
            return check.problems
        check.equal("circle rect count", len(circle), len(cols))
        check.equal("plane rect count", len(plane), len(keys))
        if len(circle) == len(cols):
            got_lo, got_hi = oracle.circle_intervals(circle, 600.0, 600.0, 0.42)
            for k in range(2):
                want_lo = np.clip(ref.correlations[0][:, k], -1.0, 1.0)
                want_hi = np.clip(ref.correlations[1][:, k], -1.0, 1.0)
                if np.dot(got_lo[:, k] + got_hi[:, k], want_lo + want_hi) < 0:
                    want_lo, want_hi = -want_hi, -want_lo
                check.close(f"circle PC{k + 1}.lo", got_lo[:, k], want_lo)
                check.close(f"circle PC{k + 1}.hi", got_hi[:, k], want_hi)
        return check.problems

    def corrupt(self, output) -> None:
        """Swap lower and upper bounds in the first column of the aggregate."""
        rows, cols, lo, hi = oracle.read_interval_csv(self.aggregate.read_text(encoding="utf-8"))
        lo[:, 0], hi[:, 0] = hi[:, 0].copy(), lo[:, 0].copy()
        self.aggregate.write_text(interval_csv_text(rows, cols, lo, hi), encoding="utf-8")


WORKLOADS = {w.name: w for w in (CliPcaTall, BatchGrid, ConceptReport)}

# Small inputs of each workload, run once before timing to warm code paths.
WARM_SIZES = {
    "cli-pca-tall": {"m": 200},
    "batch-grid": {"shapes": ((30, 12), (12, 30))},
    "concept-report": {"records": 2000, "groups": 200},
}
