"""The public surface: ``sympca.__all__`` and what the benchmark reads."""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sympca
import sympca.cli  # noqa: F401  (perfbench runs sympca.cli.main)
from sympca.bench import BenchReport

PUBLIC = [
    "BoundsPair",
    "ClassicTable",
    "DataError",
    "IntervalMatrix",
    "NumericError",
    "PcaResult",
    "PlotSpec",
    "aggregate_classic",
    "benchmark_paths",
    "centers_matrix",
    "clamp_correlations",
    "dual_transport",
    "eigen_sym",
    "flip_component",
    "interval_project",
    "load_oils_table",
    "parse_classic_csv",
    "parse_interval_csv",
    "pca_auto",
    "pca_ztz",
    "pca_zzt",
    "render_circle",
    "render_plane",
    "result_to_json",
    "standardize",
    "vertex_extremes",
    "write_interval_csv",
]

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"

# Each CLI command is a fresh interpreter; none of these may load on import.
# xml.sax.saxutils pulls in the network stack (urllib.request, http.client,
# ssl, email); statistics pulls in fractions and decimal.
NOT_LOADED = ("xml.sax", "urllib.request", "http.client", "ssl", "email", "statistics")


def test_all_is_the_public_list():
    assert sympca.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(sympca, name) is not None


def test_every_name_perfbench_reads_resolves():
    read = set()
    for path in PERFBENCH.glob("*.py"):
        read.update(re.findall(r"\bsympca\.(\w+)", path.read_text(encoding="utf-8")))
    # The traced replay and the checks read these.
    assert {"standardize", "eigen_sym", "interval_project", "BoundsPair",
            "flip_component", "parse_classic_csv", "aggregate_classic"} <= read
    for name in read:
        assert hasattr(sympca, name), name


def test_attributes_perfbench_reads(oils):
    bundle = sympca.standardize(oils)
    assert bundle.z.shape == oils.shape
    assert isinstance(bundle.bounds, sympca.BoundsPair)
    eig = sympca.eigen_sym(bundle.z.T @ bundle.z)
    assert eig.values.shape == (4,) and eig.vectors.shape == (4, 4)
    assert eig.positive_count == 4
    result = sympca.pca_auto(oils)
    assert set(vars(result)) == {
        "eigenvalues", "loadings_u", "axes_v", "scores", "correlations",
        "center_scores", "center_correlations", "method_used",
    }
    table = sympca.parse_classic_csv(",state,x\n1,a,0.5\n", concept="state")
    assert np.array_equal(sympca.aggregate_classic(table, "state").lo, [[0.5]])


@pytest.mark.parametrize("module", ["sympca", "sympca.cli"])
def test_import_loads_no_network_stack_or_statistics(module):
    script = (
        f"import {module}, sys; "
        f"print(sorted(m for m in sys.modules for bad in {NOT_LOADED!r} "
        "if m == bad or m.startswith(bad + '.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_resource_reader_or_pathlib():
    # Under -S no .pth file runs, so whatever loads these is sympca's own
    # import; numpy's site directory is appended by hand.
    site_dir = os.path.dirname(os.path.dirname(np.__file__))
    bad = ("importlib.resources", "pathlib")
    script = (
        f"import sys; sys.path.append({site_dir!r}); import sympca; "
        f"print(sorted(m for m in sys.modules for bad in {bad!r} "
        "if m == bad or m.startswith(bad + '.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=9),
       st.lists(st.floats(0.0, 10.0), min_size=1, max_size=9))
def test_bench_medians_match_statistics(zzt, ztz):
    report = BenchReport(m=2, n=1, trials=1, times_zzt=tuple(zzt),
                         times_ztz=tuple(ztz), auto_method="ztz")
    assert type(report.median_zzt) is float and type(report.median_ztz) is float
    assert report.median_zzt == statistics.median(zzt)
    assert report.median_ztz == statistics.median(ztz)


def _entry_points():
    """Each public array or integer argument: a valid value, and a call taking
    the argument in that place, with the argument's name as id."""
    two = np.array([[2.0, 1.0], [1.0, 2.0]])
    pair = sympca.BoundsPair(two - 1.0, two)
    labels = (("a", "b"), ("x", "y"))
    oils = sympca.load_oils_table()
    result = sympca.pca_auto(oils)
    low, high, weight = np.zeros(2), np.ones(2), np.ones(2)
    return [pytest.param(good, call, id=name) for name, good, call in [
        ("BoundsPair-low", two - 1.0, lambda a: sympca.BoundsPair(a, two)),
        ("BoundsPair-high", two, lambda a: sympca.BoundsPair(two - 1.0, a)),
        ("IntervalMatrix-lo", two - 1.0, lambda a: sympca.IntervalMatrix(*labels, a, two)),
        ("IntervalMatrix-hi", two, lambda a: sympca.IntervalMatrix(*labels, two - 1.0, a)),
        ("ClassicTable-values", two, lambda a: sympca.ClassicTable(*labels, a)),
        ("interval_project-weights", two, lambda a: sympca.interval_project(pair, a)),
        ("vertex_extremes-low", low, lambda a: sympca.vertex_extremes(a, high, weight)),
        ("vertex_extremes-high", high, lambda a: sympca.vertex_extremes(low, a, weight)),
        ("vertex_extremes-weight", weight, lambda a: sympca.vertex_extremes(low, high, a)),
        ("eigen_sym", two, sympca.eigen_sym),
        ("dual_transport-z", np.eye(2), lambda a: sympca.dual_transport(a, np.eye(2), weight)),
        ("dual_transport-vectors", np.eye(2),
         lambda a: sympca.dual_transport(np.eye(2), a, weight)),
        ("dual_transport-lam", weight, lambda a: sympca.dual_transport(np.eye(2), np.eye(2), a)),
        ("PlotSpec-axis_x", 1, lambda k: sympca.PlotSpec(k, 2)),
        ("PlotSpec-axis_y", 2, lambda k: sympca.PlotSpec(1, k)),
        ("flip_component", 0, lambda k: sympca.flip_component(result, k)),
        ("pca_zzt-q", 2, lambda q: sympca.pca_zzt(oils, q)),
        ("pca_ztz-q", 2, lambda q: sympca.pca_ztz(oils, q)),
        ("pca_auto-q", 2, lambda q: sympca.pca_auto(oils, q)),
        ("benchmark_paths-m", 3, lambda m: sympca.benchmark_paths(m, 2, 1)),
        ("benchmark_paths-n", 2, lambda n: sympca.benchmark_paths(3, n, 1)),
        ("benchmark_paths-trials", 1, lambda t: sympca.benchmark_paths(3, 2, t)),
    ]]


def _spoiled(good, kind):
    """``good`` with a NaN or inf entry, or of the wrong rank; True and 1.5
    are passed as they are."""
    if kind not in ("nan", "inf", "rank"):
        return kind
    if np.ndim(good) == 0:  # an index
        return [good] if kind == "rank" else float(kind)
    good = np.asarray(good, dtype=float)
    if kind == "rank":
        return good.ravel() if good.ndim == 2 else good[0]
    bad = good.copy()
    bad.flat[0] = float(kind)
    return bad


@pytest.mark.parametrize("kind", ["nan", "inf", "rank", True, 1.5])
@pytest.mark.parametrize("good, call", _entry_points())
def test_entry_point_refuses_bad_argument(good, call, kind):
    # Every public array is checked for rank and finiteness, every index for
    # being an integer; each refusal is a DataError, never garbage or a
    # numpy error.
    call(good)
    with pytest.raises(sympca.DataError):
        call(_spoiled(good, kind))
