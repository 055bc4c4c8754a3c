"""The public surface: ``sympca.__all__`` and what the benchmark reads."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import sympca
import sympca.cli  # noqa: F401  (perfbench runs sympca.cli.main)

PUBLIC = [
    "BenchReport",
    "BoundsPair",
    "ClassicTable",
    "DataError",
    "Interval",
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
    "random_interval_table",
    "render_circle",
    "render_plane",
    "result_to_json",
    "standardize",
    "vertex_extremes",
    "write_interval_csv",
]

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
