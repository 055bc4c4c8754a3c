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

PUBLIC = [
    "BenchReport",
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
    "random_interval_table",
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


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=9),
       st.lists(st.floats(0.0, 10.0), min_size=1, max_size=9))
def test_bench_medians_match_statistics(zzt, ztz):
    report = sympca.BenchReport(m=2, n=1, trials=1, times_zzt=tuple(zzt),
                                times_ztz=tuple(ztz), auto_method="ztz")
    assert type(report.median_zzt) is float and type(report.median_ztz) is float
    assert report.median_zzt == statistics.median(zzt)
    assert report.median_ztz == statistics.median(ztz)
