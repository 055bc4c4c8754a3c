"""Duality-based principal component analysis for interval-valued data.

Objects described by interval variables are analyzed through the midpoint
(centers) route: standardize the midpoints, eigendecompose either of the two
cross-products, transport eigenvectors between the object and variable sides,
and project interval bounds to obtain interval scores for the objects and
interval correlations for the variables (the symbolic correlation circle).
"""

from .bench import BenchReport, benchmark_paths, random_interval_table
from .datasets import load_oils_table
from .errors import DataError, NumericError
from .intervals import (
    BoundsPair,
    IntervalMatrix,
    interval_project,
    vertex_extremes,
)
from .linalg import dual_transport, eigen_sym
from .pca import (
    PcaResult,
    centers_matrix,
    clamp_correlations,
    flip_component,
    pca_auto,
    pca_ztz,
    pca_zzt,
    result_to_json,
    standardize,
)
from .render import PlotSpec, render_circle, render_plane
from .tableio import (
    ClassicTable,
    aggregate_classic,
    parse_classic_csv,
    parse_interval_csv,
    write_interval_csv,
)

__version__ = "0.1.0"

__all__ = [
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
