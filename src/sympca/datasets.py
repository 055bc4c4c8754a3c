"""Bundled example data."""

from __future__ import annotations

import os

from .intervals import IntervalMatrix
from .tableio import parse_interval_csv

__all__ = ["load_oils_table"]


def load_oils_table() -> IntervalMatrix:
    """The classic oils-and-fats benchmark: 8 classes of oil described by
    four interval variables (specific gravity GRA, freezing point FRE,
    iodine value IOD, saponification SAP)."""
    path = os.path.join(os.path.dirname(__file__), "data", "oils.csv")
    with open(path, encoding="utf-8", newline="") as f:
        return parse_interval_csv(f.read())
