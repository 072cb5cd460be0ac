"""Spatial substrate: geometry, R-Tree [Gut84], incremental NN [HS99]."""

from repro.spatial.geometry import (
    Point,
    Rect,
    point_distance,
    target_min_distance,
    target_point_distance,
)
from repro.spatial.nearest import (
    NNTrace,
    brute_force_nearest,
    incremental_nearest,
    k_nearest,
)
from repro.spatial.rtree import (
    DEFAULT_MIN_FILL_RATIO,
    NoSignatures,
    RTree,
    SignatureScheme,
    build_from_layout,
)
from repro.spatial.split import LinearSplit, QuadraticSplit, SplitStrategy

__all__ = [
    "DEFAULT_MIN_FILL_RATIO",
    "LinearSplit",
    "NNTrace",
    "NoSignatures",
    "Point",
    "QuadraticSplit",
    "RTree",
    "Rect",
    "SignatureScheme",
    "SplitStrategy",
    "brute_force_nearest",
    "build_from_layout",
    "incremental_nearest",
    "k_nearest",
    "point_distance",
    "target_min_distance",
    "target_point_distance",
]
