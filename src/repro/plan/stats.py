"""Planner statistics: keyword frequencies and a coarse density grid.

The cost model (:mod:`repro.plan.cost`) prices each execution strategy
from three lightweight statistics, all cheap enough to keep exact:

* **Keyword document frequencies** come straight from the corpus
  :class:`~repro.text.vocabulary.Vocabulary`, which is already maintained
  live on every add/delete — the planner never recounts anything, so its
  frequencies match a ground-truth recount by construction.
* **Spatial density** is a coarse d-dimensional grid histogram
  (:class:`DensityGrid`, ~16 cells per dimension) fitted to the data
  extent at build time and maintained exactly on inserts and deletes.
  Area queries use it to estimate how many objects fall inside the query
  rectangle; QDR-Tree-style keyword summaries per spatial region are the
  same idea one refinement further.
* **Object size** — the average number of blocks one object load costs —
  is sampled at (re)build time from the object store layout.

A monotonically increasing :attr:`PlannerStatistics.version` stamps every
mutation; plan-cache entries carry the version they were computed under
and are discarded when it moves, so cached decisions never outlive the
statistics that justified them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.spatial.geometry import Rect


class DensityGrid:
    """Coarse spatial histogram: object counts per grid cell.

    The extent is frozen when the grid is fitted; later points outside it
    are clamped into the nearest edge cell, which keeps maintenance exact
    (every live object is counted in exactly one cell) at the price of
    edge cells over-representing out-of-extent growth — acceptable for a
    planner that only needs order-of-magnitude area selectivities.
    """

    def __init__(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        cells_per_dim: int,
    ) -> None:
        if cells_per_dim < 1:
            raise ValueError(f"cells_per_dim must be >= 1, got {cells_per_dim}")
        self.lo = tuple(float(c) for c in lo)
        self.hi = tuple(float(c) for c in hi)
        self.dims = len(self.lo)
        self.cells_per_dim = cells_per_dim
        # Degenerate extents (single point, empty dimension) get width 1
        # so cell arithmetic stays well-defined.
        self.widths = tuple(
            (h - l) / cells_per_dim if h > l else 1.0
            for l, h in zip(self.lo, self.hi)
        )
        self.counts = [0] * (cells_per_dim**self.dims)
        self.total = 0

    @classmethod
    def fit(
        cls, points: Iterable[Sequence[float]], cells_per_dim: int = 16
    ) -> "DensityGrid | None":
        """Fit a grid to the points' extent and count them in; None if empty."""
        points = list(points)
        if not points:
            return None
        dims = len(points[0])
        lo = [min(p[d] for p in points) for d in range(dims)]
        hi = [max(p[d] for p in points) for d in range(dims)]
        grid = cls(lo, hi, cells_per_dim)
        for point in points:
            grid.add(point)
        return grid

    def _axis_cell(self, value: float, dim: int) -> int:
        cell = int((value - self.lo[dim]) / self.widths[dim])
        return min(max(cell, 0), self.cells_per_dim - 1)

    def cell_of(self, point: Sequence[float]) -> int:
        """Flat cell index holding ``point`` (clamped to the extent)."""
        index = 0
        for dim in range(self.dims):
            index = index * self.cells_per_dim + self._axis_cell(point[dim], dim)
        return index

    def add(self, point: Sequence[float]) -> None:
        self.counts[self.cell_of(point)] += 1
        self.total += 1

    def remove(self, point: Sequence[float]) -> None:
        """Uncount one object; exact inverse of :meth:`add`.

        Removing from an empty cell is a caller bug (a delete that never
        removed anything, or a point that was never added): silently
        clamping would desynchronize ``total`` from ``sum(counts)`` and
        skew every later :meth:`count_in` selectivity, so it raises.

        Raises:
            ValueError: when the point's cell holds no objects.
        """
        cell = self.cell_of(point)
        if self.counts[cell] <= 0:
            raise ValueError(
                f"density grid underflow: cell {cell} is empty "
                f"(point {tuple(point)} was never counted)"
            )
        self.counts[cell] -= 1
        self.total -= 1

    def cell_range(self, rect: Rect) -> tuple[tuple[int, int], ...]:
        """Per-dimension (first, last) cell indexes overlapping ``rect``."""
        return tuple(
            (self._axis_cell(rect.lo[d], d), self._axis_cell(rect.hi[d], d))
            for d in range(self.dims)
        )

    def count_in(self, rect: Rect) -> float:
        """Estimated number of objects inside ``rect``.

        Cells fully inside contribute their whole count; boundary cells
        contribute proportionally to the overlapped volume fraction
        (assuming uniform density within a cell).
        """
        ranges = self.cell_range(rect)

        def walk(dim: int, base: int, fraction: float) -> float:
            if fraction <= 0.0:
                return 0.0
            if dim == self.dims:
                return self.counts[base] * fraction
            first, last = ranges[dim]
            total = 0.0
            for cell in range(first, last + 1):
                cell_lo = self.lo[dim] + cell * self.widths[dim]
                cell_hi = cell_lo + self.widths[dim]
                overlap = min(rect.hi[dim], cell_hi) - max(rect.lo[dim], cell_lo)
                cover = min(1.0, max(0.0, overlap / self.widths[dim]))
                total += walk(
                    dim + 1, base * self.cells_per_dim + cell, fraction * cover
                )
            return total

        return walk(0, 0, 1.0)

    def as_dict(self) -> dict:
        """JSON-ready summary (bounds and occupancy, not the full array)."""
        occupied = sum(1 for c in self.counts if c)
        return {
            "lo": list(self.lo),
            "hi": list(self.hi),
            "cells_per_dim": self.cells_per_dim,
            "total": self.total,
            "occupied_cells": occupied,
        }


class PlannerStatistics:
    """The statistics bundle every cost estimate reads.

    Args:
        corpus: the shared :class:`~repro.core.corpus.Corpus`; keyword
            document frequencies are served directly from its live
            vocabulary.
        cells_per_dim: density-grid resolution per dimension.
    """

    def __init__(self, corpus, cells_per_dim: int = 16) -> None:
        self.corpus = corpus
        self.cells_per_dim = cells_per_dim
        self.grid: DensityGrid | None = None
        self.avg_blocks_per_object = 1.0
        #: Bumped on every rebuild/insert/delete; plan-cache entries
        #: computed under an older version are discarded.
        self.version = 0

    # -- Maintenance ------------------------------------------------------------

    def rebuild(self, items: Sequence) -> None:
        """Refit the density grid and object-size sample (at index build).

        ``items`` are the build's one pass over the corpus
        (:class:`~repro.core.builder.BulkItem`: pointer, point rectangle,
        terms), so the statistics decode no row of their own.
        """
        self.grid = DensityGrid.fit(
            [item.rect.lo for item in items], self.cells_per_dim
        )
        store = self.corpus.store
        if items:
            blocks = sum(store.blocks_for(item.obj_ptr) for item in items)
            self.avg_blocks_per_object = max(1.0, blocks / len(items))
        else:
            self.avg_blocks_per_object = 1.0
        self.version += 1

    def note_insert(self, obj) -> None:
        """Account one live insert (document frequencies update upstream)."""
        if self.grid is not None:
            self.grid.add(obj.point)
        self.version += 1

    def note_delete(self, obj) -> None:
        """Account one live delete."""
        if self.grid is not None:
            self.grid.remove(obj.point)
        self.version += 1

    # -- Lookups ----------------------------------------------------------------

    @property
    def analyzer(self):
        return self.corpus.analyzer

    @property
    def document_count(self) -> int:
        return self.corpus.vocabulary.document_count

    @property
    def avg_distinct_terms(self) -> float:
        """Average distinct terms per document (signature fp input)."""
        return self.corpus.vocabulary.average_unique_words_per_document

    def document_frequency(self, term: str) -> int:
        return self.corpus.vocabulary.document_frequency(term)

    def selectivity(self, terms: Sequence[str]) -> float:
        """Estimated fraction of documents containing *all* ``terms``.

        Independence assumption: the product of per-term frequencies.
        Any zero-frequency term makes the conjunction provably empty.
        """
        n = self.document_count
        if n == 0:
            return 0.0
        result = 1.0
        for term in terms:
            result *= self.document_frequency(term) / n
            if result == 0.0:
                return 0.0
        return result

    def area_count(self, rect: Rect) -> float | None:
        """Estimated objects inside ``rect``; None without a fitted grid."""
        if self.grid is None:
            return None
        return self.grid.count_in(rect)

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "documents": self.document_count,
            "avg_distinct_terms": round(self.avg_distinct_terms, 3),
            "avg_blocks_per_object": round(self.avg_blocks_per_object, 3),
            "grid": self.grid.as_dict() if self.grid is not None else None,
        }
