"""Spatial partitioners: assign every object to one of N shards.

A production deployment splits a planet-scale dataset across machines;
queries then fan out only to the partitions whose region can contain a
result (the pressure behind QDR-Tree's quad-partitioned hybrid index,
arXiv:1804.10726).  A partitioner learns a space decomposition from the
staged object locations once, at build time, and afterwards maps any
point — including live inserts and points outside the training extent —
to a stable shard id.

Three strategies:

* :class:`KDPartitioner` (the default) — a recursive kd-split over the
  actual object locations.  Each split halves the *object count* along
  the widest dimension of the points in the cell, so shards stay balanced
  even on heavily clustered data.
* :class:`GridPartitioner` — a uniform grid over the dataset's bounding
  box, factorized as close to square as the shard count allows.  Cheap
  and predictable, but clustered data can leave cells nearly empty.
* :class:`KeywordAwarePartitioner` — term-vector clustering seeded from
  the kd split (QDR-Tree's keyword-aware clustering over a spatial
  decomposition, arXiv:1804.10726).  Co-locates textually similar
  objects so per-shard keyword summaries prune more of the fan-out,
  while the kd seed keeps shards spatially coherent enough for MBB
  pruning to still work.

All serialize to plain JSON dicts (:meth:`SpatialPartitioner.to_dict` /
:func:`partitioner_from_dict`) so a sharded engine layout can be reopened
from disk without refitting.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.errors import DatasetError, IndexError_

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model import SpatialObject
    from repro.text.analyzer import Analyzer

Point = Sequence[float]


def _default_analyzer() -> "Analyzer":
    from repro.text.analyzer import DEFAULT_ANALYZER

    return DEFAULT_ANALYZER


class SpatialPartitioner:
    """Contract: fit once over staged points, then assign any point.

    Purely spatial strategies only look at locations; the object-aware
    hooks (:meth:`fit_objects` / :meth:`assign_object`) default to
    delegating to the point-only methods so text-aware partitioners can
    additionally see object contents without changing callers.
    """

    kind = "?"

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise DatasetError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.fitted = False

    def fit(self, points: Sequence[Point]) -> None:
        """Learn the space decomposition from the staged object locations."""
        raise NotImplementedError

    def assign(self, point: Point) -> int:
        """Shard id in ``[0, n_shards)`` for ``point``; total over space."""
        raise NotImplementedError

    def fit_objects(
        self, objects: Sequence["SpatialObject"], analyzer: "Analyzer" | None = None
    ) -> None:
        """Fit from whole objects; spatial strategies use only the points."""
        self.fit([obj.point for obj in objects])

    def assign_object(
        self, obj: "SpatialObject", analyzer: "Analyzer" | None = None
    ) -> int:
        """Shard id for a whole object; spatial strategies ignore the text."""
        return self.assign(obj.point)

    def require_fitted(self) -> None:
        """Raise unless :meth:`fit` (or a deserialization) has run."""
        if not self.fitted:
            raise IndexError_(f"{self.kind} partitioner has not been fitted")

    def to_dict(self) -> dict:
        """JSON-serializable state; inverse of :func:`partitioner_from_dict`."""
        raise NotImplementedError


class KDPartitioner(SpatialPartitioner):
    """Recursive kd-split: median cuts along the locally widest dimension.

    Splitting a cell of ``n`` target shards sends ``ceil(n/2)`` shards to
    the low side with a proportional share of the points, so any shard
    count is supported (not just powers of two) and object counts stay
    balanced.  The split tree is a nested dict of ``{"dim", "value",
    "left", "right"}`` nodes with ``{"shard": id}`` leaves, which makes it
    trivially JSON-serializable.
    """

    kind = "kd"

    def __init__(self, n_shards: int, tree: dict | None = None) -> None:
        super().__init__(n_shards)
        self._tree = tree
        if tree is not None:
            self.fitted = True

    def fit(self, points: Sequence[Point]) -> None:
        pts = [tuple(float(c) for c in p) for p in points]
        self._next_shard = 0
        self._tree = self._split(pts, self.n_shards)
        del self._next_shard
        self.fitted = True

    def _split(self, points: list[tuple], n_shards: int) -> dict:
        if n_shards == 1:
            leaf = {"shard": self._next_shard}
            self._next_shard += 1
            return leaf
        n_left = (n_shards + 1) // 2
        dim, value, low, high = self._cut(points, n_left / n_shards)
        return {
            "dim": dim,
            "value": value,
            "left": self._split(low, n_left),
            "right": self._split(high, n_shards - n_left),
        }

    @staticmethod
    def _cut(points: list[tuple], fraction: float) -> tuple:
        """Cut along the widest dimension at the ``fraction`` count quantile."""
        if not points:
            return 0, 0.0, [], []
        dims = len(points[0])
        spans = [
            max(p[d] for p in points) - min(p[d] for p in points)
            for d in range(dims)
        ]
        dim = max(range(dims), key=lambda d: spans[d])
        ordered = sorted(points, key=lambda p: p[dim])
        cut = min(max(int(round(len(ordered) * fraction)), 1), len(ordered))
        value = ordered[cut - 1][dim]
        # assign() sends point[dim] <= value to the low side, so points
        # equal to the cut coordinate must stay together on that side.
        low = [p for p in ordered if p[dim] <= value]
        high = [p for p in ordered if p[dim] > value]
        return dim, value, low, high

    def assign(self, point: Point) -> int:
        self.require_fitted()
        node = self._tree
        while "shard" not in node:
            side = "left" if point[node["dim"]] <= node["value"] else "right"
            node = node[side]
        return node["shard"]

    def to_dict(self) -> dict:
        self.require_fitted()
        return {"kind": self.kind, "n_shards": self.n_shards, "tree": self._tree}


class GridPartitioner(SpatialPartitioner):
    """Uniform grid over the fitted bounding box.

    The shard count is factorized into per-dimension cell counts as close
    to square as possible over the first two dimensions (one slab axis
    for 1-D data).  Points outside the fitted extent clamp to the border
    cells, so live inserts beyond the training data still land somewhere.
    """

    kind = "grid"

    def __init__(
        self,
        n_shards: int,
        lo: tuple | None = None,
        hi: tuple | None = None,
        cells: tuple | None = None,
    ) -> None:
        super().__init__(n_shards)
        self._lo = lo
        self._hi = hi
        self._cells = cells
        if lo is not None:
            self.fitted = True

    def fit(self, points: Sequence[Point]) -> None:
        pts = [tuple(float(c) for c in p) for p in points]
        dims = len(pts[0]) if pts else 2
        if pts:
            self._lo = tuple(min(p[d] for p in pts) for d in range(dims))
            self._hi = tuple(max(p[d] for p in pts) for d in range(dims))
        else:
            self._lo = (0.0,) * dims
            self._hi = (1.0,) * dims
        self._cells = self._factorize(self.n_shards, dims)
        self.fitted = True

    @staticmethod
    def _factorize(n: int, dims: int) -> tuple:
        """Cell counts per dimension, product == n, near-square in 2-D."""
        if dims == 1 or n == 1:
            return (n,) + (1,) * (dims - 1)
        best = 1
        for a in range(1, int(math.isqrt(n)) + 1):
            if n % a == 0:
                best = a
        return (n // best, best) + (1,) * (dims - 2)

    def assign(self, point: Point) -> int:
        self.require_fitted()
        cell = 0
        for d, count in enumerate(self._cells):
            span = self._hi[d] - self._lo[d]
            if span <= 0.0 or count == 1:
                index = 0
            else:
                index = int((point[d] - self._lo[d]) / span * count)
                index = min(max(index, 0), count - 1)
            cell = cell * count + index
        return cell

    def to_dict(self) -> dict:
        self.require_fitted()
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "lo": list(self._lo),
            "hi": list(self._hi),
            "cells": list(self._cells),
        }


class KeywordAwarePartitioner(SpatialPartitioner):
    """Term-vector clustering seeded from the spatial kd split.

    Fitting runs in three deterministic steps:

    1. a :class:`KDPartitioner` is fitted over the object locations — the
       seed assignment, and the permanent spatial fallback for objects
       whose text matches no cluster;
    2. per-shard *term centroids* (term -> number of member documents
       containing it) are accumulated from the seed assignment;
    3. a few balanced refinement passes move each object (in oid order)
       to the shard whose centroid shares the most *idf-weighted* term
       mass with it — each shared term counts ``centroid_count / df`` so
       rare, discriminative terms steer the clustering instead of the
       ubiquitous ones (which every shard holds anyway and which can
       never help routing prune) — subject to a size cap of
       ``ceil(n / n_shards * (1 + slack))`` so no shard collapses to
       empty or absorbs everything.  Ties prefer the kd seed shard, then
       the lowest shard id.

    Serialized centroids store the weighted mass per term (rounded, so
    in-memory and reloaded routing agree bit-for-bit), ranked by that
    mass when pruned to ``centroid_cap`` entries.

    After fitting, centroids are pruned to their ``centroid_cap``
    heaviest terms so the serialized routing state stays small; pruning
    happens *before* any assignment so in-memory and reloaded
    partitioners route identically.  Any assignment is *correct* — shard
    MBBs are recomputed from actual members and answers are merged
    tie-aware — so clustering quality only affects fan-out, never
    results.
    """

    kind = "keyword"

    #: Terms kept per serialized centroid (heaviest first).
    DEFAULT_CENTROID_CAP = 128
    #: Allowed shard-size overshoot over the perfect n/n_shards balance.
    DEFAULT_BALANCE_SLACK = 0.3
    #: Refinement passes over the corpus.
    DEFAULT_ITERATIONS = 3

    def __init__(
        self,
        n_shards: int,
        tree: dict | None = None,
        centroids: list[dict] | None = None,
        centroid_cap: int = DEFAULT_CENTROID_CAP,
        balance_slack: float = DEFAULT_BALANCE_SLACK,
        iterations: int = DEFAULT_ITERATIONS,
    ) -> None:
        super().__init__(n_shards)
        self._kd = KDPartitioner(n_shards, tree=tree)
        self._centroids = centroids
        self.centroid_cap = centroid_cap
        self.balance_slack = balance_slack
        self.iterations = iterations
        #: Fit-time oid -> shard placement.  The refinement runs under a
        #: size cap, but the pure centroid-overlap rule of
        #: :meth:`assign_object` does not — on term-skewed corpora it
        #: would pile everything onto the heaviest centroid.  Remembering
        #: the capped placement keeps ``build()`` balanced.  In-memory
        #: only: a deserialized partitioner routes *new* objects by
        #: centroid overlap, while existing membership is carried by the
        #: shard corpora themselves.
        self._placement: dict[int, int] = {}
        if tree is not None and centroids is not None:
            self.fitted = True

    def fit(self, points: Sequence[Point]) -> None:
        """Point-only fallback: kd decomposition, no text clustering."""
        self._kd.fit(points)
        self._centroids = [{} for _ in range(self.n_shards)]
        self._placement = {}
        self.fitted = True

    def fit_objects(
        self, objects: Sequence["SpatialObject"], analyzer: "Analyzer" | None = None
    ) -> None:
        """Fit the kd seed, then refine the placement by term overlap.

        A shard's score subtracts the object's own count on its current
        shard, so its terms do not anchor it there, and skips zero-weight
        terms; centroid counts move only when the object changes shard.
        """
        analyzer = analyzer or _default_analyzer()
        self._kd.fit([obj.point for obj in objects])
        ordered = sorted(objects, key=lambda obj: obj.oid)
        term_sets = {obj.oid: sorted(analyzer.terms(obj.text)) for obj in ordered}
        # Inverse document frequency: a term shared by most of the
        # corpus lives in every shard regardless of placement, so it
        # carries no routing signal; a df-2 term confined to one shard
        # lets the summary prune everywhere else.
        df: dict[str, int] = {}
        for terms in term_sets.values():
            for term in terms:
                df[term] = df.get(term, 0) + 1
        cap = max(1, math.ceil(len(ordered) / self.n_shards * (1 + self.balance_slack)))
        # A term with more holders than fit in one shard can never be
        # confined, so it carries zero routing signal; scoring it would
        # only drown out the confinable terms.
        weight = {
            term: (1.0 / (count * count) if count <= cap else 0.0)
            for term, count in df.items()
        }
        scored = {
            oid: [(term, weight[term]) for term in terms if weight[term]]
            for oid, terms in term_sets.items()
        }
        seed = {obj.oid: self._kd.assign(obj.point) for obj in ordered}
        placement = dict(seed)
        centroids: list[dict[str, int]] = [{} for _ in range(self.n_shards)]
        sizes = [0] * self.n_shards
        for obj in ordered:
            shard = placement[obj.oid]
            sizes[shard] += 1
            for term in term_sets[obj.oid]:
                centroids[shard][term] = centroids[shard].get(term, 0) + 1
        for _ in range(self.iterations):
            moved = 0
            for obj in ordered:
                terms = scored[obj.oid]
                current = placement[obj.oid]

                def overlap(s: int) -> float:
                    get, own = centroids[s].get, s == current
                    return sum((get(term, 0) - own) * w for term, w in terms)

                best = min(
                    (
                        s for s in range(self.n_shards)
                        if sizes[s] - (s == current) < cap
                    ),
                    key=lambda s: (
                        -overlap(s), 0 if s == seed[obj.oid] else 1, s
                    ),
                )
                if best == current:
                    continue
                moved += 1
                placement[obj.oid] = best
                sizes[current] -= 1
                sizes[best] += 1
                for term in term_sets[obj.oid]:
                    remaining = centroids[current][term] - 1
                    if remaining:
                        centroids[current][term] = remaining
                    else:
                        del centroids[current][term]
                    centroids[best][term] = centroids[best].get(term, 0) + 1
            if not moved:
                break
        self._centroids = [
            self._prune({
                term: round(count * weight[term], 6)
                for term, count in centroid.items()
            })
            for centroid in centroids
        ]
        self._placement = placement
        self.fitted = True

    def _prune(self, centroid: dict[str, float]) -> dict[str, float]:
        """Keep the ``centroid_cap`` heaviest terms (mass desc, term asc)."""
        ranked = sorted(centroid.items(), key=lambda item: (-item[1], item[0]))
        return dict(ranked[: self.centroid_cap])

    def assign(self, point: Point) -> int:
        self.require_fitted()
        return self._kd.assign(point)

    def assign_object(
        self, obj: "SpatialObject", analyzer: "Analyzer" | None = None
    ) -> int:
        self.require_fitted()
        placed = self._placement.get(obj.oid)
        if placed is not None:
            return placed
        analyzer = analyzer or _default_analyzer()
        terms = sorted(analyzer.terms(obj.text))
        kd_shard = self._kd.assign(obj.point)
        if not terms:
            return kd_shard
        return min(
            range(self.n_shards),
            key=lambda s: (
                -sum(self._centroids[s].get(term, 0) for term in terms),
                0 if s == kd_shard else 1,
                s,
            ),
        )

    def to_dict(self) -> dict:
        self.require_fitted()
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "tree": self._kd._tree,
            "centroids": self._centroids,
            "centroid_cap": self.centroid_cap,
        }


def make_partitioner(kind: str, n_shards: int) -> SpatialPartitioner:
    """Factory: ``kind`` in {"kd", "grid", "keyword"} (case-insensitive)."""
    normalized = kind.strip().lower()
    if normalized == "kd":
        return KDPartitioner(n_shards)
    if normalized == "grid":
        return GridPartitioner(n_shards)
    if normalized == "keyword":
        return KeywordAwarePartitioner(n_shards)
    raise DatasetError(f"unknown partitioner kind {kind!r}")


def partitioner_from_dict(state: dict) -> SpatialPartitioner:
    """Rebuild a fitted partitioner from its :meth:`to_dict` payload."""
    kind = state.get("kind")
    if kind == "kd":
        return KDPartitioner(state["n_shards"], tree=state["tree"])
    if kind == "grid":
        return GridPartitioner(
            state["n_shards"],
            lo=tuple(state["lo"]),
            hi=tuple(state["hi"]),
            cells=tuple(state["cells"]),
        )
    if kind == "keyword":
        return KeywordAwarePartitioner(
            state["n_shards"],
            tree=state["tree"],
            centroids=[dict(c) for c in state["centroids"]],
            centroid_cap=state.get(
                "centroid_cap", KeywordAwarePartitioner.DEFAULT_CENTROID_CAP
            ),
        )
    raise DatasetError(f"unknown partitioner kind {kind!r}")
