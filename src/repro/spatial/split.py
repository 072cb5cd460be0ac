"""R-Tree node splitting strategies.

The paper uses "the standard Quadratic Split technique [Gut84]"
(Section IV).  :class:`QuadraticSplit` implements it exactly: PickSeeds
chooses the pair of entries whose combined rectangle wastes the most area,
PickNext repeatedly assigns the entry with the greatest preference for one
group, and a group that must absorb all remaining entries to reach the
minimum fill does so.

:class:`LinearSplit` (Guttman's cheaper O(n) variant) is included as an
ablation axis — ``benchmarks/bench_ablation_split.py`` measures its effect
on search I/O.

Both partition node entries in the form the tree stores and decodes them,
``(child_ref, mbr_coords, signature)`` tuples, by their ``lo + hi`` MBR
coordinates alone; the other two fields ride along untouched.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TreeInvariantError
from repro.spatial.geometry import coords_area, coords_enlargement, coords_union

#: A node entry as the tree stores it: ``(child_ref, mbr_coords, signature)``
#: with the MBR as its flat ``lo + hi`` coordinates.
NodeEntry = tuple[int, tuple[float, ...], bytes]


class SplitStrategy:
    """Interface: partition an overfull entry list into two groups."""

    #: Short identifier used in benchmark labels.
    name = "abstract"

    def split(
        self, entries: Sequence[NodeEntry], min_fill: int
    ) -> tuple[list[NodeEntry], list[NodeEntry]]:
        """Partition ``entries`` into two non-empty groups by their MBRs.

        Args:
            entries: the ``capacity + 1`` entries of an overfull node.
            min_fill: minimum number of entries each group must receive.

        Returns:
            Two entry lists, each of size >= ``min_fill``.
        """
        raise NotImplementedError


class QuadraticSplit(SplitStrategy):
    """Guttman's quadratic-cost split [Gut84], as used by the paper."""

    name = "quadratic"

    def split(
        self, entries: Sequence[NodeEntry], min_fill: int
    ) -> tuple[list[NodeEntry], list[NodeEntry]]:
        _check_split_args(entries, min_fill)
        remaining = list(entries)
        seed_a, seed_b = self._pick_seeds(remaining)
        # Pop the later index first so the earlier one stays valid.
        first, second = sorted((seed_a, seed_b), reverse=True)
        group_a = [remaining.pop(first)]
        group_b = [remaining.pop(second)]
        box_a = group_a[0][1]
        box_b = group_b[0][1]

        while remaining:
            # If one group must take everything left to reach min_fill, do so.
            if len(group_a) + len(remaining) == min_fill:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == min_fill:
                group_b.extend(remaining)
                break
            index, prefer_a = self._pick_next(remaining, box_a, box_b)
            entry = remaining.pop(index)
            if prefer_a:
                group_a.append(entry)
                box_a = coords_union(box_a, entry[1])
            else:
                group_b.append(entry)
                box_b = coords_union(box_b, entry[1])
        return group_a, group_b

    @staticmethod
    def _pick_seeds(entries: Sequence[NodeEntry]) -> tuple[int, int]:
        """PickSeeds: the pair wasting the most area when grouped."""
        boxes = [entry[1] for entry in entries]
        areas = [coords_area(box) for box in boxes]
        worst = -float("inf")
        best_pair = (0, 1)
        for i, box_i in enumerate(boxes):
            area_i = areas[i]
            for j in range(i + 1, len(boxes)):
                waste = coords_area(coords_union(box_i, boxes[j])) - area_i - areas[j]
                if waste > worst:
                    worst = waste
                    best_pair = (i, j)
        return best_pair

    @staticmethod
    def _pick_next(
        remaining: Sequence[NodeEntry],
        box_a: tuple[float, ...],
        box_b: tuple[float, ...],
    ) -> tuple[int, bool]:
        """PickNext: entry with max |d_a - d_b|; ties break by smaller growth,
        then smaller area, then smaller group is preferred by the caller via
        ``prefer_a``."""
        best_index = 0
        best_diff = -1.0
        best_prefer_a = True
        for i, entry in enumerate(remaining):
            d_a = coords_enlargement(box_a, entry[1])
            d_b = coords_enlargement(box_b, entry[1])
            diff = abs(d_a - d_b)
            if diff > best_diff:
                best_diff = diff
                best_index = i
                if d_a != d_b:
                    best_prefer_a = d_a < d_b
                elif coords_area(box_a) != coords_area(box_b):
                    best_prefer_a = coords_area(box_a) < coords_area(box_b)
                else:
                    best_prefer_a = True
        return best_index, best_prefer_a


class LinearSplit(SplitStrategy):
    """Guttman's linear-cost split [Gut84] (ablation alternative).

    Seeds are the pair with the greatest normalized separation along any
    dimension; remaining entries go to the group needing less enlargement.
    """

    name = "linear"

    def split(
        self, entries: Sequence[NodeEntry], min_fill: int
    ) -> tuple[list[NodeEntry], list[NodeEntry]]:
        _check_split_args(entries, min_fill)
        remaining = list(entries)
        seed_a, seed_b = self._pick_seeds(remaining)
        first, second = sorted((seed_a, seed_b), reverse=True)
        group_a = [remaining.pop(first)]
        group_b = [remaining.pop(second)]
        box_a = group_a[0][1]
        box_b = group_b[0][1]
        for entry in remaining:
            d_a = coords_enlargement(box_a, entry[1])
            d_b = coords_enlargement(box_b, entry[1])
            take_a = d_a < d_b or (d_a == d_b and len(group_a) <= len(group_b))
            if take_a:
                group_a.append(entry)
                box_a = coords_union(box_a, entry[1])
            else:
                group_b.append(entry)
                box_b = coords_union(box_b, entry[1])
        # Rebalance if a group fell below min_fill (possible in this simple
        # assignment loop): move closest entries from the bigger group.
        self._rebalance(group_a, group_b, min_fill)
        self._rebalance(group_b, group_a, min_fill)
        return group_a, group_b

    @staticmethod
    def _pick_seeds(entries: Sequence[NodeEntry]) -> tuple[int, int]:
        boxes = [entry[1] for entry in entries]
        dims = len(boxes[0]) >> 1
        best_pair = (0, 1 if len(boxes) > 1 else 0)
        best_separation = -float("inf")
        for d in range(dims):
            highest_lo = max(range(len(boxes)), key=lambda i: boxes[i][d])
            lowest_hi = min(range(len(boxes)), key=lambda i: boxes[i][dims + d])
            if highest_lo == lowest_hi:
                continue
            width = max(box[dims + d] for box in boxes) - min(box[d] for box in boxes)
            if width <= 0:
                continue
            separation = (boxes[highest_lo][d] - boxes[lowest_hi][dims + d]) / width
            if separation > best_separation:
                best_separation = separation
                best_pair = (lowest_hi, highest_lo)
        if best_pair[0] == best_pair[1]:
            best_pair = (0, 1)
        return best_pair

    @staticmethod
    def _rebalance(
        short: list[NodeEntry], long: list[NodeEntry], min_fill: int
    ) -> None:
        while len(short) < min_fill:
            short.append(long.pop())


def _check_split_args(entries: Sequence, min_fill: int) -> None:
    if len(entries) < 2:
        raise TreeInvariantError(f"cannot split {len(entries)} entries")
    if min_fill < 1 or 2 * min_fill > len(entries):
        raise TreeInvariantError(
            f"min_fill {min_fill} infeasible for {len(entries)} entries"
        )
