"""Bulk loading: Sort-Tile-Recursive packing for all tree variants.

The paper builds its indexes by repeated insertion; at experiment scale a
Python reproduction benefits from the classic STR bulk loader (Leutenegger
et al.), which produces a structurally equivalent height-balanced tree in
one bottom-up pass.  Crucially for the MIR2-Tree, the loader carries each
subtree's distinct-term union upward, so per-level signatures are computed
*without* re-reading objects — a build-time optimization only; incremental
maintenance stays faithful to the paper's expensive recomputation.

``benchmarks/bench_ablation_build.py`` confirms that insertion-built and
bulk-loaded trees answer queries with comparable I/O, so using the loader
for the figure experiments does not distort the comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import TreeInvariantError
from repro.spatial.geometry import Rect, coords_center, coords_union_all
from repro.spatial.rtree import RTree

#: Default node fill during bulk load (fraction of capacity).
DEFAULT_BULK_FILL = 0.7


@dataclass
class BulkItem:
    """One object to pack: pointer, bounding rectangle, distinct terms."""

    obj_ptr: int
    rect: Rect
    terms: set[str] = field(default_factory=set)


def bulk_load(tree: RTree, items: Sequence[BulkItem], fill: float = DEFAULT_BULK_FILL) -> None:
    """Pack ``items`` into an empty tree bottom-up (STR order).

    Args:
        tree: a freshly constructed (empty) RTree / IR2Tree / MIR2Tree.
        items: objects to load.
        fill: node fill fraction in (0, 1]; the paper-equivalent fan-out
            limit still applies.

    Raises:
        TreeInvariantError: when the tree is not empty or ``fill`` is
            infeasible.
    """
    if tree.size != 0:
        raise TreeInvariantError("bulk_load requires an empty tree")
    if not 0.0 < fill <= 1.0:
        raise TreeInvariantError(f"fill must be in (0, 1], got {fill}")
    if not items:
        return
    group_size = max(2, min(tree.capacity, int(tree.capacity * fill)))
    old_root = tree.root_id

    # Each pass packs one level's children, ``(ref, mbr_coords,
    # subtree_terms, entries)``, into STR groups, one node per group;
    # the objects are the leaves' children.  It stops at a single node.
    children = [(item.obj_ptr, item.rect.to_coords(), item.terms, ()) for item in items]
    level = 0
    while True:
        nodes = []
        for group in _str_partition(children, group_size, tree.dims):
            node_id = tree.pages.new_node_id()
            entries = [
                (
                    ref,
                    coords,
                    tree.scheme.subtree_signature(level - 1, child_entries, terms)
                    if level
                    else tree.scheme.object_signature(terms),
                )
                for ref, coords, terms, child_entries in group
            ]
            tree.store_node(node_id, level, entries)
            mbr = coords_union_all(coords for _ref, coords, _sig in entries)
            terms = set().union(*(child[2] for child in group))
            nodes.append((node_id, mbr, terms, entries))
        if len(nodes) == 1:
            break
        children = nodes
        level += 1

    tree.root_id = nodes[0][0]
    tree.height = level + 1
    tree.size = len(items)
    tree.bulk_loaded = True
    tree.pages.delete(old_root)


def insert_build(tree: RTree, items: Sequence[BulkItem]) -> None:
    """Build by repeated insertion (the paper's construction path)."""
    for item in items:
        tree.insert(item.obj_ptr, item.rect, tree.scheme.object_signature(item.terms))


def _str_partition(items: list, group_size: int, dims: int) -> list[list]:
    """Sort-Tile-Recursive grouping: runs of ~``group_size`` nearby items,
    each a tuple with its MBR's ``lo + hi`` coordinates second.

    Sorts by the first dimension, slices into vertical slabs sized so the
    recursion on the remaining dimensions yields square-ish tiles, and
    chunks along the last dimension.
    """

    def recurse(chunk: list, dim: int) -> list[list]:
        if len(chunk) <= group_size:
            return [chunk]
        chunk = sorted(chunk, key=lambda it: coords_center(it[1])[dim])
        if dim == dims - 1:
            return [
                chunk[i : i + group_size] for i in range(0, len(chunk), group_size)
            ]
        total_groups = math.ceil(len(chunk) / group_size)
        slabs = max(1, math.ceil(total_groups ** (1.0 / (dims - dim))))
        slab_size = math.ceil(len(chunk) / slabs)
        result: list[list] = []
        for i in range(0, len(chunk), slab_size):
            result.extend(recurse(chunk[i : i + slab_size], dim + 1))
        return result

    groups = recurse(list(items), 0)
    # Guard against a pathological trailing group of size 1 (an internal
    # node must have >= 2 entries): borrow one item from its neighbour.
    for i, group in enumerate(groups):
        if len(group) == 1 and i > 0 and len(groups[i - 1]) > 2:
            group.insert(0, groups[i - 1].pop())
    return [g for g in groups if g]
