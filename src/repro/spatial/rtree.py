"""Disk-resident R-Tree [Gut84] with pluggable per-entry signatures.

This is the paper's base structure (Section III / Figure 2) implemented
from scratch: ChooseLeaf descends by least MBR enlargement, overflow is
resolved by the quadratic split, AdjustTree propagates MBR changes upward,
and Delete condenses underfull nodes and re-inserts orphaned entries, all
through a :class:`~repro.storage.pagestore.PageStore` so every node touch
is a counted disk access.  Queries and maintenance alike see an entry as
the ``(child_ref, mbr_coords, signature)`` tuple of :class:`DecodedNode`.

The IR2-Tree (Section IV) is this same tree with signatures attached to
every entry.  Rather than duplicating the maintenance logic, the tree
accepts a :class:`SignatureScheme` that decides each level's signature
length and how a parent entry's signature summarizes its child subtree.
The plain R-Tree uses :class:`NoSignatures` (zero-length signatures); the
IR2-/MIR2-Trees plug in their schemes from :mod:`repro.core`.  This mirrors
the paper's observation that signature upkeep rides along the very same
AdjustTree / CondenseTree passes that maintain MBRs.
"""

from __future__ import annotations

from operator import gt
from typing import Iterator, Sequence

from repro.errors import TreeInvariantError
from repro.spatial.geometry import (
    Rect,
    coords_area,
    coords_contain,
    coords_enlargement,
    coords_intersect,
    coords_union_all,
)
from repro.spatial.split import NodeEntry, QuadraticSplit, SplitStrategy
from repro.storage.intern import Intern
from repro.storage.pagestore import PageStore
from repro.storage.serialization import (
    HEADER_SIZE,
    blocks_per_node,
    decode_node,
    encode_node,
    entry_size,
    node_capacity,
)

#: Default minimum fill factor (Guttman's m = 40% of capacity).
DEFAULT_MIN_FILL_RATIO = 0.4

#: Decoded node images a node intern keeps; past it the oldest is dropped.
NODE_INTERN_CAPACITY = 128

#: Bit slices a decoded node image keeps (see :class:`DecodedNode`):
#: every slice of a signature up to 16 bytes wide, and at most about
#: 12 KB of slices per node at any width.
SLICES_PER_NODE = 128

#: Per bit ``k`` of a signature byte: the ``bytes.translate`` table that
#: maps a byte to the digit ``"1"`` when it has bit ``k``, else ``"0"``.
_BIT_DIGITS = tuple(
    bytes(0x31 if value >> k & 1 else 0x30 for value in range(256)) for k in range(8)
)


def bit_positions(value: int) -> list[int]:
    """The positions of the set bits of ``value``, lowest first."""
    positions = []
    while value:
        low = value & -value
        positions.append(low.bit_length() - 1)
        value ^= low
    return positions


class DecodedNode:
    """A node image decoded once, its signatures bit-sliced on demand.

    ``entries`` holds one ``(child_ref, mbr_coords, signature)`` tuple per
    entry, as :func:`~repro.storage.serialization.decode_node` unpacks
    it: the child pointer, the MBR's ``lo + hi`` corners and the
    ``sig_len`` signature bytes: the tree's one entry form.  Queries
    read it with no :class:`Rect` or signature object per entry and test
    signatures only through :meth:`survivors`; maintenance edits a list
    copy of the entries and stores it back (:meth:`RTree.store_node`).

    A *slice* is the bit-sliced layout of signature files: for a
    signature bit ``b``, an ``int`` whose bit ``i`` is set when entry
    ``i``'s signature has bit ``b``.  :meth:`survivors` builds a slice
    from the image the node was decoded from (the node intern's key, so
    holding it costs nothing): a strided slice picks byte ``b // 8`` of
    every entry's signature, and a ``translate`` and an ``int(..., 2)``
    read bit ``b % 8`` of each out.  All three run in C, so a slice
    costs about as much as testing six entries one at a time in Python.
    :attr:`slices` keeps the slices built so far, up to
    :data:`SLICES_PER_NODE` of them, so their memory is bounded whatever
    the signature width; a slice past that bound is built, used and
    dropped.  Slices live, and are dropped, with the interned image.
    Two threads that build one slice at once build equal ints, and
    either may be kept.
    """

    __slots__ = (
        "node_id", "level", "sig_len", "entries", "slices",
        "_image", "_first", "_stop", "_step",
    )

    def __init__(
        self,
        node_id: int,
        level: int,
        sig_len: int,
        entries: tuple[tuple[int, tuple[float, ...], bytes], ...],
        image: bytes,
        dims: int,
    ) -> None:
        self.node_id = node_id
        self.level = level
        self.sig_len = sig_len
        self.entries = entries
        self.slices: dict[int, int] = {}
        self._image = image
        # Entry i's signature byte j sits at _first + i * _step + j.
        self._step = step = entry_size(dims, sig_len)
        self._first = first = HEADER_SIZE + step - sig_len
        self._stop = first + len(entries) * step

    def survivors(self, positions: Sequence[int]) -> int:
        """Entries whose signature has every bit in ``positions``.

        Bit ``i`` of the result is set when entry ``i`` survives, so the
        survivors read out in entry order; no positions keep every
        entry.  This is the paper's "s matches w" for every entry at
        once, one AND per query bit.
        """
        count = len(self.entries)
        slices = self.slices
        survivors = (1 << count) - 1
        for bit in positions:
            if not survivors:
                break
            sliced = slices.get(bit)
            if sliced is None:
                column = self._image[self._first + (bit >> 3) : self._stop : self._step]
                # Entry 0's digit goes last, to the lowest bit.
                sliced = int(column.translate(_BIT_DIGITS[bit & 7])[::-1], 2)
                if len(slices) < SLICES_PER_NODE:
                    slices[bit] = sliced
            survivors &= sliced
        return survivors


def decode_entries(image: bytes, dims: int) -> DecodedNode:
    """Decode a node image into its :class:`DecodedNode` value.

    Each entry MBR is checked once; no slice is built here.

    Raises:
        SerializationError: the image header or length is bad.
        ValueError: an entry MBR is inverted (``lo > hi``).
    """
    node_id, level, _is_leaf, sig_len, entries = decode_node(image, dims)
    # The inlined 2-D check is the paper's case and costs a tenth of the
    # general one; maintenance decodes every image it rewrites.
    planar = dims == 2
    for _ref, coords, _signature in entries:
        if (
            coords[0] > coords[2] or coords[1] > coords[3]
            if planar
            else any(map(gt, coords[:dims], coords[dims:]))
        ):
            raise ValueError(
                f"inverted rectangle: lo={coords[:dims]}, hi={coords[dims:]}"
            )
    return DecodedNode(node_id, level, sig_len, tuple(entries), image, dims)


class SignatureScheme:
    """How signatures are sized and propagated up the tree.

    The base implementation is the *no signature* scheme used by the plain
    R-Tree: zero-length signatures everywhere.  The hooks see a child
    node as its ``level`` and its entry tuples.
    """

    def length_for_level(self, level: int) -> int:
        """Signature length in bytes for entries stored at ``level``."""
        return 0

    def entry_signature_for_child(
        self, tree: "RTree", level: int, entries: Sequence[NodeEntry]
    ) -> bytes:
        """Signature for a parent entry referencing the child ``entries``.

        Called during AdjustTree whenever a child changed; the returned
        bytes must have length ``length_for_level(level + 1)``.
        """
        return b""

    def object_signature(self, terms) -> bytes:
        """Leaf-entry signature for an object with the given distinct terms."""
        return b""

    def subtree_signature(
        self, level: int, entries: Sequence[NodeEntry], subtree_terms
    ) -> bytes:
        """Bulk-load fast path: parent-entry signature for a child given
        the (already known) union of distinct terms in its subtree.

        Must equal what :meth:`entry_signature_for_child` would compute by
        walking the stored subtree; the bulk loader uses it to avoid
        re-reading objects during construction.
        """
        return b""


#: Alias emphasizing intent at call sites building plain R-Trees.
NoSignatures = SignatureScheme

#: A maintenance path step: ``(node_id, level, entries, child_index)``, the
#: entries a mutable copy, the index the slot taken below (-1 at the end).
PathStep = tuple[int, int, list[NodeEntry], int]


class RTree:
    """Height-balanced disk-resident R-Tree.

    Args:
        pages: page store holding the node images.
        dims: spatial dimensionality.
        capacity: maximum entries per node; derived from the block size
            when omitted (113 for 4 KB blocks in 2-D, as in the paper).
        min_fill_ratio: minimum node fill as a fraction of capacity.
        split_strategy: overflow splitting algorithm (quadratic by default,
            as in the paper).
        scheme: signature sizing/propagation policy (none by default).
        node_intern: map from node images to their decoded entries
            (:mod:`repro.storage.intern`).  Engines pass one map shared
            by all their trees and copies; trees given none share
            :attr:`node_intern` of the class.
    """

    #: Decoded node images of trees constructed without a map of their
    #: own.  Content-addressed, so any trees may share it.
    node_intern: Intern[tuple[int, bytes], DecodedNode] = Intern()

    def __init__(
        self,
        pages: PageStore,
        dims: int = 2,
        capacity: int | None = None,
        min_fill_ratio: float = DEFAULT_MIN_FILL_RATIO,
        split_strategy: SplitStrategy | None = None,
        scheme: SignatureScheme | None = None,
        node_intern: Intern[tuple[int, bytes], DecodedNode] | None = None,
    ) -> None:
        self.pages = pages
        if node_intern is not None:
            self.node_intern = node_intern
        self.dims = dims
        if capacity is None:
            capacity = node_capacity(pages.device.block_size, dims)
        if capacity < 2:
            raise TreeInvariantError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.min_fill = max(1, min(capacity // 2, int(capacity * min_fill_ratio)))
        self.split_strategy = split_strategy or QuadraticSplit()
        self.scheme = scheme or NoSignatures()
        self.height = 1
        self.size = 0  # number of object entries
        # Bulk loading may leave trailing nodes below min_fill (legal for
        # packed trees); validate() relaxes the fill check when set.
        self.bulk_loaded = False
        self.root_id = pages.new_node_id()
        self.store_node(self.root_id, 0, [])

    # ------------------------------------------------------------------ I/O --

    def read_decoded(self, node_id: int) -> DecodedNode:
        """The paper's ``LoadNode``: read one node (counted I/O) as its
        interned :class:`DecodedNode`.

        The image is always read (and charged); only its decode goes
        through :attr:`node_intern`, keyed by ``dims`` and the image
        bytes, so a byte-identical image is decoded once and its slices
        are shared by every later read.  A miss checks every entry's MBR
        (``lo <= hi``) before the image is added, so an image with an
        inverted MBR is never interned and each read of it raises
        ``ValueError``.  The node-id check runs on every read.
        """
        image = self.pages.read(node_id)
        key = (self.dims, image)
        decoded = self.node_intern.get(key)
        if decoded is None:
            decoded = self.node_intern.add(
                key, decode_entries(image, self.dims), NODE_INTERN_CAPACITY
            )
        return _checked(decoded, node_id)

    def store_node(
        self, node_id: int, level: int, entries: Sequence[NodeEntry]
    ) -> None:
        """The paper's ``StoreNode``: encode and write one node (counted I/O)."""
        sig_len = self.scheme.length_for_level(level)
        for _ref, _coords, signature in entries:
            if len(signature) != sig_len:
                raise TreeInvariantError(
                    f"entry signature is {len(signature)} bytes at level "
                    f"{level}, scheme expects {sig_len}"
                )
        image = encode_node(node_id, level, level == 0, self.dims, sig_len, entries)
        # Reserve the full-capacity footprint so node updates are in
        # place and sizes match the paper's capacity-derived node blocks.
        self.pages.write(node_id, image, reserve_blocks=self.blocks_per_node_at(level))

    def _parent_entry(
        self, node_id: int, level: int, entries: Sequence[NodeEntry]
    ) -> NodeEntry:
        """The entry a parent keeps for a child: its id, MBR and signature."""
        return (
            node_id,
            coords_union_all(coords for _ref, coords, _sig in entries),
            self.scheme.entry_signature_for_child(self, level, entries),
        )

    # --------------------------------------------------------------- Insert --

    def insert(self, obj_ptr: int, rect: Rect, signature: bytes = b"") -> None:
        """Insert an object entry (the paper's Figure 5).

        Args:
            obj_ptr: object pointer stored in the leaf entry.
            rect: the object's MBR (degenerate for points).
            signature: the object's signature at the leaf level's length.
        """
        if rect.dims != self.dims:
            raise TreeInvariantError(
                f"rect dimensionality {rect.dims} != tree dimensionality {self.dims}"
            )
        self._insert_entry((obj_ptr, rect.to_coords(), signature), 0)
        self.size += 1

    def _insert_entry(self, entry: NodeEntry, target_level: int) -> None:
        """Insert ``entry`` into a node at ``target_level`` and adjust upward."""
        path = self._choose_path(entry[1], target_level)
        node_id, level, entries, _ = path[-1]
        entries.append(entry)
        split = self._split_if_needed(level, entries)
        self.store_node(node_id, level, entries)
        if split is not None:
            self.store_node(split[0], level, split[1])
        self._adjust_tree(path, split)

    def _choose_path(
        self, coords: Sequence[float], target_level: int
    ) -> list[PathStep]:
        """Descend by least enlargement to a node at ``target_level``.

        Returns the root-to-target path; each step's child index is the
        slot taken there (-1 for the target).
        """
        node = self.read_decoded(self.root_id)
        if target_level > node.level:
            raise TreeInvariantError(
                f"cannot insert at level {target_level}: tree height {self.height}"
            )
        path: list[PathStep] = []
        while node.level > target_level:
            index = _choose_subtree(node.entries, coords)
            path.append((node.node_id, node.level, list(node.entries), index))
            node = self.read_decoded(node.entries[index][0])
        path.append((node.node_id, node.level, list(node.entries), -1))
        return path

    def _split_if_needed(
        self, level: int, entries: list[NodeEntry]
    ) -> tuple[int, list[NodeEntry]] | None:
        """Split an overfull node in place; return the sibling's (id, entries)."""
        if len(entries) <= self.capacity:
            return None
        group_a, group_b = self.split_strategy.split(entries, self.min_fill)
        entries[:] = group_a
        return self.pages.new_node_id(), group_b

    def _adjust_tree(
        self, path: list[PathStep], split: tuple[int, list[NodeEntry]] | None
    ) -> None:
        """AdjustTree: refresh parent MBRs/signatures, propagate splits.

        As in Section IV, "the updating of the signatures throughout a node
        and its ancestors is being done at the same time the tree would
        normally update the MBR" — both ride the same upward pass.
        """
        child_id, level, child_entries, _ = path[-1]
        for parent_id, parent_level, parent_entries, index in reversed(path[:-1]):
            parent_entries[index] = self._parent_entry(child_id, level, child_entries)
            if split is not None:
                parent_entries.append(self._parent_entry(split[0], level, split[1]))
            split = self._split_if_needed(parent_level, parent_entries)
            self.store_node(parent_id, parent_level, parent_entries)
            if split is not None:
                self.store_node(split[0], parent_level, split[1])
            child_id, level, child_entries = parent_id, parent_level, parent_entries
        if split is not None:
            self._grow_root(level, (child_id, child_entries), split)

    def _grow_root(self, level: int, *halves: tuple[int, list[NodeEntry]]) -> None:
        """Handle a root split: create a new root referencing both halves."""
        new_root_id = self.pages.new_node_id()
        entries = [self._parent_entry(node_id, level, half) for node_id, half in halves]
        self.store_node(new_root_id, level + 1, entries)
        self.root_id = new_root_id
        self.height += 1

    # --------------------------------------------------------------- Delete --

    def delete(self, obj_ptr: int, rect: Rect) -> bool:
        """Delete an object entry (the paper's Figure 6).

        Finds the leaf containing the entry (FindLeaf), removes it, then
        condenses the tree: underfull nodes are dissolved and their entries
        re-inserted at their original level, and signatures/MBRs of the
        remaining ancestors are refreshed.

        Returns:
            True when the entry was found and removed, False otherwise
            (the paper's algorithm "stops" when no leaf contains T).
        """
        coords = rect.to_coords()
        trail = self._find_leaf(self.read_decoded(self.root_id), obj_ptr, coords, [])
        if trail is None:
            return False
        path = [(node.node_id, node.level, list(node.entries), i) for node, i in trail]
        leaf = path[-1][2]
        leaf[:] = [e for e in leaf if not (e[0] == obj_ptr and e[1] == coords)]
        self._condense_tree(path)
        self.size -= 1
        return True

    def _find_leaf(
        self,
        node: DecodedNode,
        obj_ptr: int,
        coords: tuple[float, ...],
        trail: list[tuple[DecodedNode, int]],
    ) -> list[tuple[DecodedNode, int]] | None:
        """FindLeaf: DFS over subtrees whose MBR contains ``coords``."""
        if node.level == 0:
            if any(ref == obj_ptr and box == coords for ref, box, _sig in node.entries):
                return trail + [(node, -1)]
            return None
        for index, (ref, box, _sig) in enumerate(node.entries):
            if coords_contain(box, coords):
                found = self._find_leaf(
                    self.read_decoded(ref), obj_ptr, coords, trail + [(node, index)]
                )
                if found is not None:
                    return found
        return None

    def _condense_tree(self, path: list[PathStep]) -> None:
        """CondenseTree with signature maintenance (Section IV).

        Underfull non-root nodes are removed and their entries queued for
        re-insertion at their original level; surviving ancestors get their
        MBR and signature refreshed exactly as AdjustTree would.
        """
        orphans: list[tuple[NodeEntry, int]] = []  # (entry, level it lived at)
        node_id, level, entries, _ = path[-1]
        for parent_id, parent_level, parent_entries, index in reversed(path[:-1]):
            if len(entries) < self.min_fill:
                orphans.extend((entry, level) for entry in entries)
                del parent_entries[index]
                self.pages.delete(node_id)
            else:
                parent_entries[index] = self._parent_entry(node_id, level, entries)
                self.store_node(node_id, level, entries)
            node_id, level, entries = parent_id, parent_level, parent_entries
        # ``node_id`` is now the root.
        self.store_node(node_id, level, entries)
        for entry, entry_level in sorted(orphans, key=lambda pair: pair[1]):
            self._insert_entry(entry, entry_level)
        self._shrink_root()

    def _shrink_root(self) -> None:
        """Collapse a non-leaf root with a single child."""
        root = self.read_decoded(self.root_id)
        while root.level > 0 and len(root.entries) == 1:
            child_id = root.entries[0][0]
            self.pages.delete(root.node_id)
            self.root_id = child_id
            self.height -= 1
            root = self.read_decoded(child_id)

    # --------------------------------------------------------------- Search --

    def search(self, rect: Rect) -> Iterator[NodeEntry]:
        """Range query: yield leaf entries whose MBR intersects ``rect``."""
        target = rect.to_coords()
        stack = [self.root_id]
        while stack:
            node = self.read_decoded(stack.pop())
            for entry in node.entries:
                if coords_intersect(entry[1], target):
                    if node.level == 0:
                        yield entry
                    else:
                        stack.append(entry[0])

    # ---------------------------------------------------------- Introspection --

    def iter_nodes(self) -> Iterator[DecodedNode]:
        """Yield every node (uncounted reads; for validation and stats)."""
        stack = [self.root_id]
        while stack:
            node = self._load_uncounted(stack.pop())
            yield node
            if node.level > 0:
                stack.extend(ref for ref, _coords, _sig in node.entries)

    def iter_leaf_entries(self) -> Iterator[NodeEntry]:
        """Yield every object entry in the tree (uncounted reads)."""
        for node in self.iter_nodes():
            if node.level == 0:
                yield from node.entries

    def _load_uncounted(self, node_id: int) -> DecodedNode:
        """Load a node off the books (validation and statistics only).

        Decodes the extent's raw bytes: no device, collector or trace
        sees the read, no shared-read session serves it, and the node
        intern is left as the queries filled it.
        """
        image = self.pages.read_uncounted(node_id)
        return _checked(decode_entries(image, self.dims), node_id)

    def node_count(self) -> int:
        """Number of nodes currently in the tree."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def size_bytes(self) -> int:
        """On-disk footprint of the tree in bytes."""
        return self.pages.size_bytes

    def blocks_per_node_at(self, level: int) -> int:
        """Blocks a (full) node at ``level`` occupies under the scheme."""
        return blocks_per_node(
            self.pages.device.block_size,
            self.capacity,
            self.dims,
            self.scheme.length_for_level(level),
        )

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TreeInvariantError`.

        Verifies: uniform leaf depth, entry counts within [min_fill,
        capacity] (root exempt from the minimum), and that each parent
        entry's MBR is exactly its child's MBR.
        """
        root = self._load_uncounted(self.root_id)
        expected_level = self.height - 1
        if root.level != expected_level:
            raise TreeInvariantError(
                f"root level {root.level} != height-1 ({expected_level})"
            )
        count = self._validate_node(root, is_root=True)
        if count != self.size:
            raise TreeInvariantError(f"tree says size={self.size}, found {count}")

    def _validate_node(self, node: DecodedNode, is_root: bool) -> int:
        if len(node.entries) > self.capacity:
            raise TreeInvariantError(
                f"node {node.node_id} overfull: {len(node.entries)}"
            )
        min_allowed = 1 if self.bulk_loaded else self.min_fill
        if not is_root and len(node.entries) < min_allowed:
            raise TreeInvariantError(
                f"node {node.node_id} underfull: {len(node.entries)}"
            )
        if node.level == 0:
            return len(node.entries)
        total = 0
        for ref, coords, _sig in node.entries:
            child = self._load_uncounted(ref)
            if child.level != node.level - 1:
                raise TreeInvariantError(
                    f"child {child.node_id} level {child.level} under node "
                    f"level {node.level}"
                )
            child_mbr = coords_union_all(c for _ref, c, _sig in child.entries)
            if not coords_contain(coords, child_mbr):
                raise TreeInvariantError(
                    f"entry MBR does not contain child {child.node_id} MBR"
                )
            if coords != child_mbr:
                # Not fatal (rect may be slack after deletes in some R-Tree
                # variants) but in this implementation MBRs are kept tight.
                raise TreeInvariantError(
                    f"entry MBR for child {child.node_id} is not tight"
                )
            total += self._validate_node(child, is_root=False)
        return total


def _choose_subtree(entries: Sequence[NodeEntry], coords: Sequence[float]) -> int:
    """Guttman's ChooseLeaf criterion: least enlargement, then least area."""
    best_index = 0
    best_key = (float("inf"), float("inf"))
    for i, (_ref, entry_coords, _sig) in enumerate(entries):
        key = (coords_enlargement(entry_coords, coords), coords_area(entry_coords))
        if key < best_key:
            best_key = key
            best_index = i
    return best_index


def _checked(decoded: DecodedNode, node_id: int) -> DecodedNode:
    """``decoded``, once its image is shown to be node ``node_id``'s."""
    if decoded.node_id != node_id:
        raise TreeInvariantError(
            f"node id mismatch: asked {node_id}, image says {decoded.node_id}"
        )
    return decoded


def build_from_layout(
    pages: PageStore,
    layout,
    dims: int = 2,
    capacity: int = 4,
    scheme: SignatureScheme | None = None,
    tree: "RTree | None" = None,
) -> tuple[RTree, dict[str, int]]:
    """Construct a tree with an explicit, paper-given node structure.

    Used to reproduce the exact R-Tree of the paper's Figure 2 so the
    worked Examples 1 and 3 can be asserted trace-for-trace.

    Args:
        pages: destination page store.
        layout: nested structure.  A leaf is
            ``(name, [(obj_ptr, rect, signature_bytes), ...])``; an internal
            node is ``(name, [child_layout, ...])``.
        dims: spatial dimensionality.
        capacity: node capacity for the constructed tree.
        scheme: signature scheme used to compute parent-entry signatures.
        tree: optional pre-constructed *empty* tree (e.g. an
            :class:`~repro.core.ir2tree.IR2Tree`) whose structure should be
            replaced by the layout; built fresh over ``pages`` when omitted.

    Returns:
        ``(tree, name_to_node_id)`` so tests can refer to nodes by the
        paper's names (N1, N2, ...).
    """
    if tree is None:
        tree = RTree(pages, dims=dims, capacity=capacity, scheme=scheme)
    pages.delete(tree.root_id)  # discard the empty bootstrap root
    names: dict[str, int] = {}

    def build(spec) -> tuple[int, int, list[NodeEntry]]:
        """Store the node ``spec`` describes; return its ``(id, level, entries)``."""
        name, children = spec
        if children and isinstance(children[0], tuple) and isinstance(
            children[0][0], str
        ):
            child_nodes = [build(child) for child in children]
            level = child_nodes[0][1] + 1
            node_id = pages.new_node_id()
            entries = [tree._parent_entry(*child) for child in child_nodes]
        else:
            level = 0
            node_id = pages.new_node_id()
            entries = [(ref, rect.to_coords(), sig) for ref, rect, sig in children]
        tree.store_node(node_id, level, entries)
        names[name] = node_id
        return node_id, level, entries

    root_id, root_level, _ = build(layout)
    tree.root_id = root_id
    tree.height = root_level + 1
    tree.size = sum(1 for _ in tree.iter_leaf_entries())
    return tree, names
