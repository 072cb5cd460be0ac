"""Disk-resident R-Tree [Gut84] with pluggable per-entry signatures.

This is the paper's base structure (Section III / Figure 2) implemented
from scratch: ChooseLeaf descends by least MBR enlargement, overflow is
resolved by the quadratic split, AdjustTree propagates MBR changes upward,
and Delete condenses underfull nodes and re-inserts orphaned entries, all
through a :class:`~repro.storage.pagestore.PageStore` so every node touch
is a counted disk access.

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

from dataclasses import dataclass, field
from operator import gt
from typing import Callable, Iterator, Sequence

from repro.errors import TreeInvariantError
from repro.spatial.geometry import Rect
from repro.spatial.split import QuadraticSplit, SplitStrategy
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
    ``sig_len`` signature bytes.  The query traversals work on these
    directly, with no :class:`Entry`, :class:`Rect` or signature object
    per entry, and test signatures only through :meth:`survivors`;
    :meth:`RTree.load_node` wraps the entries for maintenance.

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


@dataclass
class Entry:
    """One slot of a tree node.

    Attributes:
        child_ref: node id (internal nodes) or object pointer (leaves).
        rect: MBR of the child subtree or of the object.
        signature: superimposed-coding signature bytes summarizing the
            textual content below this entry (empty for plain R-Trees).
    """

    child_ref: int
    rect: Rect
    signature: bytes = b""


@dataclass
class Node:
    """One tree node: an id, a level (0 = leaf) and up to ``capacity`` entries."""

    node_id: int
    level: int
    entries: list[Entry] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes, whose entries reference objects."""
        return self.level == 0

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        return Rect.union_all(entry.rect for entry in self.entries)

    def or_signature(self) -> bytes:
        """Bitwise OR (superimposition) of all entry signatures."""
        if not self.entries:
            return b""
        acc = 0
        for entry in self.entries:
            acc |= int.from_bytes(entry.signature, "little")
        return acc.to_bytes(len(self.entries[0].signature), "little")


class SignatureScheme:
    """How signatures are sized and propagated up the tree.

    The base implementation is the *no signature* scheme used by the plain
    R-Tree: zero-length signatures everywhere.
    """

    def length_for_level(self, level: int) -> int:
        """Signature length in bytes for entries stored at ``level``."""
        return 0

    def entry_signature_for_child(self, tree: "RTree", child: Node) -> bytes:
        """Signature for a parent entry referencing ``child``.

        Called during AdjustTree whenever a child changed; the returned
        bytes must have length ``length_for_level(child.level + 1)``.
        """
        return b""

    def object_signature(self, terms) -> bytes:
        """Leaf-entry signature for an object with the given distinct terms."""
        return b""

    def subtree_signature(self, child: Node, subtree_terms) -> bytes:
        """Bulk-load fast path: parent-entry signature for ``child`` given
        the (already known) union of distinct terms in its subtree.

        Must equal what :meth:`entry_signature_for_child` would compute by
        walking the stored subtree; the bulk loader uses it to avoid
        re-reading objects during construction.
        """
        return b""


#: Alias emphasizing intent at call sites building plain R-Trees.
NoSignatures = SignatureScheme


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
        root = Node(pages.new_node_id(), level=0)
        self.root_id = root.node_id
        self.store_node(root)

    # ------------------------------------------------------------------ I/O --

    def read_decoded(self, node_id: int) -> DecodedNode:
        """Read one node (counted I/O) as its interned :class:`DecodedNode`.

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

    def load_node(self, node_id: int) -> Node:
        """The paper's ``LoadNode``: read and decode one node (counted I/O)."""
        return _as_node(self.read_decoded(node_id))

    def store_node(self, node: Node) -> None:
        """The paper's ``StoreNode``: encode and write one node (counted I/O)."""
        sig_len = self.scheme.length_for_level(node.level)
        raw_entries = []
        for entry in node.entries:
            if len(entry.signature) != sig_len:
                raise TreeInvariantError(
                    f"entry signature is {len(entry.signature)} bytes at level "
                    f"{node.level}, scheme expects {sig_len}"
                )
            raw_entries.append((entry.child_ref, entry.rect.to_coords(), entry.signature))
        image = encode_node(
            node.node_id, node.level, node.is_leaf, self.dims, sig_len, raw_entries
        )
        # Reserve the full-capacity footprint so node updates are in
        # place and sizes match the paper's capacity-derived node blocks.
        self.pages.write(
            node.node_id, image, reserve_blocks=self.blocks_per_node_at(node.level)
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
        self._insert_entry(Entry(obj_ptr, rect, signature), 0)
        self.size += 1

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        """Insert ``entry`` into a node at ``target_level`` and adjust upward."""
        path = self._choose_path(entry.rect, target_level)
        node, _ = path[-1]
        node.entries.append(entry)
        split_node = self._split_if_needed(node)
        self.store_node(node)
        if split_node is not None:
            self.store_node(split_node)
        self._adjust_tree(path, split_node)

    def _choose_path(self, rect: Rect, target_level: int) -> list[tuple[Node, int]]:
        """Descend by least enlargement to a node at ``target_level``.

        Returns the root-to-target path as ``(node, child_index)`` pairs;
        the child index is the slot taken at each step (-1 for the target).
        """
        node = self.load_node(self.root_id)
        if target_level > node.level:
            raise TreeInvariantError(
                f"cannot insert at level {target_level}: tree height {self.height}"
            )
        path: list[tuple[Node, int]] = []
        while node.level > target_level:
            index = self._choose_subtree(node, rect)
            path.append((node, index))
            node = self.load_node(node.entries[index].child_ref)
        path.append((node, -1))
        return path

    @staticmethod
    def _choose_subtree(node: Node, rect: Rect) -> int:
        """Guttman's ChooseLeaf criterion: least enlargement, then least area."""
        best_index = 0
        best_key = (float("inf"), float("inf"))
        for i, entry in enumerate(node.entries):
            key = (entry.rect.enlargement(rect), entry.rect.area())
            if key < best_key:
                best_key = key
                best_index = i
        return best_index

    def _split_if_needed(self, node: Node) -> Node | None:
        """Split an overfull node; return the new sibling (or None)."""
        if len(node.entries) <= self.capacity:
            return None
        group_a, group_b = self.split_strategy.split(node.entries, self.min_fill)
        node.entries = group_a
        sibling = Node(self.pages.new_node_id(), node.level, group_b)
        return sibling

    def _adjust_tree(
        self, path: list[tuple[Node, int]], split_node: Node | None
    ) -> None:
        """AdjustTree: refresh parent MBRs/signatures, propagate splits.

        As in Section IV, "the updating of the signatures throughout a node
        and its ancestors is being done at the same time the tree would
        normally update the MBR" — both ride the same upward pass.
        """
        child, _ = path[-1]
        for parent, child_index in reversed(path[:-1]):
            entry = parent.entries[child_index]
            entry.rect = child.mbr()
            entry.signature = self.scheme.entry_signature_for_child(self, child)
            if split_node is not None:
                parent.entries.append(
                    Entry(
                        split_node.node_id,
                        split_node.mbr(),
                        self.scheme.entry_signature_for_child(self, split_node),
                    )
                )
            split_node = self._split_if_needed(parent)
            self.store_node(parent)
            if split_node is not None:
                self.store_node(split_node)
            child = parent
        if split_node is not None:
            self._grow_root(child, split_node)

    def _grow_root(self, old_root: Node, sibling: Node) -> None:
        """Handle a root split: create a new root referencing both halves."""
        new_root = Node(self.pages.new_node_id(), old_root.level + 1)
        new_root.entries = [
            Entry(
                old_root.node_id,
                old_root.mbr(),
                self.scheme.entry_signature_for_child(self, old_root),
            ),
            Entry(
                sibling.node_id,
                sibling.mbr(),
                self.scheme.entry_signature_for_child(self, sibling),
            ),
        ]
        self.store_node(new_root)
        self.root_id = new_root.node_id
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
        root = self.load_node(self.root_id)
        path = self._find_leaf(root, obj_ptr, rect, [])
        if path is None:
            return False
        leaf, _ = path[-1]
        leaf.entries = [
            e for e in leaf.entries if not (e.child_ref == obj_ptr and e.rect == rect)
        ]
        self._condense_tree(path)
        self.size -= 1
        return True

    def _find_leaf(
        self,
        node: Node,
        obj_ptr: int,
        rect: Rect,
        trail: list[tuple[Node, int]],
    ) -> list[tuple[Node, int]] | None:
        """FindLeaf: DFS over subtrees whose MBR contains ``rect``."""
        if node.is_leaf:
            for entry in node.entries:
                if entry.child_ref == obj_ptr and entry.rect == rect:
                    return trail + [(node, -1)]
            return None
        for index, entry in enumerate(node.entries):
            if entry.rect.contains_rect(rect):
                child = self.load_node(entry.child_ref)
                found = self._find_leaf(child, obj_ptr, rect, trail + [(node, index)])
                if found is not None:
                    return found
        return None

    def _condense_tree(self, path: list[tuple[Node, int]]) -> None:
        """CondenseTree with signature maintenance (Section IV).

        Underfull non-root nodes are removed and their entries queued for
        re-insertion at their original level; surviving ancestors get their
        MBR and signature refreshed exactly as AdjustTree would.
        """
        orphans: list[tuple[Entry, int]] = []  # (entry, level it lived at)
        node, _ = path[-1]
        for parent, child_index in reversed(path[:-1]):
            if len(node.entries) < self.min_fill:
                for entry in node.entries:
                    orphans.append((entry, node.level))
                del parent.entries[child_index]
                self.pages.delete(node.node_id)
            else:
                entry = parent.entries[child_index]
                entry.rect = node.mbr()
                entry.signature = self.scheme.entry_signature_for_child(self, node)
                self.store_node(node)
            node = parent
        # ``node`` is now the root.
        self.store_node(node)
        for entry, level in sorted(orphans, key=lambda pair: pair[1]):
            self._insert_entry(entry, level)
        self._shrink_root()

    def _shrink_root(self) -> None:
        """Collapse a non-leaf root with a single child."""
        root = self.load_node(self.root_id)
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].child_ref
            self.pages.delete(root.node_id)
            self.root_id = child_id
            self.height -= 1
            root = self.load_node(child_id)

    # --------------------------------------------------------------- Search --

    def search(self, rect: Rect) -> Iterator[Entry]:
        """Range query: yield leaf entries whose MBR intersects ``rect``."""
        stack = [self.root_id]
        while stack:
            node = self.load_node(stack.pop())
            for entry in node.entries:
                if entry.rect.intersects(rect):
                    if node.is_leaf:
                        yield entry
                    else:
                        stack.append(entry.child_ref)

    # ---------------------------------------------------------- Introspection --

    def iter_nodes(self) -> Iterator[Node]:
        """Yield every node (uncounted reads; for validation and stats)."""
        stack = [self.root_id]
        while stack:
            node = self._load_uncounted(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(entry.child_ref for entry in node.entries)

    def iter_leaf_entries(self) -> Iterator[Entry]:
        """Yield every object entry in the tree (uncounted reads)."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.entries

    def _load_uncounted(self, node_id: int) -> Node:
        """Load a node off the books (validation and statistics only).

        Decodes the extent's raw bytes: no device, collector or trace
        sees the read, no shared-read session serves it, and the node
        intern is left as the queries filled it.
        """
        image = self.pages.read_uncounted(node_id)
        return _as_node(_checked(decode_entries(image, self.dims), node_id))

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

    def validate(self, resolve_signature: Callable[[Entry], bytes] | None = None) -> None:
        """Check structural invariants; raise :class:`TreeInvariantError`.

        Verifies: uniform leaf depth, entry counts within [min_fill,
        capacity] (root exempt from the minimum), parent MBR containment,
        and — when the scheme uses signatures — that each parent entry's
        signature covers (bitwise includes) its child's superimposition.
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

    def _validate_node(self, node: Node, is_root: bool) -> int:
        if len(node.entries) > self.capacity:
            raise TreeInvariantError(
                f"node {node.node_id} overfull: {len(node.entries)}"
            )
        min_allowed = 1 if self.bulk_loaded else self.min_fill
        if not is_root and len(node.entries) < min_allowed:
            raise TreeInvariantError(
                f"node {node.node_id} underfull: {len(node.entries)}"
            )
        if node.is_leaf:
            return len(node.entries)
        total = 0
        for entry in node.entries:
            child = self._load_uncounted(entry.child_ref)
            if child.level != node.level - 1:
                raise TreeInvariantError(
                    f"child {child.node_id} level {child.level} under node "
                    f"level {node.level}"
                )
            if not entry.rect.contains_rect(child.mbr()):
                raise TreeInvariantError(
                    f"entry MBR does not contain child {child.node_id} MBR"
                )
            if entry.rect != child.mbr():
                # Not fatal (rect may be slack after deletes in some R-Tree
                # variants) but in this implementation MBRs are kept tight.
                raise TreeInvariantError(
                    f"entry MBR for child {child.node_id} is not tight"
                )
            total += self._validate_node(child, is_root=False)
        return total


def _checked(decoded: DecodedNode, node_id: int) -> DecodedNode:
    """``decoded``, once its image is shown to be node ``node_id``'s."""
    if decoded.node_id != node_id:
        raise TreeInvariantError(
            f"node id mismatch: asked {node_id}, image says {decoded.node_id}"
        )
    return decoded


def _as_node(decoded: DecodedNode) -> Node:
    """Wrap a decoded image's entries as a maintenance :class:`Node`."""
    entries = [
        Entry(ref, Rect.from_coords(coords), signature)
        for ref, coords, signature in decoded.entries
    ]
    return Node(decoded.node_id, decoded.level, entries)


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

    def build(spec) -> Node:
        name, children = spec
        if children and isinstance(children[0], tuple) and isinstance(
            children[0][0], str
        ):
            child_nodes = [build(child) for child in children]
            level = child_nodes[0].level + 1
            node = Node(pages.new_node_id(), level)
            for child in child_nodes:
                node.entries.append(
                    Entry(
                        child.node_id,
                        child.mbr(),
                        tree.scheme.entry_signature_for_child(tree, child),
                    )
                )
        else:
            node = Node(pages.new_node_id(), 0)
            for obj_ptr, rect, sig in children:
                node.entries.append(Entry(obj_ptr, rect, sig))
        tree.store_node(node)
        names[name] = node.node_id
        return node

    root = build(layout)
    tree.root_id = root.node_id
    tree.height = root.level + 1
    tree.size = sum(1 for _ in tree.iter_leaf_entries())
    return tree, names
