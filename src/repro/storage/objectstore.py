"""Object store: the plain-text object file.

Section VI: "The spatial objects are stored in a plain text file and the
leaf nodes of the tree data structures store pointers to the object
locations in the file."  This module reproduces that layout.  Objects are
tab-delimited rows (id, coordinates, document text) appended to a block
device; an object pointer (``ObjPtr``) is the byte offset of the row.

``LoadObject`` reads every block the row spans — one random access plus
sequential accesses for continuation blocks — and bumps the logical
``objects_loaded`` counter that Figures 11b/14b report as "object
accesses".  Table 1's "average # disk blocks per object" is exactly the
mean number of blocks such a load touches.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ObjectNotFoundError, SerializationError
from repro.model import SpatialObject
from repro.storage.block import BlockDevice
from repro.storage.intern import Intern

#: Row terminator; document text is sanitized so it cannot contain one.
_ROW_END = b"\n"

#: Category label for object-file accesses in IOStats.
OBJECT_CATEGORY = "object"

#: Decoded rows an object store's intern keeps; past it the oldest is dropped.
INTERN_CAPACITY = 4096


def encode_row(obj: SpatialObject) -> bytes:
    """Encode an object as one tab-delimited text row.

    Layout: ``oid <TAB> dims <TAB> c_0 <TAB> ... <TAB> c_{d-1} <TAB> text``.
    Tabs and newlines inside the document are replaced with spaces so the
    row remains a single line, matching the paper's plain-text file format.
    """
    clean_text = obj.text.replace("\t", " ").replace("\n", " ").replace("\r", " ")
    fields = [str(obj.oid), str(obj.dims)]
    fields.extend(repr(c) for c in obj.point)
    fields.append(clean_text)
    return "\t".join(fields).encode("utf-8") + _ROW_END


def decode_row(row: bytes) -> SpatialObject:
    """Parse one row produced by :func:`encode_row`."""
    try:
        text_row = row.rstrip(b"\n").decode("utf-8")
        fields = text_row.split("\t")
        oid = int(fields[0])
        dims = int(fields[1])
        point = tuple(float(c) for c in fields[2 : 2 + dims])
        text = fields[2 + dims] if len(fields) > 2 + dims else ""
        if len(point) != dims:
            raise ValueError(f"expected {dims} coordinates, got {len(point)}")
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        raise SerializationError(f"malformed object row: {exc}") from exc
    return SpatialObject(oid, point, text)


class ObjectStore:
    """Append-only tab-delimited object file with per-row byte pointers.

    Args:
        device: backing block device (its stats record object-file I/O).
    """

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self._end = 0  # byte offset one past the last row
        self._count = 0
        self._pointers: dict[int, int] = {}  # oid -> ObjPtr (for delete())
        #: Row bytes -> decoded object, shared across loads (and across
        #: store copies); see :mod:`repro.storage.intern`.
        self.intern: Intern[bytes, SpatialObject] = Intern()

    # -- Writing ---------------------------------------------------------------

    def append(self, obj: SpatialObject) -> int:
        """Append an object row; return its pointer (byte offset).

        The blocks the row spans are written through the device, so build
        I/O is counted (relevant for the maintenance experiments).
        """
        row = encode_row(obj)
        pointer = self._end
        self._write_bytes(pointer, row)
        self._end += len(row)
        self._count += 1
        self._pointers[obj.oid] = pointer
        return pointer

    def bulk_append(self, objects: Iterable[SpatialObject]) -> list[int]:
        """Append many objects; return their pointers in order."""
        return [self.append(obj) for obj in objects]

    def _write_bytes(self, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset`` via read-modify-write of blocks."""
        block_size = self.device.block_size
        first = offset // block_size
        last = (offset + len(data) - 1) // block_size
        pos = 0
        for block_id in range(first, last + 1):
            block_lo = block_id * block_size
            in_block_off = max(offset, block_lo) - block_lo
            take = min(block_size - in_block_off, len(data) - pos)
            if in_block_off == 0 and take == block_size:
                chunk = data[pos : pos + take]
            else:
                if block_id < self.device.num_blocks:
                    existing = bytearray(self.device._read_raw(block_id))
                else:
                    existing = bytearray(block_size)
                existing[in_block_off : in_block_off + take] = data[pos : pos + take]
                chunk = bytes(existing)
            self.device.write_block(block_id, chunk, OBJECT_CATEGORY)
            pos += take

    # -- Reading ----------------------------------------------------------------

    def load(self, pointer: int) -> SpatialObject:
        """The paper's ``LoadObject``: fetch the object at ``pointer``.

        Charges one block read per block the row spans (first random, rest
        sequential) and one logical object access.  The row is decoded
        through :attr:`intern`, so repeat loads return one shared object;
        the reads and the object access are charged either way.
        """
        if pointer < 0 or pointer >= self._end:
            raise ObjectNotFoundError(pointer)
        block_size = self.device.block_size
        row = bytearray()
        block_id = pointer // block_size
        in_block = pointer % block_size
        while True:
            block = self.device.read_block(block_id, OBJECT_CATEGORY)
            newline = block.find(_ROW_END, in_block)
            if newline >= 0:
                row.extend(block[in_block : newline + 1])
                break
            row.extend(block[in_block:])
            block_id += 1
            in_block = 0
            if block_id >= self.device.num_blocks:
                raise ObjectNotFoundError(pointer)
        self.device.stats.record_object_load()
        row = bytes(row)
        obj = self.intern.get(row)
        if obj is None:
            obj = self.intern.add(row, decode_row(row), INTERN_CAPACITY)
        if obj.oid not in self._pointers:
            raise ObjectNotFoundError(pointer)
        return obj

    def blocks_for(self, pointer: int) -> int:
        """Blocks a :meth:`load` of ``pointer`` touches (for Table 1 stats)."""
        row_len = self._row_length(pointer)
        block_size = self.device.block_size
        first = pointer // block_size
        last = (pointer + row_len - 1) // block_size
        return last - first + 1

    def _row_length(self, pointer: int) -> int:
        """Length in bytes of the row at ``pointer`` (uncounted scan)."""
        block_size = self.device.block_size
        block_id = pointer // block_size
        in_block = pointer % block_size
        length = 0
        while block_id < self.device.num_blocks:
            block = self.device._read_raw(block_id)
            newline = block.find(_ROW_END, in_block)
            if newline >= 0:
                return length + (newline - in_block) + 1
            length += block_size - in_block
            block_id += 1
            in_block = 0
        raise ObjectNotFoundError(pointer)

    # -- Maintenance ---------------------------------------------------------------

    def pointer_of(self, oid: int) -> int:
        """Pointer of the live object with identifier ``oid``."""
        pointer = self._pointers.get(oid)
        if pointer is None:
            raise ObjectNotFoundError(oid)
        return pointer

    def delete(self, oid: int) -> int:
        """Tombstone the object with identifier ``oid``; return its pointer.

        The row bytes remain in the file (append-only log); the pointer is
        simply forgotten, as the paper's Delete only removes the tree entry.
        """
        pointer = self._pointers.pop(oid, None)
        if pointer is None:
            raise ObjectNotFoundError(oid)
        self._count -= 1
        return pointer

    # -- Introspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def iter_objects(self) -> Iterator[tuple[int, SpatialObject]]:
        """Yield ``(pointer, object)`` pairs without I/O accounting.

        For offline statistics (Table 1) and dataset export only.
        """
        for oid in sorted(self._pointers):
            pointer = self._pointers[oid]
            yield pointer, self._load_uncounted(pointer)

    def _load_uncounted(self, pointer: int) -> SpatialObject:
        block_size = self.device.block_size
        row = bytearray()
        block_id = pointer // block_size
        in_block = pointer % block_size
        while block_id < self.device.num_blocks:
            block = self.device._read_raw(block_id)
            newline = block.find(_ROW_END, in_block)
            if newline >= 0:
                row.extend(block[in_block : newline + 1])
                return decode_row(bytes(row))
            row.extend(block[in_block:])
            block_id += 1
            in_block = 0
        raise ObjectNotFoundError(pointer)

    @property
    def size_bytes(self) -> int:
        """Bytes of row data written (excluding trailing block padding)."""
        return self._end

    @property
    def size_mb(self) -> float:
        """Size of the object file in megabytes."""
        return self.size_bytes / (1024 * 1024)
