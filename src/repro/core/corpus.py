"""Corpus: the shared object file plus corpus-wide text statistics.

One :class:`Corpus` per dataset holds the paper's plain-text object file
(Section VI) and the vocabulary statistics every index and the IR model
draw on.  All four index structures in a benchmark are built over the
*same* corpus, so object-file accesses are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.model import SpatialObject
from repro.storage.block import DEFAULT_BLOCK_SIZE, BlockDevice, InMemoryBlockDevice
from repro.storage.intern import Intern
from repro.storage.objectstore import ObjectStore
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.text.vocabulary import Vocabulary


@dataclass(frozen=True)
class CorpusStats:
    """The columns of the paper's Table 1 for one dataset."""

    size_mb: float
    total_objects: int
    avg_unique_words_per_object: float
    unique_words: int
    avg_blocks_per_object: float

    def row(self) -> tuple:
        """Values in Table 1 column order."""
        return (
            round(self.size_mb, 1),
            self.total_objects,
            round(self.avg_unique_words_per_object, 1),
            self.unique_words,
            round(self.avg_blocks_per_object, 2),
        )


class Corpus:
    """Object store + analyzer + vocabulary for one dataset.

    Args:
        analyzer: tokenizer shared by every index over this corpus.
        block_size: object-file block size (paper: 4 KB).
        device: custom backing device; an in-memory one by default.
    """

    def __init__(
        self,
        analyzer: Analyzer | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        device: BlockDevice | None = None,
    ) -> None:
        self.analyzer = analyzer or DEFAULT_ANALYZER
        self.device = device or InMemoryBlockDevice(block_size, name="objects")
        self.store = ObjectStore(self.device)
        self.vocabulary = Vocabulary()
        #: Decoded node images of every tree built over this corpus
        #: (:attr:`RTree.node_intern <repro.spatial.rtree.RTree.node_intern>`).
        self.node_intern: Intern = Intern()
        self._dims: int | None = None

    def share_interns(self, source: "Corpus") -> None:
        """Decode rows and node images through ``source``'s interns.

        Both maps are content-addressed, so a copy-on-write copy or a
        rebuild of ``source`` may share them: what it rewrites
        byte-identically decodes to the values already held.
        """
        self.store.intern = source.store.intern
        self.node_intern = source.node_intern

    # -- Population ---------------------------------------------------------------

    def add(self, obj: SpatialObject) -> int:
        """Append one object; returns its pointer (``ObjPtr``)."""
        if self._dims is None:
            self._dims = obj.dims
        elif obj.dims != self._dims:
            raise ValueError(
                f"object dimensionality {obj.dims} != corpus dimensionality {self._dims}"
            )
        pointer = self.store.append(obj)
        self.vocabulary.add_document(self.analyzer.terms(obj.text))
        return pointer

    def add_all(self, objects: Iterable[SpatialObject]) -> list[int]:
        """Append many objects; returns their pointers in order."""
        return [self.add(obj) for obj in objects]

    # -- Access --------------------------------------------------------------------

    @property
    def dims(self) -> int:
        """Spatial dimensionality (2 until the first object says otherwise)."""
        return self._dims if self._dims is not None else 2

    def __len__(self) -> int:
        return len(self.store)

    def term_resolver(self, pointer: int) -> set[str]:
        """Distinct terms of the object at ``pointer`` (counted load).

        This is the resolver handed to the MIR2-Tree's maintenance walks,
        so its object reads show up as disk accesses.
        """
        return self.analyzer.terms(self.store.load(pointer).text)

    def iter_items(self) -> Iterator[tuple[int, SpatialObject]]:
        """Yield ``(pointer, object)`` pairs without I/O accounting."""
        return self.store.iter_objects()

    def objects(self) -> Iterator[SpatialObject]:
        """Yield every live object (uncounted; for oracles and stats)."""
        for _, obj in self.store.iter_objects():
            yield obj

    # -- Statistics (Table 1) ----------------------------------------------------------

    def stats(self) -> CorpusStats:
        """Compute the dataset-details row of the paper's Table 1."""
        count = len(self.store)
        if count == 0:
            return CorpusStats(0.0, 0, 0.0, 0, 0.0)
        total_blocks = sum(
            self.store.blocks_for(pointer) for pointer, _ in self.store.iter_objects()
        )
        return CorpusStats(
            size_mb=self.store.size_mb,
            total_objects=count,
            avg_unique_words_per_object=(
                self.vocabulary.average_unique_words_per_document
            ),
            unique_words=self.vocabulary.unique_words,
            avg_blocks_per_object=total_blocks / count,
        )
