"""Bounded, content-addressed intern maps: decode each distinct input once.

Reads re-decode inputs that have not changed: an object row loaded
again, a node image read again, a document's text tokenized again.  An
:class:`Intern` maps the input itself (row bytes, node image bytes,
text) to its decoded value, so a repeat costs one lookup.  Three maps
use it: the object store's row intern, the R-tree's node-image intern
and the analyzer's term-set memo.

The key is the whole input, so the map is content-addressed.  An input
that reads back different (a flipped bit, a rewritten node) is another
key and decodes, or fails, exactly as it would uncached; a failed decode
raises before anything is added, so nothing is ever cached for it.  That
also makes one map safe to share between structures whose contents may
differ, such as an engine and its copy-on-write copies.

Interning changes no I/O accounting.  The caller reads (and is charged
for) every block before it looks the bytes up; only the CPU work of
decoding byte-identical input is shared.
"""

from __future__ import annotations

import threading
from typing import Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class Intern(Generic[K, V]):
    """Bounded map from an input to its decoded value, oldest dropped first.

    Usage, with the decode at the call site (so a profiler still sees
    it and a failure propagates uncached)::

        value = intern.get(key)
        if value is None:
            value = intern.add(key, decode(key), CAPACITY)

    :meth:`get` takes no lock: a dict lookup is atomic under the
    interpreter lock, and every mutation happens under :attr:`_lock`.
    :meth:`add` is given the bound on each call, so each owner keeps its
    bound as a module constant.  Past the bound the oldest entry is
    dropped and counted in :attr:`dropped`.
    """

    __slots__ = ("dropped", "_rows", "_lock")

    def __init__(self) -> None:
        self.dropped = 0
        self._rows: dict[K, V] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, key: K) -> V | None:
        """The value held for ``key``, or ``None``."""
        return self._rows.get(key)

    def add(self, key: K, value: V, capacity: int) -> V:
        """Hold ``value`` for ``key``; return the value now held.

        When another thread added ``key`` first, its value is returned,
        so every caller shares one copy.  Entries past ``capacity`` are
        dropped oldest first, each counted in :attr:`dropped`.
        """
        with self._lock:
            rows = self._rows
            held = rows.get(key)
            if held is not None:
                return held
            while rows and len(rows) >= capacity:
                del rows[next(iter(rows))]
                self.dropped += 1
            rows[key] = value
        return value
