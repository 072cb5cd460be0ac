"""Simulated drive timing model.

The paper measured wall-clock execution times on a 74 GB, 10,000 RPM disk
drive (Section VI).  We cannot reproduce that hardware, but the paper itself
notes that execution time is "primarily proportional to the random access
numbers".  :class:`DriveModel` converts the block-access counts collected by
:class:`~repro.storage.iostats.IOCounts` into a *simulated* execution time
using constants typical of a 10k RPM drive:

* a random access pays an average seek plus half a rotation
  (~4.5 ms + 3 ms) and the transfer of one 4 KB block,
* a sequential access pays only the transfer time of one block at the
  drive's sustained rate.

Because the same constants apply to every algorithm, relative comparisons
(who wins, by what factor, where the crossovers fall) are preserved even
though absolute milliseconds differ from the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.iostats import IOCounts

#: Average seek time of a 10,000 RPM enterprise drive, in milliseconds.
DEFAULT_SEEK_MS = 4.5

#: Average rotational latency = half a revolution at 10,000 RPM (3 ms).
DEFAULT_ROTATION_MS = 3.0

#: Sustained transfer rate in MB/s; one 4 KB block then takes ~0.065 ms.
DEFAULT_TRANSFER_MB_PER_S = 60.0


@dataclass(frozen=True)
class DriveModel:
    """Cost model mapping block accesses to simulated milliseconds.

    Attributes:
        seek_ms: average head-seek time charged to each random access.
        rotation_ms: average rotational latency charged to each random
            access.
        transfer_mb_per_s: sustained sequential transfer rate; charged to
            every access (random or sequential) for moving the block itself.
        block_size: block size in bytes used to derive per-block transfer
            time.
    """

    seek_ms: float = DEFAULT_SEEK_MS
    rotation_ms: float = DEFAULT_ROTATION_MS
    transfer_mb_per_s: float = DEFAULT_TRANSFER_MB_PER_S
    block_size: int = 4096

    @property
    def random_access_ms(self) -> float:
        """Cost of one random block access (seek + rotation + transfer)."""
        return self.seek_ms + self.rotation_ms + self.transfer_ms

    @property
    def sequential_access_ms(self) -> float:
        """Cost of one sequential block access (transfer only)."""
        return self.transfer_ms

    @property
    def transfer_ms(self) -> float:
        """Time to move one block at the sustained transfer rate."""
        return self.block_size / (self.transfer_mb_per_s * 1e6) * 1e3

    def simulated_ms(self, io: IOCounts) -> float:
        """Simulated execution time in milliseconds for ``io``.

        Reads and writes are charged identically: the paper's disk-resident
        indexes write during maintenance and read during search, and a
        write's mechanical cost on a conventional drive matches a read's.
        """
        return (
            io.random_accesses * self.random_access_ms
            + io.sequential_accesses * self.sequential_access_ms
        )


#: Model used throughout the benchmarks unless overridden.
DEFAULT_DRIVE = DriveModel()
