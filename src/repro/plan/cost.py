"""I/O cost model: price one query under each execution strategy.

Every estimator returns a :class:`CostEstimate` — expected random reads,
sequential reads, and object loads — which the planner scalarizes into
milliseconds with the same :class:`~repro.storage.timing.DriveModel` the
benchmarks report, so "cheapest plan" and "fastest simulated query" are
the same ordering.

The estimators mirror how each algorithm actually spends I/O:

* **IIO** (Section V.A, Figure 7): one random access per posting list
  plus a sequential access for every further block it spans — exact,
  because the lexicon records each list's byte extent — then one object
  load per expected intersection member.  An absent keyword
  short-circuits the whole conjunction at zero I/O, exactly like
  :meth:`~repro.text.inverted_index.InvertedIndex.retrieve_conjunction`.
* **Tree kinds** (Sections III-V): the distance-first search scans
  candidates in distance order until ``k`` true matches are found —
  about ``k / selectivity`` candidates.  A plain R-Tree loads every
  scanned candidate; signature-bearing trees load only true matches plus
  the false-positive fraction given by the [MC94] design formulas.  Node
  reads follow from the scanned fraction of leaves plus the root path.
* **SIG**: the signature file is always read end to end (sequential),
  then matches plus false positives are loaded and verified.

Every estimator takes the query's normalized keywords (``terms``, as
:meth:`~repro.text.analyzer.Analyzer.query_terms` gives them) from the
planner, which takes them from the engine that analyzed the query.

These are *estimates* under independence and uniformity assumptions; the
differential suite guarantees that a wrong pick can only cost I/O, never
answer correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.timing import DEFAULT_DRIVE, DriveModel

#: Ranked traversal explores by combined score instead of stopping at the
#: k-th distance; it inspects more of the tree than the distance-first
#: scan for the same k (Section V.C's "no modification" algorithm still
#: pays for the weaker stopping rule).
RANKED_SCAN_INFLATION = 1.5

#: Bulk-loaded nodes are filled to ~70% of capacity (builder default).
LEAF_FILL = 0.7


@dataclass(frozen=True)
class CostEstimate:
    """Expected I/O of answering one query with one strategy."""

    random_reads: float
    sequential_reads: float
    objects_loaded: float
    details: dict = field(default_factory=dict)

    def cost_ms(self, drive: DriveModel = DEFAULT_DRIVE) -> float:
        """Scalar cost: simulated drive time of the expected accesses."""
        return (
            self.random_reads * drive.random_access_ms
            + self.sequential_reads * drive.sequential_access_ms
        )

    def as_dict(self, drive: DriveModel = DEFAULT_DRIVE) -> dict:
        payload = {
            "random_reads": round(self.random_reads, 2),
            "sequential_reads": round(self.sequential_reads, 2),
            "objects_loaded": round(self.objects_loaded, 2),
            "cost_ms": round(self.cost_ms(drive), 4),
        }
        if self.details:
            payload["details"] = {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in self.details.items()
            }
        return payload


def _object_load_io(count: float, stats) -> tuple[float, float]:
    """(random, sequential) reads for ``count`` object-store loads."""
    blocks = max(1.0, stats.avg_blocks_per_object)
    return count, count * (blocks - 1.0)


def _expected_scan(query, stats, terms) -> tuple[float, float]:
    """(candidates scanned, selectivity) for a distance-first traversal.

    The traversal inspects candidates in distance order and stops once
    ``k`` true matches are drained, so it expects to touch about
    ``k / selectivity`` candidates.  For an area query the density grid
    refines this: objects inside the area come first (all of them are
    scanned if the area alone cannot fill ``k``), then the search widens
    outward at the global selectivity.
    """
    n = stats.document_count
    selectivity = stats.selectivity(terms)
    if n == 0:
        return 0.0, selectivity
    if selectivity <= 0.0:
        # Provably empty conjunction: the tree still descends wherever
        # node signatures (or plain MBBs) fail to prune; charge a full
        # scan and let the signature fp rate shrink the object loads.
        return float(n), 0.0
    scan = query.k / selectivity
    if query.area is not None:
        in_area = stats.area_count(query.area)
        if in_area is not None:
            expected_inside = in_area * selectivity
            if expected_inside >= query.k:
                scan = query.k / selectivity
            else:
                # Exhaust the area, then widen for the remainder.
                scan = in_area + (query.k - expected_inside) / selectivity
    return min(float(n), scan), selectivity


def estimate_iio(inverted, query, stats, terms) -> CostEstimate:
    """Price the inverted-index conjunction (Figure 7).

    ``inverted`` is the :class:`~repro.text.inverted_index.InvertedIndex`;
    its lexicon gives each posting list's exact byte extent without I/O.
    """
    block_size = inverted.device.block_size
    n = stats.document_count
    random_reads = sequential_reads = 0.0
    frequencies = [inverted.document_frequency(term) for term in terms]
    if min(frequencies, default=0) > 0:
        for term in terms:
            offset, length, _ = inverted._lexicon[term]
            first = offset // block_size
            last = (offset + length - 1) // block_size if length else first
            random_reads += 1.0
            sequential_reads += float(last - first)
        selectivity = stats.selectivity(terms)
        matches = n * selectivity
        load_random, load_sequential = _object_load_io(matches, stats)
        random_reads += load_random
        sequential_reads += load_sequential
        objects = matches
    else:
        # An absent keyword short-circuits before any list is read.
        selectivity = 0.0
        objects = 0.0
    return CostEstimate(
        random_reads,
        sequential_reads,
        objects,
        details={"selectivity": selectivity, "terms": len(terms)},
    )


def estimate_tree(index, query, stats, terms) -> CostEstimate:
    """Price a distance-first (or ranked) traversal of a tree index.

    ``index`` is any :class:`~repro.core.indexes._TreeIndex`; its
    ``_query_false_positive_rate`` hook supplies the signature design's
    query-level false-positive probability (1.0 for a plain R-Tree,
    which verifies every candidate).
    """
    n = stats.document_count
    if n == 0:
        return CostEstimate(0.0, 0.0, 0.0, details={"selectivity": 0.0})
    scan, selectivity = _expected_scan(query, stats, terms)
    fp_rate = index._query_false_positive_rate(len(terms), stats)
    if query.ranking is not None:
        scan = min(float(n), scan * RANKED_SCAN_INFLATION)
    # Candidate entries come from leaves; entries whose signature fails
    # are skipped without an object load.
    true_matches = min(float(query.k), n * selectivity)
    objects = true_matches + fp_rate * max(0.0, scan - true_matches)
    tree = index.tree
    leaf_fill = max(1.0, (tree.capacity or 1) * LEAF_FILL)
    height = max(1, tree.height)
    nodes = (height - 1) + scan / leaf_fill
    load_random, load_sequential = _object_load_io(objects, stats)
    return CostEstimate(
        nodes + load_random,
        load_sequential,
        objects,
        details={
            "selectivity": selectivity,
            "expected_scan": scan,
            "fp_rate": fp_rate,
            "nodes": nodes,
        },
    )


def estimate_signature_scan(sigfile, query, stats, terms) -> CostEstimate:
    """Price the sequential signature-file scan baseline."""
    from repro.text.sigdesign import false_positive_rate_for_query

    n = stats.document_count
    block_size = sigfile.device.block_size
    scan_blocks = max(1.0, sigfile.size_bytes / block_size) if n else 0.0
    selectivity = stats.selectivity(terms)
    fp_rate = false_positive_rate_for_query(
        sigfile.factory.length_bits,
        max(1, round(stats.avg_distinct_terms)),
        sigfile.factory.bits_per_word,
        max(1, len(terms)),
    )
    matches = n * selectivity
    objects = matches + fp_rate * max(0.0, n - matches)
    load_random, load_sequential = _object_load_io(objects, stats)
    return CostEstimate(
        (1.0 if scan_blocks else 0.0) + load_random,
        max(0.0, scan_blocks - 1.0) + load_sequential,
        objects,
        details={"selectivity": selectivity, "fp_rate": fp_rate},
    )
