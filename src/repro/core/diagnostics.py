"""Index diagnostics: signature saturation and false-positive estimates.

Section IV motivates the MIR2-Tree with a structural observation: "the
same signature length is used for all levels which leads to more false
positives in the higher levels, which have more 1's (since they are the
superimpositions of the lower levels)".  :func:`signature_saturation`
measures exactly that — the mean fraction of set bits per tree level —
and :func:`estimated_false_positive_rates` converts the fill into the
probability that a random ``m``-bit word signature is falsely covered.

On an IR2-Tree the fill climbs toward 1.0 at the root (upper levels prune
nothing); on an MIR2-Tree the per-level optimal lengths hold it near the
0.5 design point.  ``benchmarks/bench_ablation_saturation.py`` turns this
into a table, and the invariants are asserted in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spatial.rtree import RTree
from repro.text.signature import Signature


@dataclass(frozen=True)
class LevelSaturation:
    """Signature statistics of one tree level.

    Attributes:
        level: tree level (0 = leaves' entries, i.e. object signatures).
        nodes: nodes at this level.
        entries: entries across those nodes.
        signature_bits: signature width used at this level.
        mean_fill: mean fraction of set bits over the level's entries.
        max_fill: highest fill of any single entry.
    """

    level: int
    nodes: int
    entries: int
    signature_bits: int
    mean_fill: float
    max_fill: float


def signature_saturation(tree: RTree) -> list[LevelSaturation]:
    """Per-level signature fill of an IR2-/MIR2-Tree, leaves first.

    Uses uncounted reads (a diagnostic, not a query).  Levels with
    zero-length signatures (plain R-Trees) report zero fill.
    """
    per_level: dict[int, list[float]] = {}
    node_counts: dict[int, int] = {}
    widths: dict[int, int] = {}
    for node in tree.iter_nodes():
        node_counts[node.level] = node_counts.get(node.level, 0) + 1
        fills = per_level.setdefault(node.level, [])
        for _ref, _coords, signature in node.entries:
            width = len(signature) * 8
            widths[node.level] = width
            if width == 0:
                fills.append(0.0)
            else:
                fills.append(Signature.from_bytes(signature).weight() / width)
    report = []
    for level in sorted(per_level):
        fills = per_level[level]
        report.append(
            LevelSaturation(
                level=level,
                nodes=node_counts[level],
                entries=len(fills),
                signature_bits=widths.get(level, 0),
                mean_fill=sum(fills) / len(fills) if fills else 0.0,
                max_fill=max(fills) if fills else 0.0,
            )
        )
    return report


def estimated_false_positive_rates(
    tree: RTree, bits_per_word: int
) -> dict[int, float]:
    """Per-level probability a random word signature is falsely covered.

    With mean fill ``f`` and ``m`` bits per word, an unrelated word's
    bits are all covered with probability ``f ** m`` (the superimposed-
    coding false-drop model evaluated at the measured fill rather than
    the analytic expectation).
    """
    return {
        level.level: level.mean_fill**bits_per_word
        for level in signature_saturation(tree)
    }
