"""Text rendering of query span trees: the ``repro trace`` cost report.

Turns a :class:`repro.obs.trace.Trace` into the per-query explanation
the paper's evaluation reasons in (Section VI): which tree levels were
visited and how hard the signatures pruned, how many candidate objects
were loaded and how many turned out to be false positives, and how the
block accesses split random/sequential — per span, plus a whole-query
attribution summary that reconciles with ``IOCounts``/``SearchCounters``.
"""

from __future__ import annotations

from repro.obs.trace import (
    EVT_BLOCK_READ,
    EVT_BLOCK_WRITE,
    EVT_NODE_READ,
    EVT_OBJECT_LOAD,
    EVT_OBJECT_VERIFY,
    EVT_SIG_PRUNE,
    PATTERN_SEQUENTIAL,
    Span,
    Trace,
)

#: Root-span annotations surfaced on the header line, in display order.
_HEADER_ATTRS = ("algorithm", "strategy", "keywords", "k", "cache", "worker")

#: Span annotations surfaced inline on tree rows, in display order.
_ROW_ATTRS = (
    "algorithm", "strategy", "shard", "cache", "pruned", "pruned_by_keywords",
    "failed", "degraded", "retries", "results_offered", "num_results", "error",
)


def summarize_events(spans) -> dict:
    """Aggregate the instant events of ``spans`` into cost counters.

    Returns a dict with:

    * ``levels`` — ``{tree_level: {"nodes": int, "pruned": int}}``;
    * ``objects_verified`` / ``false_positives`` — verification outcomes;
    * ``objects_loaded`` — logical objects materialized;
    * ``random_reads`` / ``sequential_reads`` / ``writes`` — block I/O.
    """
    levels: dict = {}
    summary = {
        "levels": levels,
        "objects_verified": 0,
        "false_positives": 0,
        "objects_loaded": 0,
        "random_reads": 0,
        "sequential_reads": 0,
        "writes": 0,
    }
    for span in spans:
        for event in span.events:
            if event.name == EVT_NODE_READ:
                bucket = levels.setdefault(
                    event.attrs.get("level", 0), {"nodes": 0, "pruned": 0}
                )
                bucket["nodes"] += 1
            elif event.name == EVT_SIG_PRUNE:
                bucket = levels.setdefault(
                    event.attrs.get("level", 0), {"nodes": 0, "pruned": 0}
                )
                bucket["pruned"] += 1
            elif event.name == EVT_OBJECT_VERIFY:
                summary["objects_verified"] += 1
                if event.attrs.get("false_positive"):
                    summary["false_positives"] += 1
            elif event.name == EVT_OBJECT_LOAD:
                summary["objects_loaded"] += event.attrs.get("count", 1)
            elif event.name == EVT_BLOCK_READ:
                if event.attrs.get("pattern") == PATTERN_SEQUENTIAL:
                    summary["sequential_reads"] += 1
                else:
                    summary["random_reads"] += 1
            elif event.name == EVT_BLOCK_WRITE:
                summary["writes"] += 1
    return summary


def attribution_lines(summary: dict) -> list[str]:
    """Human-readable cost lines for one event summary (may be empty)."""
    lines: list[str] = []
    for level in sorted(summary["levels"], reverse=True):
        bucket = summary["levels"][level]
        lines.append(
            f"level {level}: {bucket['nodes']} nodes visited, "
            f"{bucket['pruned']} entries pruned by signature"
        )
    if summary["objects_verified"] or summary["objects_loaded"]:
        lines.append(
            f"objects: {summary['objects_loaded']} loaded, "
            f"{summary['objects_verified']} verified, "
            f"{summary['false_positives']} false positives"
        )
    if summary["random_reads"] or summary["sequential_reads"]:
        lines.append(
            f"io: {summary['random_reads']} random + "
            f"{summary['sequential_reads']} sequential block reads"
        )
    return lines


def _format_attr(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(str(v) for v in value) + "]"
    return str(value)


_ZERO_HIDDEN = frozenset({"retries", "results_offered", "num_results"})


def _span_label(span: Span) -> str:
    parts = [f"{span.name} {span.duration_ms:.2f} ms"]
    for key in _ROW_ATTRS:
        if key in span.attrs:
            value = span.attrs[key]
            if value is False or value is None:
                continue
            if value == 0 and key in _ZERO_HIDDEN:
                continue
            parts.append(f"{key}={_format_attr(value)}")
    return "  ".join(parts)


def _render_span(
    trace: Trace, span: Span, prefix: str, is_last: bool, lines: list[str]
) -> None:
    connector = "└─ " if is_last else "├─ "
    lines.append(f"{prefix}{connector}{_span_label(span)}")
    child_prefix = prefix + ("   " if is_last else "│  ")
    detail = attribution_lines(summarize_events([span]))
    children = trace.children_of(span)
    for i, line in enumerate(detail):
        tail = "└· " if (i == len(detail) - 1 and not children) else "├· "
        lines.append(f"{child_prefix}{tail}{line}")
    for i, child in enumerate(children):
        _render_span(trace, child, child_prefix, i == len(children) - 1, lines)


def render_trace(trace: Trace) -> str:
    """Render one trace as a text tree with per-span cost attribution.

    Each span row shows its duration and key annotations; below it, its
    own instant events are summarized ("level 1: 14 nodes visited, ...").
    A final ``totals`` block aggregates attribution across the whole
    tree — the numbers that reconcile exactly with the execution's
    ``IOCounts`` and ``SearchCounters``.
    """
    root = trace.root
    if root is None:
        return f"trace {trace.trace_id}: <empty>"
    flags = []
    if trace.sampled:
        flags.append("sampled")
    if trace.slow:
        flags.append("slow")
    header = [
        f"trace {trace.trace_id}"
        + (f" ({', '.join(flags)})" if flags else "")
        + f"  {trace.duration_ms:.2f} ms"
    ]
    for key in _HEADER_ATTRS:
        if key in root.attrs:
            header.append(f"{key}={_format_attr(root.attrs[key])}")
    lines = ["  ".join(header)]
    _render_span(trace, root, "", True, lines)
    totals = attribution_lines(summarize_events(trace.spans))
    if totals:
        lines.append("totals:")
        lines.extend(f"  {line}" for line in totals)
    return "\n".join(lines)


def render_traces(traces) -> str:
    """Render many traces separated by blank lines."""
    return "\n\n".join(render_trace(trace) for trace in traces)
