"""Bridge running storage/engine state into a :class:`MetricsRegistry`.

The device layer keeps its own running state (:class:`IOStats` counters,
:class:`~repro.storage.cache.BufferPoolDevice` hit/miss tallies) — hot
paths should not pay a registry lookup per block access.  These helpers
publish that state into a registry *at snapshot time*: the serving layer
calls :func:`export_engine` from ``QueryService.stats()`` so every
metrics dump reflects the devices as of that instant.

Gauge names are ``storage.<device>.<metric>``; device names are
sanitized to dotted-path-safe tokens (``lru(ir2-index)`` becomes
``lru_ir2_index``).
"""

from __future__ import annotations

import re

from repro.obs.metrics import MetricsRegistry
from repro.storage.cache import BufferPoolDevice
from repro.storage.iostats import IOStats

_SANITIZE = re.compile(r"[^A-Za-z0-9_]+")


def metric_token(name: str) -> str:
    """A device/shard name reduced to a dotted-path-safe token."""
    token = _SANITIZE.sub("_", name).strip("_")
    return token or "device"


def _prometheus_name(raw: str, prefix: str) -> str:
    """A registry metric name as a Prometheus identifier.

    Dots (the registry's namespacing) and any other non-identifier
    characters become underscores; the shared prefix namespaces the
    whole exposition (``service.total_ms`` → ``repro_service_total_ms``).
    """
    name = _SANITIZE.sub("_", raw).strip("_")
    return f"{prefix}_{name}" if name else prefix


def _prometheus_number(value) -> str:
    """A sample value in exposition format (integers without ``.0``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text format.

    Counters and gauges export one sample each; histograms export the
    standard ``_bucket`` (cumulative counts with an explicit ``+Inf``
    bucket), ``_sum``, and ``_count`` series.  The output is the
    text-based exposition format (version 0.0.4), so any Prometheus
    scraper — or ``promtool check metrics`` — consumes it directly::

        registry = MetricsRegistry()
        ...
        print(render_prometheus(registry.snapshot()))

    Metric families are emitted in sorted-name order, so the exposition
    is deterministic for a given snapshot.
    """
    lines: list[str] = []
    for raw, value in sorted((snapshot.get("counters") or {}).items()):
        name = _prometheus_name(raw, prefix)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_prometheus_number(value)}")
    for raw, value in sorted((snapshot.get("gauges") or {}).items()):
        name = _prometheus_name(raw, prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_prometheus_number(value)}")
    for raw, hist in sorted((snapshot.get("histograms") or {}).items()):
        name = _prometheus_name(raw, prefix)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bucket in hist.get("buckets", []):
            cumulative += bucket["count"]
            le = _prometheus_number(bucket["le"])
            lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
        cumulative += hist.get("overflow", 0)
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_prometheus_number(hist.get('sum', 0.0))}")
        lines.append(f"{name}_count {hist.get('count', 0)}")
    return "\n".join(lines) + "\n" if lines else ""


def export_iostats(
    registry: MetricsRegistry, prefix: str, io: IOStats
) -> None:
    """Publish one :class:`IOStats` as gauges under ``prefix``.

    Covers the read/write mix the paper's evaluation cares about:
    random vs sequential, reads vs writes, plus logical object loads.
    """
    snap = io.snapshot()
    registry.gauge(f"{prefix}.random_reads").set(snap.random.reads)
    registry.gauge(f"{prefix}.sequential_reads").set(snap.sequential.reads)
    registry.gauge(f"{prefix}.random_writes").set(snap.random.writes)
    registry.gauge(f"{prefix}.sequential_writes").set(snap.sequential.writes)
    registry.gauge(f"{prefix}.objects_loaded").set(snap.objects_loaded)
    total_reads = snap.random.reads + snap.sequential.reads
    total_writes = snap.random.writes + snap.sequential.writes
    total = total_reads + total_writes
    registry.gauge(f"{prefix}.read_fraction").set(
        total_reads / total if total else 0.0
    )
    registry.gauge(f"{prefix}.sequential_fraction").set(
        (snap.sequential.reads + snap.sequential.writes) / total if total else 0.0
    )


def export_device(registry: MetricsRegistry, device) -> None:
    """Publish one block device's running state.

    Every device exports its :class:`IOStats`; a
    :class:`BufferPoolDevice` additionally exports its hit/miss counts
    and hit rate (and its inner device is exported too, so cached and
    true disk traffic are both visible).
    """
    prefix = f"storage.{metric_token(device.name)}"
    export_iostats(registry, f"{prefix}.io", device.stats)
    if isinstance(device, BufferPoolDevice):
        registry.gauge(f"{prefix}.pool.hits").set(device.hits)
        registry.gauge(f"{prefix}.pool.misses").set(device.misses)
        registry.gauge(f"{prefix}.pool.hit_rate").set(device.hit_rate)
        registry.gauge(f"{prefix}.pool.cached_blocks").set(len(device._cache))


def _engine_devices(engine) -> list:
    devices = []
    index = getattr(engine, "index", None)
    if index is not None and getattr(index, "device", None) is not None:
        devices.append(index.device)
    corpus = getattr(engine, "corpus", None)
    if corpus is not None and getattr(corpus, "device", None) is not None:
        devices.append(corpus.device)
    return devices


def _export_intern_drops(registry: MetricsRegistry, engines) -> None:
    """Advance the intern drop counters to the engines' evictions.

    Sums :attr:`~repro.storage.intern.Intern.dropped` over the distinct
    maps of ``engines`` (a single engine or the shards of a sharded
    one): the object-row interns (``storage.object_intern.dropped``),
    the node-image interns (``storage.node_intern.dropped``), the
    analyzers' term-set memos (``text.term_memo.dropped``) and their
    token-count memos (``text.length_memo.dropped``).  A map
    follows its engine through merges
    (:meth:`~repro.core.engine.SpatialKeywordEngine.clone_empty` hands it
    on), so each sum only grows; the counters never move backwards.  An
    analyzer may serve other engines too (the default one is shared
    process-wide), and its drops count whichever engine caused them.
    """
    corpora = [
        engine.corpus for engine in engines if getattr(engine, "corpus", None) is not None
    ]
    for name, maps in (
        ("storage.object_intern.dropped", [c.store.intern for c in corpora]),
        ("storage.node_intern.dropped", [c.node_intern for c in corpora]),
        ("text.term_memo.dropped", [c.analyzer.memo for c in corpora]),
        ("text.length_memo.dropped", [c.analyzer.length_memo for c in corpora]),
    ):
        dropped = sum({id(m): m.dropped for m in maps}.values())
        counter = registry.counter(name)
        if dropped > counter.value:
            counter.inc(dropped - counter.value)


def export_engine(registry: MetricsRegistry, engine) -> None:
    """Publish every device of a single or sharded engine.

    For a :class:`~repro.shard.ShardedEngine`, each shard's devices are
    exported with a ``shard<N>`` path segment and the merged running I/O
    additionally lands under ``storage.all_shards.io``.  Either way the
    intern evictions land in their drop counters (:func:`_export_intern_drops`).
    """
    shards = getattr(engine, "shards", None)
    _export_intern_drops(registry, [engine] if shards is None else shards)
    if shards is None:
        for device in _engine_devices(engine):
            export_device(registry, device)
        return
    merged = IOStats()
    for shard_id, shard in enumerate(shards):
        for device in _engine_devices(shard):
            prefix = f"storage.shard{shard_id}.{metric_token(device.name)}"
            export_iostats(registry, f"{prefix}.io", device.stats)
            if isinstance(device, BufferPoolDevice):
                registry.gauge(f"{prefix}.pool.hits").set(device.hits)
                registry.gauge(f"{prefix}.pool.misses").set(device.misses)
                registry.gauge(f"{prefix}.pool.hit_rate").set(device.hit_rate)
            merged = merged.merged_with(device.stats.snapshot())
    export_iostats(registry, "storage.all_shards.io", merged)
