"""Metric primitives: counters, gauges, fixed-bucket histograms.

The serving stack (``repro.serve``), the sharded fan-out
(``repro.shard``), and the storage devices all need to answer the same
operational questions — how many, how fast, what mix — without coupling
to each other.  :class:`MetricsRegistry` is the shared sink: components
record into named metrics, and one :meth:`~MetricsRegistry.snapshot`
call produces a JSON-ready view of everything (the ``repro metrics``
CLI output and the ``--serve-metrics`` dump).

Three metric kinds cover the layer's needs:

* :class:`Counter` — monotonically increasing event counts
  (queries served, shards pruned, retries spent);
* :class:`Gauge` — last-written point-in-time values
  (device read mixes, queue depth);
* :class:`Histogram` — fixed-bucket latency distributions with exact
  count/sum/min/max and interpolated quantiles (p50/p95 of per-stage
  timings).  Buckets are fixed at construction so merged snapshots from
  different processes stay comparable.

Everything here is thread-safe: metrics are recorded from query worker
threads, the merge worker, and device readers concurrently.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Callable, Iterable, Sequence

#: Default latency buckets in milliseconds — log-spaced from sub-0.1 ms
#: (cache hits) to multi-second outliers (cold sharded fan-outs).
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Default buckets for per-query block-access counts.
COUNT_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
)


class Counter:
    """A monotonically increasing event count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value; each :meth:`set` overwrites the last."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with exact count/sum/min/max.

    Args:
        name: metric name.
        buckets: strictly increasing upper bounds; observations larger
            than the last bound land in an implicit overflow bucket.

    Quantiles are estimated by linear interpolation inside the bucket
    containing the target rank, clamped to the exact observed min/max —
    so ``quantile(0.5)`` on a single observation returns that value, and
    estimates never leave the observed range.
    """

    def __init__(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_MS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} bucket bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = bounds
        self._lock = threading.Lock()
        # One count per bound plus the overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                lo = self.bounds[index - 1] if index > 0 else min(self._min, self.bounds[0])
                hi = self.bounds[index] if index < len(self.bounds) else self._max
                lo = max(lo, self._min)
                hi = min(hi, self._max)
                if hi <= lo:
                    return lo
                # Interpolate within the bucket by the rank's position.
                position = (rank - (cumulative - bucket_count)) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, position))
        return self._max

    def as_dict(self) -> dict:
        """JSON-ready view: bucket counts, exact stats, p50/p95/p99."""
        with self._lock:
            counts = list(self._counts)
            payload = {
                "buckets": [
                    {"le": bound, "count": count}
                    for bound, count in zip(self.bounds, counts)
                ],
                "overflow": counts[-1],
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "mean": self._sum / self._count if self._count else 0.0,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }
        return payload


class MetricsRegistry:
    """Get-or-create registry of named metrics with one snapshot view.

    Names are dotted paths (``service.search_ms``,
    ``shard.fanout.pruned``); a name is permanently bound to the kind it
    was first created as — asking for the same name as a different kind
    raises, which catches typo'd cross-component wiring early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unbound(self, name: str, want: dict) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not want and name in table:
                raise ValueError(f"metric {name!r} already registered as a {kind}")

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_unbound(name, self._counters)
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_unbound(name, self._gauges)
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_MS
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` only applies on first creation; later calls return
        the existing histogram unchanged.
        """
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_unbound(name, self._histograms)
                metric = self._histograms[name] = Histogram(name, buckets)
            return metric

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        with self._lock:
            return sorted(
                list(self._counters)
                + list(self._gauges)
                + list(self._histograms)
            )

    def snapshot(self) -> dict:
        """A JSON-ready snapshot of every registered metric.

        Shape::

            {"counters": {name: int, ...},
             "gauges": {name: float, ...},
             "histograms": {name: {"buckets": [...], "p50": ..., ...}}}
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counter.value for name, counter in sorted(counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(histograms.items())
            },
        }

    def dump_json(self, path: str, extra: dict | None = None) -> None:
        """Write the snapshot (plus optional metadata) to ``path``."""
        payload = dict(extra or {})
        payload["metrics"] = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)


class MetricHandles(dict):
    """Metrics of one registry by key, each looked up there once.

    A component that records the same events on every query keeps one of
    these instead of asking the registry by name each time:
    ``handles[key]`` calls ``factory(key)`` on the first use of ``key``
    (a registry lookup such as ``registry.counter``, which creates the
    metric) and returns the held metric afterwards, without the
    registry's lock.  A metric therefore still appears in snapshots only
    once something records into it.  Keys may be tuples, so a per-shard
    family is bound without formatting its name per query.
    """

    def __init__(self, factory: Callable[[object], object]) -> None:
        super().__init__()
        self._factory = factory

    def __missing__(self, key):
        metric = self[key] = self._factory(key)
        return metric


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Sum counters and bucket counts across several snapshots.

    Gauges keep the last non-zero writer (they are point-in-time values
    with no meaningful sum); histograms require identical bucket bounds.
    Used to aggregate per-process dumps offline.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            if value or name not in merged["gauges"]:
                merged["gauges"][name] = value
        for name, histogram in snapshot.get("histograms", {}).items():
            existing = merged["histograms"].get(name)
            if existing is None:
                merged["histograms"][name] = json.loads(json.dumps(histogram))
                continue
            theirs = [bucket["le"] for bucket in histogram["buckets"]]
            ours = [bucket["le"] for bucket in existing["buckets"]]
            if theirs != ours:
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ across snapshots"
                )
            for mine, other in zip(existing["buckets"], histogram["buckets"]):
                mine["count"] += other["count"]
            existing["overflow"] += histogram["overflow"]
            existing["count"] += histogram["count"]
            existing["sum"] += histogram["sum"]
            existing["min"] = min(existing["min"], histogram["min"])
            existing["max"] = max(existing["max"], histogram["max"])
            existing["mean"] = (
                existing["sum"] / existing["count"] if existing["count"] else 0.0
            )
            # Quantiles cannot be merged exactly; drop them rather than lie.
            for key in ("p50", "p95", "p99"):
                existing.pop(key, None)
    return merged
