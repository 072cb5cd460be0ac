"""Inputs, set-up, load drivers and the answer oracle of each workload.

Everything a run feeds the program is generated here from the workload
seed; the program under test only ever sees the generated objects,
queries and writes, through the public ``QueryService`` API.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.bench.workloads import ConcurrentLoadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.core.ranking import DistanceDecayRanking
from repro.core.search import brute_force_top_k
from repro.core.search_general import brute_force_ranked
from repro.datasets import SpatialTextDatasetGenerator
from repro.datasets.generator import restaurants_config
from repro.errors import ServiceOverloadError
from repro.serve import BatchConfig, QueryService
from repro.shard import ShardedEngine
from repro.text.analyzer import Analyzer
from repro.text.vocabulary import Vocabulary

#: Open-loop schedules start this long after they are armed, so the
#: first arrival is never late because of the arming itself.
START_DELAY_S = 0.05


@dataclass
class WriteOp:
    kind: str  # "add" or "delete"
    oid: int
    obj: object = None


@dataclass
class Inputs:
    queries: list
    arrivals: list | None  # open-loop offsets (s), one per query
    writes: list  # the writer's ops (read_write only)
    write_interval_s: float


@dataclass
class ReadRecord:
    """One read request as the client saw it."""

    index: int
    query: object
    due: float  # when it was due (open loop) or sent (closed loop)
    sent: float = 0.0
    done: float = 0.0
    execution: object = None
    error: str | None = None
    shed: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class WriteRecord:
    op: WriteOp
    due: float
    sent: float
    done: float
    error: str | None = None
    depth: int = 0  # buffered writes right after this one

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class Journal:
    """Published version -> number of writes its content reflects.

    Versions the writer did not record were published by merges, which
    change no content: they hold the newest recorded state below them.
    """

    states: dict = field(default_factory=lambda: {0: 0})

    def resolver(self):
        """``version -> state`` over the states recorded so far."""
        versions = sorted(self.states)
        states = [self.states[v] for v in versions]
        return lambda version: states[bisect.bisect_right(versions, version) - 1]


# -- Inputs -------------------------------------------------------------------


def make_dataset(spec: dict):
    """The fixed corpus and the pool of objects writers insert."""
    config = spec["dataset"]
    base = config["n_objects"]
    generated = SpatialTextDatasetGenerator(
        dataclasses.replace(
            restaurants_config(scale=base / 456_288, seed=config["seed"]),
            n_objects=base + config["insert_pool"],
        )
    ).generate()
    return generated[:base], generated[base:]


def shared_ranking(objects) -> DistanceDecayRanking:
    """One ranking instance (the result cache keys rankings by identity)."""
    spans = [
        max(obj.point[d] for obj in objects) - min(obj.point[d] for obj in objects)
        for d in range(len(objects[0].point))
    ]
    return DistanceDecayRanking(half_distance=max(spans) * 0.1)


def make_writes(objects, pool, count: int, add_fraction: float, rng) -> list:
    """Up to ``count`` adds and deletes; fewer if the insert pool runs out."""
    live = [obj.oid for obj in objects]
    fresh = iter(pool)
    ops = []
    for _ in range(count):
        if rng.random() < add_fraction:
            obj = next(fresh, None)
            if obj is None:
                break
            live.append(obj.oid)
            ops.append(WriteOp("add", obj.oid, obj))
        else:
            at = rng.randrange(len(live))
            live[at], live[-1] = live[-1], live[at]
            ops.append(WriteOp("delete", live.pop()))
    return ops


def make_mix(generator, count: int, mix: dict, ranking, rng) -> list:
    """``count`` queries with exact class and keyword-count shares.

    Drawing each query's class independently lets the share of costly
    classes (ranked, one-keyword) swing from seed to seed, and the tail
    latency with it; fixed shares in a seeded order keep seeds alike.
    """
    hot = round(count * mix["hot_fraction"])
    area = round((count - hot) * mix["area_fraction"])
    ranked = round((count - hot) * mix["ranked_fraction"])
    classes = (["hot"] * hot + ["area"] * area + ["ranked"] * ranked
               + ["point"] * (count - hot - area - ranked))
    rng.shuffle(classes)
    counts = mix["keyword_counts"]
    keywords = [counts[i % len(counts)] for i in range(count)]
    rng.shuffle(keywords)
    k = mix["k"]
    pool = [generator.query(counts[i % len(counts)], k)
            for i in range(mix.get("hot_pool", 0))]
    queries = []
    for kind, n_keywords in zip(classes, keywords):
        if kind == "hot":
            query = rng.choice(pool)
        elif kind == "area":
            query = generator.area_query(n_keywords, k, mix["area_extent"])
        elif kind == "ranked":
            query = generator.query(n_keywords, k).with_ranking(ranking)
        else:
            query = generator.query(n_keywords, k)
        # A fresh object per request: repeats stay equal (the cache and
        # the batch coalescer match by value) but each stays traceable.
        queries.append(dataclasses.replace(query))
    return queries


def make_inputs(name: str, spec: dict, seed: int, seconds: float,
                objects, pool, ranking) -> Inputs:
    workload = spec["workloads"][name]
    mix = workload["mix"]
    rng = random.Random(seed * 1_000_003 + 17)
    if workload["loop"] == "open":
        count = max(1, round(workload["rate_qps"] * seconds))
        arrivals = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    else:
        # Closed loops stop on time; the list only has to outlast the run.
        count = int(seconds * 250) + spec["min_queries"]
        arrivals = None
    generator = ConcurrentLoadGenerator(objects, Analyzer(), seed=seed)
    queries = make_mix(generator, count, mix, ranking, rng)
    writes, interval_s = [], 0.0
    if "write_rate_per_s" in workload:
        # The writer paces until the reader stops, which may be after
        # ``seconds`` when the reader needs longer for min_queries.
        rate = workload["write_rate_per_s"]
        writes = make_writes(objects, pool, int(rate * seconds * 3),
                             workload["add_fraction"], rng)
        interval_s = 1.0 / rate
    return Inputs(queries, arrivals, writes, interval_s)


# -- Set-up --------------------------------------------------------------------


def build_service(workload: dict, objects):
    """Build the workload's engine and start its service."""
    config = workload["engine"]
    if config["kind"] == "sharded":
        engine = ShardedEngine(
            n_shards=config["n_shards"],
            index=config["index"],
            partitioner=config["partitioner"],
        )
    else:
        engine = SpatialKeywordEngine(index=config["index"])
    engine.add_all(objects)
    engine.build()
    service_config = workload["service"]
    batching = service_config.get("batching")
    kwargs = {}
    if "merge_threshold" in service_config:
        kwargs["merge_threshold"] = service_config["merge_threshold"]
    service = QueryService(
        engine,
        workers=service_config["workers"],
        batching=BatchConfig(**batching) if batching else None,
        **kwargs,
    )
    return engine, service


def close_service(engine, service) -> None:
    service.close()
    for each in {id(engine): engine, id(service.engine): service.engine}.values():
        close = getattr(each, "close", None)
        if close is not None:
            close()


# -- Load drivers ---------------------------------------------------------------


def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _search(service, record: ReadRecord) -> None:
    try:
        record.execution = service.search(record.query)
    except Exception as exc:  # counted as a failed operation
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = time.perf_counter()


def closed_loop(service, queries, clients: int, seconds: float,
                min_count: int) -> list:
    """``clients`` threads, each sending its next query when one returns.

    Sending stops at the deadline, but not before ``min_count`` queries
    were sent, so the p99 always has ten samples beyond it.
    """
    records: list[ReadRecord] = []
    lock = threading.Lock()
    cursor = iter(range(len(queries)))
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
                if index is None or (
                    index >= min_count and time.perf_counter() >= deadline
                ):
                    return
                now = time.perf_counter()
                record = ReadRecord(index, queries[index], now, now)
                records.append(record)
            _search(service, record)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda r: r.index)
    return records


def open_loop(service, queries, arrivals) -> list:
    """One generator thread submitting each query at its due time."""
    records = [ReadRecord(i, query, 0.0) for i, query in enumerate(queries)]
    remaining = threading.Semaphore(0)

    def on_done(record: ReadRecord, future) -> None:
        record.done = time.perf_counter()
        try:
            record.execution = future.result()
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        remaining.release()

    start = time.perf_counter() + START_DELAY_S
    pending = 0
    for record, offset in zip(records, arrivals):
        record.due = start + offset
        _sleep_until(record.due)
        record.sent = time.perf_counter()
        try:
            future = service.submit(record.query)
        except ServiceOverloadError as exc:
            record.done = record.sent
            record.shed = True
            record.error = f"{type(exc).__name__}: {exc}"
            continue
        pending += 1
        future.add_done_callback(lambda f, r=record: on_done(r, f))
    for _ in range(pending):
        if not remaining.acquire(timeout=60.0):
            raise RuntimeError("open-loop queries did not complete in 60 s")
    return records


def write_loop(service, ops, interval_s: float, start: float,
               journal: Journal, until: threading.Event) -> list:
    """Paced add/delete acknowledgements, each timed from its due time.

    Runs through ``ops``, or until ``until`` is cleared.  After each
    acknowledgement is timed, every version the write could have
    published is resolved in ``journal`` to the number of writes its
    content reflects, for the per-version answer check.
    """
    records = []
    maintainer = service.maintainer
    for number, op in enumerate(ops):
        due = start + number * interval_s
        _sleep_until(due)
        if not until.is_set():
            break
        before = service.engine_version
        sent = time.perf_counter()
        error = None
        try:
            if op.kind == "add":
                service.add(op.obj)
            else:
                service.delete(op.oid)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        records.append(
            WriteRecord(op, due, sent, done, error, service.buffer_depth)
        )
        after = service.engine_version
        for version in range(before + 1, after + 1):
            # Merges publish too, without changing content.
            live = maintainer.version_at(version).contains(op.oid)
            applied = live == (op.kind == "add")
            journal.states[version] = number + (1 if applied else 0)
    return records


def read_write(service, queries, ops, interval_s: float, seconds: float,
               min_count: int):
    """One closed-loop reader beside one paced writer.

    The writer keeps its pace for as long as the reader runs.
    """
    journal = Journal()
    start = time.perf_counter() + START_DELAY_S
    reading = threading.Event()
    reading.set()
    result = {}

    def writer() -> None:
        result["writes"] = write_loop(
            service, ops, interval_s, start, journal, reading
        )

    thread = threading.Thread(target=writer)
    thread.start()
    _sleep_until(start)
    try:
        reads = closed_loop(service, queries, 1, seconds, min_count)
    finally:
        reading.clear()
        thread.join()
    return reads, result["writes"], journal


@dataclass
class Phase:
    """One load pass over one set-up: the raw client records."""

    reads: list
    writes: list
    journal: Journal | None
    started: float
    ended: float
    stats: object  # the service's ServiceStats once its merges finished
    index_mb: float
    cpu_s: float  # process CPU time while the reads ran
    count_limit: int
    wrong: int = 0

    @property
    def answered(self) -> list:
        return [r for r in self.reads if r.execution is not None]

    @property
    def counted(self) -> list:
        """The answered reads among the first ``count_limit`` sent.

        A closed loop sends at least ``min_queries``, in the same order
        for a seed, so counts over them compare across runs of one seed;
        an open loop always sends its whole schedule, so all of it counts.
        """
        return [r for r in self.reads[: self.count_limit] if r.execution is not None]

    @property
    def attempted(self) -> int:
        return len(self.reads) + len(self.writes)

    @property
    def failed(self) -> int:
        reads = sum(1 for r in self.reads if r.error is not None)
        return reads + sum(1 for w in self.writes if w.error is not None)


def run_phase(spec: dict, name: str, inputs: Inputs, seconds: float,
              engine, service) -> Phase:
    """Drive the workload's load once over one set-up."""
    workload = spec["workloads"][name]
    min_count = spec["min_queries"]
    index_mb = engine.index_size_mb()
    journal = None
    writes = []
    cpu_started = time.process_time()
    started = time.perf_counter()
    if workload["loop"] == "closed":
        reads = closed_loop(
            service, inputs.queries, workload["clients"], seconds, min_count
        )
    elif workload["loop"] == "open":
        reads = open_loop(service, inputs.queries, inputs.arrivals)
    else:
        reads, writes, journal = read_write(
            service, inputs.queries, inputs.writes, inputs.write_interval_s,
            seconds, min_count,
        )
    ended = max(r.done for r in reads)
    cpu_s = time.process_time() - cpu_started
    service.flush()  # let merges the writes started finish, untimed
    limit = len(reads) if workload["loop"] == "open" else min_count
    return Phase(reads, writes, journal, started, ended, service.stats(),
                 index_mb, cpu_s, limit)


# -- Answer oracle --------------------------------------------------------------


class Oracle:
    """Brute-force answers over a live object set that writes can change.

    The conjunctive keyword prefilter is exact (``Analyzer.contains_all``
    is a term-subset test), so it only narrows the set the library's
    brute-force oracles scan; they still decide every answer.
    """

    def __init__(self, objects, analyzer: Analyzer) -> None:
        self.analyzer = analyzer
        self.live = {}
        self.terms = {}
        self.postings = defaultdict(set)
        self.vocabulary = Vocabulary()
        for obj in objects:
            self.add(obj)

    def add(self, obj) -> None:
        terms = self.analyzer.terms(obj.text)
        self.live[obj.oid] = obj
        self.terms[obj.oid] = terms
        self.vocabulary.add_document(terms)
        for term in terms:
            self.postings[term].add(obj.oid)

    def delete(self, oid: int) -> None:
        del self.live[oid]
        terms = self.terms.pop(oid)
        self.vocabulary.remove_document(terms)
        for term in terms:
            self.postings[term].discard(oid)

    def apply(self, op: WriteOp) -> None:
        if op.kind == "add":
            self.add(op.obj)
        else:
            self.delete(op.oid)

    def matches(self, query, execution) -> bool:
        terms = self.analyzer.query_terms(query.keywords)
        if query.ranking is None:
            if terms:
                oids = set.intersection(*(self.postings[t] for t in terms))
            else:
                oids = self.live
            want = brute_force_top_k(
                [self.live[oid] for oid in oids], self.analyzer, query
            )
            return [(r.obj.oid, round(r.distance, 9)) for r in want] == [
                (r.obj.oid, round(r.distance, 9)) for r in execution.results
            ]
        oids = set().union(*(self.postings[t] for t in terms))
        want = brute_force_ranked(
            [self.live[oid] for oid in oids], self.analyzer, self.vocabulary,
            query, query.ranking,
        )
        # Equal scores may order differently (the engine breaks ties by
        # distance, the oracle by oid), so ranked answers compare scores.
        return [round(r.score, 9) for r in want] == [
            round(r.score, 9) for r in execution.results
        ]


def check_answers(objects, phase: Phase) -> int:
    """Check every answered read; returns the number of wrong answers.

    With a journal, each read is checked against the content of the
    version it pinned (``QueryExecution.engine_version``).
    """
    oracle = Oracle(objects, Analyzer())
    answered = phase.answered
    journal = phase.journal
    if journal is not None:
        ops = [w.op for w in phase.writes]
        state_at = journal.resolver()
        answered.sort(key=lambda r: state_at(r.execution.engine_version))
    applied = 0
    wrong = 0
    for record in answered:
        if journal is not None:
            state = state_at(record.execution.engine_version)
            while applied < state:
                oracle.apply(ops[applied])
                applied += 1
        if not oracle.matches(record.query, record.execution):
            wrong += 1
            record.error = "wrong answer"
    return wrong
