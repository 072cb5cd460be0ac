"""API contract: uniform errors, capability flags, and unified search().

Every engine flavor (all six index kinds, plus the sharded engine) must:

* raise :class:`~repro.errors.QueryError` — never ``AttributeError`` —
  when asked for a feature its index kind does not support;
* raise :class:`~repro.errors.IndexError_` when queried before build();
* report capabilities through
  :attr:`~repro.core.indexes.SpatialKeywordIndex.supports_incremental`;
* answer :meth:`search` identically to the legacy ``query`` /
  ``query_area`` / ``query_ranked`` convenience wrappers;
* produce a JSON-clean :meth:`~repro.core.query.QueryExecution.to_dict`.

:class:`TestServiceSubmissionSurface` pins the redesigned
:class:`~repro.serve.QueryService` submission API — ``submit(query)`` →
``Future``, ``submit_many(queries)`` → futures, ``search(query)``
synchronous — and that the pre-redesign calls
(``submit(point, keywords, k)`` / ``submit_query`` / ``query`` /
``execute``) are gone.
"""

from __future__ import annotations

import json
from concurrent.futures import Future

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.core.ranking import LinearRanking
from repro.errors import IndexError_, QueryError, ServiceError
from repro.model import SpatialObject
from repro.serve import QueryService
from repro.shard import ShardedEngine
from repro.spatial.geometry import Rect

ALL_KINDS = ("ir2", "mir2", "rtree", "iio", "sig", "stree")
INCREMENTAL_KINDS = ("ir2", "mir2", "rtree")
RANKED_KINDS = ("ir2", "mir2")

OBJECTS = [
    SpatialObject(1, (0.0, 0.0), "cafe wifi garden"),
    SpatialObject(2, (1.0, 1.0), "cafe pool"),
    SpatialObject(3, (2.0, 2.0), "museum wifi"),
    SpatialObject(4, (3.0, 3.0), "cafe museum garden"),
    SpatialObject(5, (4.0, 4.0), "pool garden"),
]


def built_engine(kind):
    engine = SpatialKeywordEngine(index=kind, signature_bytes=4)
    engine.add_all(OBJECTS)
    engine.build()
    return engine


@pytest.fixture(scope="module", params=ALL_KINDS)
def engine(request):
    return built_engine(request.param)


class TestCapabilityErrors:
    def test_supports_incremental_flag(self, engine):
        expected = engine.index_kind in INCREMENTAL_KINDS
        assert engine.index.supports_incremental is expected

    def test_unsupported_streaming_is_query_error(self, engine):
        if engine.index_kind in INCREMENTAL_KINDS:
            results = list(engine.query_incremental((0.0, 0.0), ["cafe"]))
            assert [r.obj.oid for r in results[:2]] == [1, 2]
        else:
            with pytest.raises(QueryError, match="incremental"):
                engine.query_incremental((0.0, 0.0), ["cafe"])

    def test_unsupported_ranking_is_query_error(self, engine):
        if engine.index_kind in RANKED_KINDS:
            execution = engine.query_ranked((0.0, 0.0), ["cafe"], k=2)
            assert len(execution.results) == 2
        else:
            with pytest.raises(QueryError, match="ranked"):
                engine.query_ranked((0.0, 0.0), ["cafe"], k=2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_never_attribute_error(self, kind):
        engine = built_engine(kind)
        for call in (
            lambda: engine.query_incremental((0.0, 0.0), ["cafe"]),
            lambda: engine.query_ranked((0.0, 0.0), ["cafe"]),
            lambda: engine.search(
                SpatialKeywordQuery.of(
                    (0.0, 0.0), ["cafe"], 2, ranking=LinearRanking()
                )
            ),
        ):
            try:
                call()
            except QueryError:
                pass  # the contract: capability gaps surface as QueryError

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unbuilt_query_is_index_error(self, kind):
        engine = SpatialKeywordEngine(index=kind, signature_bytes=4)
        engine.add_all(OBJECTS)
        with pytest.raises(IndexError_):
            engine.query((0.0, 0.0), ["cafe"], k=1)
        with pytest.raises(IndexError_):
            engine.index.require_built()

    def test_sharded_engine_follows_the_same_contract(self):
        sharded = ShardedEngine(n_shards=2, index="iio")
        sharded.add_all(OBJECTS)
        with pytest.raises(IndexError_):
            sharded.query((0.0, 0.0), ["cafe"], k=1)
        sharded.build()
        with pytest.raises(QueryError, match="incremental"):
            sharded.query_incremental((0.0, 0.0), ["cafe"])
        with pytest.raises(QueryError, match="ranked"):
            sharded.query_ranked((0.0, 0.0), ["cafe"], k=2)

    def test_ranked_area_query_rejected_at_construction(self):
        with pytest.raises(QueryError):
            SpatialKeywordQuery(
                (0.0, 0.0),
                ("cafe",),
                2,
                area=Rect((0.0, 0.0), (1.0, 1.0)),
                ranking=LinearRanking(),
            )


class TestUnifiedSearch:
    def test_search_equals_query(self, engine):
        query = SpatialKeywordQuery.of((0.5, 0.5), ["cafe"], 3)
        via_search = engine.search(query)
        via_legacy = engine.query((0.5, 0.5), ["cafe"], k=3)
        assert via_search.oids == via_legacy.oids
        assert via_search.algorithm == via_legacy.algorithm

    def test_search_equals_query_area(self, engine):
        area = Rect((0.0, 0.0), (2.0, 2.0))
        query = SpatialKeywordQuery.of_area(area, ["wifi"], 3)
        via_search = engine.search(query)
        via_legacy = engine.query_area((0.0, 0.0), (2.0, 2.0), ["wifi"], k=3)
        assert via_search.oids == via_legacy.oids

    def test_search_equals_query_ranked(self):
        engine = built_engine("ir2")
        ranking = LinearRanking()
        query = SpatialKeywordQuery.of((0.0, 0.0), ["cafe"], 3, ranking=ranking)
        via_search = engine.search(query)
        via_legacy = engine.query_ranked((0.0, 0.0), ["cafe"], k=3,
                                         ranking=ranking)
        assert via_search.oids == via_legacy.oids
        assert [r.score for r in via_search.results] == [
            r.score for r in via_legacy.results
        ]

    def test_sharded_search_equals_delegates(self):
        sharded = ShardedEngine(n_shards=2, index="ir2")
        sharded.add_all(OBJECTS)
        sharded.build()
        query = SpatialKeywordQuery.of((0.5, 0.5), ["cafe"], 3)
        assert sharded.search(query).oids == (
            sharded.query((0.5, 0.5), ["cafe"], k=3).oids
        )


class TestExecutionPayload:
    EXPECTED_KEYS = {
        "algorithm", "query", "results", "oids", "io",
        "objects_inspected", "false_positive_candidates",
        "nodes_visited", "simulated_ms", "degraded", "failed_shards",
        "engine_version",
    }

    def test_to_dict_is_json_clean(self, engine):
        execution = engine.query((0.0, 0.0), ["cafe"], k=2)
        payload = execution.to_dict()
        json.dumps(payload)
        assert set(payload) == self.EXPECTED_KEYS
        assert payload["oids"] == execution.oids
        assert payload["query"]["keywords"] == ["cafe"]
        assert payload["io"]["random_reads"] == execution.io.random_reads
        assert payload["results"][0]["oid"] == execution.results[0].obj.oid

    def test_sharded_payload_carries_breakdown(self):
        sharded = ShardedEngine(n_shards=2, index="ir2")
        sharded.add_all(OBJECTS)
        sharded.build()
        payload = sharded.query((0.0, 0.0), ["cafe"], k=2).to_dict()
        json.dumps(payload)
        assert set(payload) == self.EXPECTED_KEYS | {"shards"}
        assert len(payload["shards"]) == 2


class TestServiceSubmissionSurface:
    """The redesigned QueryService API: submit / submit_many / search."""

    QUERY = SpatialKeywordQuery.of((0.5, 0.5), ("cafe",), 3)

    @pytest.fixture()
    def service(self):
        with QueryService(built_engine("ir2"), workers=2) as service:
            yield service

    def test_submit_returns_future(self, service):
        future = service.submit(self.QUERY)
        assert isinstance(future, Future)
        execution = future.result()
        assert isinstance(execution, QueryExecution)
        assert execution.oids == [1, 2, 4]

    def test_submit_many_preserves_order(self, service):
        queries = [
            SpatialKeywordQuery.of((0.5, 0.5), ("cafe",), 3),
            SpatialKeywordQuery.of((3.0, 3.0), ("garden",), 2),
            SpatialKeywordQuery.of((0.0, 0.0), ("wifi",), 1),
        ]
        futures = service.submit_many(queries)
        assert [type(f) for f in futures] == [Future] * 3
        executions = [f.result() for f in futures]
        for query, execution in zip(queries, executions):
            assert execution.query is query or (
                execution.query.keywords == query.keywords
            )
            assert execution.oids == service.search(query).oids

    def test_search_is_synchronous(self, service):
        execution = service.search(self.QUERY)
        assert isinstance(execution, QueryExecution)
        assert execution.oids == service.submit(self.QUERY).result().oids

    def test_submit_many_rejects_non_queries(self, service):
        with pytest.raises(ServiceError, match="SpatialKeywordQuery"):
            service.submit_many([self.QUERY, ((0.0, 0.0), ["cafe"])])

    def test_search_rejects_non_queries(self, service):
        with pytest.raises(ServiceError, match="SpatialKeywordQuery"):
            service.search(((0.0, 0.0), ["cafe"], 3))

    # -- The pre-redesign surface is gone ---------------------------------

    def test_submit_point_shape_is_rejected(self, service):
        with pytest.raises(TypeError):
            service.submit((0.5, 0.5), ["cafe"], 3)
        with pytest.raises(ServiceError, match="SpatialKeywordQuery"):
            service.submit(((0.5, 0.5), ["cafe"], 3))

    def test_submit_query_shim(self, service):
        """The ``submit_query`` shim was removed; use ``submit(query)``."""
        assert not hasattr(service, "submit_query")
        assert not hasattr(QueryService, "submit_query")

    def test_query_shim(self, service):
        """The ``query`` shim was removed; use ``search(query)``."""
        assert not hasattr(service, "query")
        assert not hasattr(QueryService, "query")

    def test_execute_shim(self, service):
        """The ``execute`` shim was removed; use ``search(query)``."""
        assert not hasattr(service, "execute")
        assert not hasattr(QueryService, "execute")

    def test_new_surface_emits_no_warnings(self, service):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service.search(self.QUERY)
            service.submit(self.QUERY).result()
            service.run_batch([self.QUERY])
