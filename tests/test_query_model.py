"""Unit tests for the query model and execution report."""

from __future__ import annotations

import pytest

from repro.core import QueryExecution, SpatialKeywordQuery
from repro.errors import QueryError
from repro.model import SearchResult, SpatialObject
from repro.storage import DriveModel, IOStats


class TestSpatialKeywordQuery:
    def test_of_coerces_types(self):
        query = SpatialKeywordQuery.of([1, 2], ("pool",), k="3")
        assert query.point == (1.0, 2.0)
        assert query.keywords == ("pool",)
        assert query.k == 3
        assert query.dims == 2

    def test_k_must_be_positive(self):
        with pytest.raises(QueryError):
            SpatialKeywordQuery.of((0, 0), ("pool",), 0)

    def test_keywords_required(self):
        with pytest.raises(QueryError):
            SpatialKeywordQuery.of((0, 0), (), 1)

    def test_point_required(self):
        with pytest.raises(QueryError):
            SpatialKeywordQuery((), ("pool",), 1)

    def test_frozen(self):
        query = SpatialKeywordQuery.of((0, 0), ("pool",), 1)
        with pytest.raises(AttributeError):
            query.k = 5  # type: ignore[misc]


class TestQueryExecution:
    def _execution(self):
        query = SpatialKeywordQuery.of((0, 0), ("pool",), 2)
        obj = SpatialObject(1, (1.0, 0.0), "pool")
        io = IOStats()
        io.record_read(0)
        io.record_read(1)
        return QueryExecution(
            query=query,
            results=[SearchResult(obj, 1.0, score=-1.0)],
            io=io.snapshot(),
            objects_inspected=3,
            false_positive_candidates=2,
            algorithm="IR2",
        )

    def test_oids(self):
        assert self._execution().oids == [1]

    def test_simulated_ms_uses_drive_model(self):
        execution = self._execution()
        drive = DriveModel(seek_ms=10.0, rotation_ms=0.0, transfer_mb_per_s=4.096, block_size=4096)
        # 1 random (10 + 1) + 1 sequential (1) = 12 ms.
        assert execution.simulated_ms(drive) == pytest.approx(12.0)

    def test_summary_contains_key_figures(self):
        text = self._execution().summary()
        assert "IR2" in text
        assert "1 results" in text
        assert "3 objects" in text


class TestModel:
    def test_spatial_object_dims(self):
        assert SpatialObject(1, (1.0, 2.0, 3.0), "x").dims == 3

    def test_with_text(self):
        obj = SpatialObject(1, (0.0, 0.0), "old")
        assert obj.with_text("new").text == "new"
        assert obj.text == "old"  # frozen original unchanged

    def test_search_result_oid(self):
        result = SearchResult(SpatialObject(9, (0.0, 0.0), ""), 0.0)
        assert result.oid == 9
