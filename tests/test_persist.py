"""Tests for engine save/load persistence."""

from __future__ import annotations

import random

import pytest

from repro import SpatialKeywordEngine, SpatialObject
from repro.core import SpatialKeywordQuery, brute_force_top_k
from repro.datasets import figure1_hotels
from repro.errors import DatasetError, PersistError
from repro.persist import (
    MANIFEST_VERSION,
    load_engine,
    save_engine,
    verify_engine,
)


def build_engine(kind, objects):
    engine = SpatialKeywordEngine(index=kind, signature_bytes=8)
    engine.add_all(objects)
    engine.build()
    return engine


@pytest.mark.parametrize("kind", ["rtree", "iio", "ir2", "mir2", "sig"])
class TestRoundTrip:
    def test_queries_identical_after_reload(self, kind, tmp_path):
        engine = build_engine(kind, figure1_hotels())
        before = engine.query((30.5, 100.0), ["internet", "pool"], k=2)
        save_engine(engine, str(tmp_path / "saved"))
        reloaded = load_engine(str(tmp_path / "saved"))
        after = reloaded.query((30.5, 100.0), ["internet", "pool"], k=2)
        assert after.oids == before.oids == [7, 2]
        assert len(reloaded) == len(engine)

    def test_io_costs_identical_after_reload(self, kind, tmp_path):
        engine = build_engine(kind, figure1_hotels())
        engine.reset_io()
        before = engine.query((30.5, 100.0), ["pool"], k=3)
        save_engine(engine, str(tmp_path / "saved"))
        reloaded = load_engine(str(tmp_path / "saved"))
        after = reloaded.query((30.5, 100.0), ["pool"], k=3)
        assert after.io.total_reads == before.io.total_reads

    def test_maintenance_continues_after_reload(self, kind, tmp_path):
        engine = build_engine(kind, figure1_hotels())
        save_engine(engine, str(tmp_path / "saved"))
        reloaded = load_engine(str(tmp_path / "saved"))
        reloaded.add_object(99, (30.5, 100.0), "internet pool reopened")
        assert reloaded.query((30.5, 100.0), ["internet", "pool"], 1).oids == [99]
        assert reloaded.delete(99) is True
        assert reloaded.delete(5) is True
        assert reloaded.query((30.5, 100.0), ["internet", "pool"], 2).oids == [7, 2]


class TestRoundTripAtScale:
    def test_larger_corpus_agrees_with_oracle_after_reload(self, tmp_path, small_objects):
        engine = build_engine("ir2", small_objects)
        save_engine(engine, str(tmp_path / "saved"))
        reloaded = load_engine(str(tmp_path / "saved"))
        rng = random.Random(3)
        analyzer = reloaded.corpus.analyzer
        for _ in range(8):
            anchor = rng.choice(small_objects)
            terms = sorted(analyzer.terms(anchor.text))
            keywords = rng.sample(terms, min(2, len(terms)))
            query = SpatialKeywordQuery.of(
                (rng.uniform(-90, 90), rng.uniform(-180, 180)), keywords, 5
            )
            expected = [
                r.oid for r in brute_force_top_k(small_objects, analyzer, query)
            ]
            assert reloaded.index.execute(query).oids == expected

    def test_vocabulary_restored(self, tmp_path, small_objects):
        engine = build_engine("ir2", small_objects)
        save_engine(engine, str(tmp_path / "saved"))
        reloaded = load_engine(str(tmp_path / "saved"))
        original = engine.corpus.vocabulary
        restored = reloaded.corpus.vocabulary
        assert restored.unique_words == original.unique_words
        assert restored.document_count == original.document_count
        sample = list(original.terms())[:20]
        for term in sample:
            assert restored.idf(term) == original.idf(term)

    def test_ranked_queries_after_reload(self, tmp_path, small_objects):
        engine = build_engine("ir2", small_objects)
        save_engine(engine, str(tmp_path / "saved"))
        reloaded = load_engine(str(tmp_path / "saved"))
        anchor = small_objects[0]
        terms = sorted(engine.corpus.analyzer.terms(anchor.text))[:2]
        before = engine.query_ranked(anchor.point, terms, k=5)
        after = reloaded.query_ranked(anchor.point, terms, k=5)
        assert after.oids == before.oids


class TestErrors:
    def test_save_unbuilt_rejected(self, tmp_path):
        engine = SpatialKeywordEngine()
        engine.add(SpatialObject(1, (0.0, 0.0), "pool"))
        with pytest.raises(DatasetError):
            save_engine(engine, str(tmp_path / "saved"))

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError):
            load_engine(str(tmp_path / "nothing"))

    def test_load_bad_version(self, tmp_path):
        engine = build_engine("ir2", figure1_hotels())
        target = tmp_path / "saved"
        save_engine(engine, str(target))
        manifest = target / "manifest.json"
        import json

        data = json.loads(manifest.read_text())
        data["version"] = 999
        manifest.write_text(json.dumps(data))
        with pytest.raises(DatasetError):
            load_engine(str(target))

    def test_load_corrupt_device_image(self, tmp_path):
        engine = build_engine("ir2", figure1_hotels())
        target = tmp_path / "saved"
        save_engine(engine, str(target))
        with open(target / "index.dat", "ab") as handle:
            handle.write(b"garbage")  # no longer block aligned
        with pytest.raises(DatasetError):
            load_engine(str(target))

    def test_save_over_a_plain_file_rejected(self, tmp_path):
        engine = build_engine("ir2", figure1_hotels())
        target = tmp_path / "saved"
        target.write_text("not a directory")
        with pytest.raises(PersistError):
            save_engine(engine, str(target))


class TestDurability:
    def test_manifest_carries_digests_for_every_data_file(self, tmp_path):
        import json

        engine = build_engine("ir2", figure1_hotels())
        target = tmp_path / "saved"
        save_engine(engine, str(target))
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["version"] == MANIFEST_VERSION
        assert set(manifest["files"]) == {"objects.dat", "index.dat"}
        for rel, meta in manifest["files"].items():
            assert meta["bytes"] == (target / rel).stat().st_size
            assert len(meta["sha256"]) == 64

    @staticmethod
    def _rewrite_manifest(target, edit):
        import json

        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))

    def test_version_2_manifest_is_refused(self, tmp_path):
        target = tmp_path / "saved"
        save_engine(build_engine("ir2", figure1_hotels()), str(target))
        self._rewrite_manifest(
            target, lambda manifest: manifest.update(version=2)
        )
        with pytest.raises(DatasetError, match="unsupported manifest version"):
            load_engine(str(target))
        report = verify_engine(str(target))
        assert not report["ok"]
        assert report["checks"][0]["status"] == "error"

    def test_manifest_without_digests_is_refused(self, tmp_path):
        # Dropping "files" must not switch the digest checks off: a
        # tampered data file would otherwise load and verify as ok.
        target = tmp_path / "saved"
        save_engine(build_engine("ir2", figure1_hotels()), str(target))
        path = target / "objects.dat"
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01
        path.write_bytes(bytes(data))
        self._rewrite_manifest(target, lambda manifest: manifest.pop("files"))
        with pytest.raises(DatasetError, match="digests"):
            load_engine(str(target))
        report = verify_engine(str(target))
        assert not report["ok"]
        assert report["checks"][0]["status"] == "error"
        assert "digests" in report["checks"][0]["detail"]

    def test_tampered_file_raises_persist_error_naming_it(self, tmp_path):
        engine = build_engine("ir2", figure1_hotels())
        target = tmp_path / "saved"
        save_engine(engine, str(target))
        path = target / "objects.dat"
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01  # same size, one flipped bit
        path.write_bytes(bytes(data))
        with pytest.raises(PersistError, match="objects.dat"):
            load_engine(str(target))

    def test_resave_replaces_the_directory_wholesale(self, tmp_path):
        engine = build_engine("ir2", figure1_hotels())
        target = tmp_path / "saved"
        save_engine(engine, str(target))
        junk = target / "leftover.dat"
        junk.write_bytes(b"stale state from an older layout")
        save_engine(engine, str(target))
        assert not junk.exists()
        assert load_engine(str(target)).query(
            (30.5, 100.0), ["internet", "pool"], k=2
        ).oids == [7, 2]
        # No staging/trash siblings survive a successful save either.
        leftovers = [
            name for name in (p.name for p in tmp_path.iterdir())
            if name.startswith("saved.tmp-") or name.startswith("saved.old-")
        ]
        assert leftovers == []
