"""Unit tests for the IR2/MIR2 signature schemes and level planning."""

from __future__ import annotations

import pytest

from repro.core.schemes import IR2Scheme, MIR2Scheme, plan_level_lengths
from repro.spatial.rtree import NoSignatures
from repro.spatial.geometry import Rect
from repro.text import HashSignatureFactory, Signature


def _leaf_with(factory, docs):
    """Leaf entries ``(child_ref, mbr_coords, signature)``, one per doc."""
    return [
        (i, Rect.from_point((float(i), 0.0)).to_coords(), factory.for_words(terms).to_bytes())
        for i, terms in enumerate(docs)
    ]


class TestNoSignatures:
    def test_zero_everything(self):
        scheme = NoSignatures()
        assert scheme.length_for_level(0) == 0
        assert scheme.object_signature({"a"}) == b""
        assert scheme.subtree_signature(0, [], {"a"}) == b""


class TestIR2Scheme:
    def test_fixed_length(self):
        scheme = IR2Scheme(HashSignatureFactory(8))
        assert scheme.length_for_level(0) == 8
        assert scheme.length_for_level(5) == 8

    def test_parent_is_or_of_entries(self):
        factory = HashSignatureFactory(8)
        scheme = IR2Scheme(factory)
        entries = _leaf_with(factory, [{"a", "b"}, {"c"}])
        parent_sig = Signature.from_bytes(scheme.entry_signature_for_child(None, 0, entries))
        assert parent_sig == factory.for_words({"a", "b", "c"})

    def test_empty_child_gives_zero_signature(self):
        scheme = IR2Scheme(HashSignatureFactory(8))
        assert scheme.entry_signature_for_child(None, 0, []) == bytes(8)

    def test_object_signature(self):
        factory = HashSignatureFactory(8)
        scheme = IR2Scheme(factory)
        assert scheme.object_signature({"pool"}) == factory.for_words({"pool"}).to_bytes()

    def test_subtree_signature_ignores_terms_arg(self):
        factory = HashSignatureFactory(8)
        scheme = IR2Scheme(factory)
        entries = _leaf_with(factory, [{"a"}])
        assert scheme.subtree_signature(0, entries, {"zzz"}) == entries[0][2]


class TestMIR2Scheme:
    def test_level_lengths_clamped(self):
        scheme = MIR2Scheme((4, 8), lambda ptr: set())
        assert scheme.length_for_level(0) == 4
        assert scheme.length_for_level(1) == 8
        assert scheme.length_for_level(9) == 8
        assert scheme.length_for_level(-1) == 4

    def test_empty_lengths_rejected(self):
        with pytest.raises(ValueError):
            MIR2Scheme((), lambda ptr: set())

    def test_subtree_signature_uses_parent_level_factory(self):
        scheme = MIR2Scheme((4, 8, 16), lambda ptr: set())
        sig = scheme.subtree_signature(0, [], {"pool", "spa"})
        assert len(sig) == 8  # child level 0 -> parent level 1
        expected = scheme.factory_for_level(1).for_words({"pool", "spa"})
        assert Signature.from_bytes(sig) == expected

    def test_entry_signature_walks_resolver(self):
        resolved = []

        def resolver(ptr):
            resolved.append(ptr)
            return {f"word{ptr}"}

        scheme = MIR2Scheme((4, 8), resolver)
        leaf = [(5, Rect.from_point((0.0, 0.0)).to_coords(), bytes(4))]
        sig = scheme.entry_signature_for_child(None, 0, leaf)
        assert resolved == [5]
        assert Signature.from_bytes(sig) == scheme.factory_for_level(1).for_words(
            {"word5"}
        )


class TestPlanLevelLengths:
    def test_leaf_length_preserved(self):
        assert plan_level_lengths(8, 14, 70_000, 113)[0] == 8

    def test_growth_bounded_by_vocabulary(self):
        lengths = plan_level_lengths(8, 14, 1_000, 113, max_levels=6)
        ratio = lengths[-1] / lengths[0]
        assert ratio <= 1_000 / 14 + 1

    def test_invalid_leaf_length(self):
        with pytest.raises(ValueError):
            plan_level_lengths(0, 14, 1_000, 113)

    def test_small_branching_grows_slowly(self):
        fast = plan_level_lengths(8, 14, 100_000, 113)
        slow = plan_level_lengths(8, 14, 100_000, 4)
        assert slow[1] <= fast[1]
