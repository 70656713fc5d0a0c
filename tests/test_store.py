"""Possession index: updates, queries, provenance."""

import pytest

from repro.overlay.blocks import Block
from repro.overlay.store import PossessionIndex

from tests import oracles


@pytest.fixture
def store() -> PossessionIndex:
    return PossessionIndex(
        {"a0": "A", "a1": "A", "b0": "B", "b1": "B", "c0": "C"}
    )


BLOCK = Block(job_id="j", index=0, size=100.0)
BLOCK2 = Block(job_id="j", index=1, size=100.0)


class TestSeedAndQuery:
    def test_seed_makes_holder(self, store):
        store.seed("a0", [BLOCK])
        assert store.has("a0", BLOCK.block_id)
        assert store.holders(BLOCK.block_id) == {"a0"}

    def test_seed_produces_no_delivery_records(self, store):
        store.seed("a0", [BLOCK])
        assert store.deliveries == []

    def test_duplicate_count(self, store):
        store.seed("a0", [BLOCK])
        store.seed("b0", [BLOCK])
        matrix = store.matrix
        assert matrix.dup[matrix.block_gids[BLOCK.block_id]] == 2

    def test_unknown_block_has_zero_duplicates(self, store):
        assert store.holders(("j", 99)) == set()

    def test_dc_has_block(self, store):
        store.seed("a0", [BLOCK])
        assert oracles.dc_has_block(store, "A", BLOCK.block_id)
        assert not oracles.dc_has_block(store, "B", BLOCK.block_id)

    def test_dc_copy_count(self, store):
        store.seed("a0", [BLOCK])
        store.seed("a1", [BLOCK])
        assert oracles.dc_copy_count(store, "A", BLOCK.block_id) == 2

    def test_blocks_on(self, store):
        store.seed("a0", [BLOCK, BLOCK2])
        assert oracles.blocks_on(store, "a0") == {BLOCK.block_id, BLOCK2.block_id}

    def test_unknown_server_rejected(self, store):
        with pytest.raises(KeyError):
            store.seed("ghost", [BLOCK])


class TestDeliveries:
    def test_record_delivery_updates_index(self, store):
        store.seed("a0", [BLOCK])
        record = store.record_delivery(BLOCK, "a0", "b0", time=5.0, origin_dc="A")
        assert record is not None
        assert record.from_origin_dc
        assert store.has("b0", BLOCK.block_id)

    def test_duplicate_delivery_is_noop(self, store):
        store.seed("a0", [BLOCK])
        store.record_delivery(BLOCK, "a0", "b0", 1.0, "A")
        again = store.record_delivery(BLOCK, "a0", "b0", 2.0, "A")
        assert again is None
        assert len(store.deliveries) == 1

    def test_overlay_delivery_not_from_origin(self, store):
        store.seed("a0", [BLOCK])
        store.record_delivery(BLOCK, "a0", "b0", 1.0, "A")
        record = store.record_delivery(BLOCK, "b0", "c0", 2.0, "A")
        assert record is not None
        assert not record.from_origin_dc

    def test_origin_fraction_by_server(self, store):
        store.seed("a0", [BLOCK, BLOCK2])
        store.record_delivery(BLOCK, "a0", "b0", 1.0, "A")  # from origin
        store.record_delivery(BLOCK2, "a0", "c0", 1.0, "A")  # from origin
        store.record_delivery(BLOCK, "b0", "c0", 2.0, "A")  # overlay
        fractions = store.origin_fraction_by_server()
        assert fractions["b0"] == 1.0
        assert fractions["c0"] == 0.5

    def test_origin_fraction_empty(self, store):
        assert store.origin_fraction_by_server() == {}

