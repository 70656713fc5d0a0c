"""Possession index: updates, queries, provenance."""

import tracemalloc

import numpy as np
import pytest

from repro.overlay.blocks import Block
from repro.overlay.store import PossessionIndex

from tests import oracles


@pytest.fixture
def store() -> PossessionIndex:
    store = PossessionIndex(
        {"a0": "A", "a1": "A", "b0": "B", "b1": "B", "c0": "C"}
    )
    store.matrix.intern_job("j", 2)  # BLOCK and BLOCK2
    return store


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
        assert matrix.dup[matrix.gid_of(BLOCK.block_id)] == 2

    def test_a_block_listed_twice_in_one_seed_is_one_copy(self, store):
        store.seed("a0", [BLOCK, BLOCK2, BLOCK])
        store.seed("a0", [BLOCK2])
        assert store.matrix.dup[:2].tolist() == [1, 1]
        assert store.holders(BLOCK.block_id) == {"a0"}

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


class TestSpans:
    def test_blocks_are_rows_of_their_jobs_span(self):
        store = PossessionIndex({"a0": "A", "b0": "B"})
        matrix = store.matrix
        assert matrix.intern_job("x", 3) == 0
        assert matrix.intern_job("y", 2) == 3
        assert matrix.intern_job("x", 3) == 0  # once per job
        with pytest.raises(ValueError):
            matrix.intern_job("y", 5)
        assert matrix.num_blocks == 5
        assert [matrix.gid_of(b) for b in [("x", 2), ("y", 0), ("y", 2)]] == [2, 3, None]
        assert matrix.block_ids(np.arange(5)) == [
            ("x", 0), ("x", 1), ("x", 2), ("y", 0), ("y", 1),
        ]
        with pytest.raises(KeyError):
            store.seed("a0", [Block("z", 0, 1.0)])  # its job has no span

    def test_a_pair_test_holds_two_words_per_pair(self):
        """8 192 (server, block) pairs, one server per pair: the flat word
        index array is reused for the bit masks and the words are ANDed in
        place, so the peak is two 8-byte arrays and the 1-byte answer per
        pair — also when the blocks are a column broadcast against rows of
        senders, as Gingko's deal reads them."""
        store = PossessionIndex({f"s{i:03d}": f"dc{i % 4}" for i in range(200)})
        matrix = store.matrix
        matrix.intern_job("j", 4096)
        rng = np.random.default_rng(0)
        pairs = 8192
        sids, gids = rng.integers(0, 200, pairs), rng.integers(0, 4096, pairs)
        matrix.record_deliveries(sids[::2], gids[::2])
        want = [store.has(f"s{s:03d}", ("j", g)) for s, g in zip(sids, gids)]
        rows, column = sids.reshape(2048, 4), gids[::4, None]
        want_rows = [
            [store.has(f"s{s:03d}", ("j", g)) for s in row]
            for row, g in zip(rows.tolist(), column[:, 0].tolist())
        ]
        for args, expected in [((sids, gids), want), ((rows, column), want_rows)]:
            assert matrix.test_many(*args).tolist() == expected
            tracemalloc.start()
            try:
                matrix.test_many(*args)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 18.5 * pairs
        for n in (255, 256):  # either side of where the direct expression stops
            assert matrix.test_many(sids[:n], gids[:n]).tolist() == want[:n]
