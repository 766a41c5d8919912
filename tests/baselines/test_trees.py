"""Tree-based protocols: ABS, AQS, query tree, binary tree and the shared
splitting engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.air.ids import ID_BITS, id_to_bits
from repro.baselines.abs_protocol import AdaptiveBinarySplitting
from repro.baselines.aqs import AdaptiveQuerySplitting
from repro.baselines.binary_tree import BinaryTree
from repro.baselines.query_tree import QueryTree, population_bit_matrix
from repro.baselines.splitting import id_bit_splitter, random_bit_splitter
from repro.sim.channel import ChannelModel
from repro.sim.population import TagPopulation

ALL_TREES = [AdaptiveBinarySplitting, AdaptiveQuerySplitting, BinaryTree,
             QueryTree]


class TestSplitters:
    def test_random_bit_splitter_partitions(self, rng):
        splitter = random_bit_splitter(rng)
        members = np.arange(100)
        left, right = splitter(members, 0)
        assert sorted(np.concatenate([left, right])) == list(range(100))

    @pytest.mark.parametrize("size", [2, 3, 9])
    def test_random_bit_splitter_matches_one_array_draw(self, size):
        """Two scalar draws for a pair split exactly like the array draw."""
        ours = np.random.default_rng(31)
        reference = np.random.default_rng(31)
        splitter = random_bit_splitter(ours)
        members = np.arange(10, 10 + size)
        for _ in range(64):
            left, right = splitter(members, 0)
            bits = reference.integers(0, 2, size=members.size)
            assert left.tolist() == members[bits == 0].tolist()
            assert right.tolist() == members[bits == 1].tolist()
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_population_bit_matrix_matches_id_to_bits(self, rng):
        population = TagPopulation.random(300, rng)
        bits = population_bit_matrix(population)
        assert bits.shape == (300, ID_BITS) and bits.dtype == np.uint8
        for row, tag in zip(bits, population.ids):
            assert np.array_equal(row, id_to_bits(tag))

    def test_population_bit_matrix_of_empty_population(self):
        bits = population_bit_matrix(TagPopulation([]))
        assert bits.shape == (0, ID_BITS) and bits.dtype == np.uint8

    def test_id_bit_splitter_partitions_by_bit(self, rng):
        population = TagPopulation.random(64, rng)
        bits = population_bit_matrix(population)
        splitter = id_bit_splitter(bits)
        members = np.arange(64)
        left, right = splitter(members, 5)
        assert np.all(bits[left, 5] == 0)
        assert np.all(bits[right, 5] == 1)

    def test_id_bit_splitter_duplicate_guard(self):
        bits = np.zeros((2, 4), dtype=np.uint8)  # two identical "IDs"
        splitter = id_bit_splitter(bits)
        with pytest.raises(RuntimeError):
            splitter(np.array([0, 1]), 4)

    def test_id_bit_splitter_lone_tag_past_last_bit(self):
        bits = np.zeros((1, 4), dtype=np.uint8)
        splitter = id_bit_splitter(bits)
        left, right = splitter(np.array([0]), 4)
        assert left.size == 1 and right.size == 0


class TestCompleteness:
    @pytest.mark.parametrize("protocol_cls", ALL_TREES)
    def test_reads_all(self, small_population, protocol_cls):
        result = protocol_cls().read_all(small_population,
                                         np.random.default_rng(1))
        assert result.complete
        assert result.singleton_slots >= len(small_population)

    @pytest.mark.parametrize("protocol_cls", ALL_TREES)
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_populations(self, protocol_cls, n):
        population = TagPopulation.random(n, np.random.default_rng(n + 7))
        result = protocol_cls().read_all(population,
                                         np.random.default_rng(3))
        assert result.complete

    @pytest.mark.parametrize("protocol_cls", ALL_TREES)
    def test_error_injection(self, small_population, protocol_cls):
        channel = ChannelModel(singleton_corrupt_prob=0.1, ack_loss_prob=0.1)
        result = protocol_cls().read_all(small_population,
                                         np.random.default_rng(3),
                                         channel=channel)
        assert result.complete


class TestSlotBudgets:
    def test_abs_uses_about_2_88_n_slots(self, medium_population):
        """Capetanakis: ~2.88 slots per tag, the paper's Table II split."""
        result = AdaptiveBinarySplitting().read_all(
            medium_population, np.random.default_rng(1))
        n = len(medium_population)
        assert result.total_slots == pytest.approx(2.88 * n, rel=0.07)
        assert result.singleton_slots == n
        assert result.collision_slots == pytest.approx(1.44 * n, rel=0.10)

    def test_aqs_close_to_abs(self, medium_population):
        abs_result = AdaptiveBinarySplitting().read_all(
            medium_population, np.random.default_rng(1))
        aqs_result = AdaptiveQuerySplitting().read_all(
            medium_population, np.random.default_rng(1))
        assert aqs_result.total_slots == pytest.approx(
            abs_result.total_slots, rel=0.08)

    def test_tree_counting_identity(self, medium_population):
        """In a full binary tree: internal nodes (collisions) = leaves - 1,
        and leaves = singletons + empties (plus the seed adjustment)."""
        result = BinaryTree().read_all(medium_population,
                                       np.random.default_rng(1))
        leaves = result.singleton_slots + result.empty_slots
        assert result.collision_slots == leaves - 1


class TestRereads:
    def test_abs_reread_is_collision_free(self, small_population, rng):
        protocol = AdaptiveBinarySplitting()
        result = protocol.reread(small_population, rng)
        assert result.complete
        assert result.collision_slots == 0
        assert result.total_slots == len(small_population)

    def test_abs_reread_with_errors_retries(self, small_population, rng):
        channel = ChannelModel(singleton_corrupt_prob=0.2)
        result = AdaptiveBinarySplitting().reread(small_population, rng,
                                                  channel=channel)
        assert result.complete
        assert result.collision_slots > 0  # garbled slots count as retries

    def test_aqs_reread_unchanged_population(self, small_population, rng):
        protocol = AdaptiveQuerySplitting()
        leaf_depths = {tag: 20 for tag in small_population.ids}
        result = protocol.reread(small_population, rng, leaf_depths)
        assert result.complete
        assert result.collision_slots == 0

    def test_aqs_reread_with_arrivals_and_departures(self, rng):
        population = TagPopulation.random(60, rng)
        protocol = AdaptiveQuerySplitting()
        remembered = {tag: 12 for tag in population.ids[:40]}
        remembered[123456789] = 9  # a tag that has since departed
        result = protocol.reread(population, rng, remembered)
        assert result.complete
        assert result.empty_slots >= 1  # the departed tag's silent leaf
