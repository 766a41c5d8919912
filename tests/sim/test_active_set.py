"""ActiveSet: O(1) set with uniform sampling -- model-based and statistical
tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim.active_set import ActiveSet


class TestBasics:
    def test_add_len_contains(self):
        active = ActiveSet([1, 2, 3])
        assert len(active) == 3
        assert 2 in active and 5 not in active

    def test_add_is_idempotent(self):
        active = ActiveSet()
        active.add(7)
        active.add(7)
        assert len(active) == 1

    def test_remove_middle_last_and_missing(self):
        active = ActiveSet([1, 2, 3])
        active.remove(2)       # middle: triggers swap-with-last
        active.remove(3)       # now last
        assert list(active) == [1]
        with pytest.raises(KeyError):
            active.remove(99)

    def test_discard(self):
        active = ActiveSet([1])
        assert active.discard(1) is True
        assert active.discard(1) is False

    def test_iteration_matches_membership(self):
        items = [10, 20, 30, 40]
        active = ActiveSet(items)
        active.remove(20)
        assert sorted(active) == [10, 30, 40]


class TestSampling:
    def test_sample_bounds(self, rng):
        active = ActiveSet(range(10))
        with pytest.raises(ValueError):
            active.sample(11, rng)
        with pytest.raises(ValueError):
            active.sample(-1, rng)
        assert active.sample(0, rng) == []
        assert sorted(active.sample(10, rng)) == list(range(10))

    def test_sample_distinct(self, rng):
        active = ActiveSet(range(100))
        for k in (1, 3, 50, 60, 99):
            drawn = active.sample(k, rng)
            assert len(drawn) == k
            assert len(set(drawn)) == k

    def test_sample_uniform(self, rng):
        """Each member should be drawn ~k/n of the time."""
        active = ActiveSet(range(20))
        counts = np.zeros(20)
        trials = 4000
        for _ in range(trials):
            for item in active.sample(3, rng):
                counts[item] += 1
        expected = trials * 3 / 20
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))

    def test_binomial_sampling_rate(self, rng):
        active = ActiveSet(range(500))
        p = 0.01
        total = sum(len(active.sample_binomial(p, rng)) for _ in range(2000))
        expected = 2000 * 500 * p
        assert abs(total - expected) < 5 * np.sqrt(expected)

    def test_binomial_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            ActiveSet([1]).sample_binomial(1.5, rng)

    def test_binomial_on_empty_set(self, rng):
        assert ActiveSet().sample_binomial(0.5, rng) == []

    def test_sample_order_is_rng_determined(self):
        """Same RNG stream -> same returned *order*, not just the same set.

        The rejection-sampling branch used to index through a ``set`` of
        positions, leaking hash-iteration order into the transmitter order
        (and thus into slot outcomes).  Positions are now sorted, so the
        result is a pure function of the draws -- the property the parallel
        sweep executor's serial==parallel guarantee rests on.
        """
        items = [(3, "c"), (1, "a"), (4, "d"), (2, "b"), (9, "e"),
                 (7, "f"), (5, "g"), (6, "h"), (8, "i"), (0, "j")]
        for k in (1, 2, 3, 5):  # k <= n // 2: the rejection branch
            first = ActiveSet(items).sample(
                k, np.random.default_rng(1234))
            second = ActiveSet(items).sample(
                k, np.random.default_rng(1234))
            assert first == second

    def test_rejection_sample_order_follows_positions(self):
        """Rejection-sampled items come back in insertion-position order."""
        active = ActiveSet(range(100))
        drawn = active.sample(10, np.random.default_rng(7))
        positions = [list(active).index(item) for item in drawn]
        assert positions == sorted(positions)


def _reference_sample(items: list, k: int,
                      rng: np.random.Generator) -> list:
    """The sampler with one scalar ``integers`` draw per attempt."""
    n = len(items)
    if k == 0:
        return []
    if k == n:
        return list(items)
    if k > n // 2:
        return [items[int(p)] for p in rng.permutation(n)[:k]]
    chosen: set[int] = set()
    while len(chosen) < k:
        chosen.add(int(rng.integers(0, n)))
    return [items[p] for p in sorted(chosen)]


def _shuffled_set(n: int) -> ActiveSet:
    """An ActiveSet whose positions went through removals and re-adds."""
    active = ActiveSet(range(n + n // 3))
    for item in range(0, n + n // 3, 4)[: n // 3]:
        active.remove(item)
    return active


class TestDrawEquivalence:
    """``sample`` batches its rejection draws; these tests show that it
    returns the same items, and leaves the generator in the same state, as
    one scalar draw per attempt (the order the golden results pin)."""

    @pytest.mark.parametrize("n", [60, 4000])
    @pytest.mark.parametrize("interleave", [False, True])
    def test_sample_matches_one_draw_per_attempt(self, n, interleave):
        active = _shuffled_set(n)
        items = list(active)
        assert len(items) == n
        ours = np.random.default_rng(2024)
        reference = np.random.default_rng(2024)
        for _ in range(40):
            for k in (1, 2, 3, 4, 17, n // 2, n):
                assert active.sample(k, ours) == \
                    _reference_sample(items, k, reference)
                if interleave:
                    assert ours.binomial(n, 0.3) == \
                        reference.binomial(n, 0.3)
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("p", [0.001, 0.05, 0.3, 0.7])
    def test_sample_binomial_matches_one_draw_per_attempt(self, p):
        active = _shuffled_set(300)
        ours = np.random.default_rng(77)
        reference = np.random.default_rng(77)
        for _ in range(200):
            items = list(active)
            k = int(reference.binomial(len(items), p))
            drawn = active.sample_binomial(p, ours)
            assert drawn == _reference_sample(items, k, reference)
            if drawn:  # shrink the set the way a session does
                active.discard(drawn[0])
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_bulk_construction_matches_one_add_per_item(self):
        items = [5, 3, 5, 9, 1, 3, 7]
        one_by_one = ActiveSet()
        for item in items:
            one_by_one.add(item)
        bulk = ActiveSet(items)
        assert list(bulk) == list(one_by_one) == [5, 3, 9, 1, 7]
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        assert bulk.sample(2, rng_a) == one_by_one.sample(2, rng_b)


class ActiveSetMachine(RuleBasedStateMachine):
    """Model-based check against a plain Python set."""

    def __init__(self):
        super().__init__()
        self.subject = ActiveSet()
        self.model: set[int] = set()
        self.rng = np.random.default_rng(99)

    @rule(item=st.integers(0, 50))
    def add(self, item):
        self.subject.add(item)
        self.model.add(item)

    @rule(item=st.integers(0, 50))
    def discard(self, item):
        assert self.subject.discard(item) == (item in self.model)
        self.model.discard(item)

    @rule(k_fraction=st.floats(0.0, 1.0))
    def sample(self, k_fraction):
        k = int(k_fraction * len(self.model))
        drawn = self.subject.sample(k, self.rng)
        assert len(drawn) == k
        assert set(drawn) <= self.model

    @invariant()
    def same_contents(self):
        assert len(self.subject) == len(self.model)
        assert set(self.subject) == self.model


TestActiveSetModel = ActiveSetMachine.TestCase
TestActiveSetModel.settings = settings(max_examples=30,
                                       stateful_step_count=40,
                                       deadline=None)
