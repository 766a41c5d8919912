"""The content-addressed result cache: correctness before speed."""

from __future__ import annotations

import dataclasses
import json

from repro.air.timing import ICODE_TIMING
from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.experiments.result_cache import (
    ResultCache,
    canonical_fingerprint,
    cell_key,
    package_signature,
    run_range_key,
)
from repro.experiments.runner import run_cell
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import AggregateResult


class TestCanonicalFingerprint:
    def test_primitives_pass_through(self):
        assert canonical_fingerprint(3) == 3
        assert canonical_fingerprint(1.5) == 1.5
        assert canonical_fingerprint("x") == "x"
        assert canonical_fingerprint(None) is None

    def test_dataclass_captures_type_and_fields(self):
        fp = canonical_fingerprint(ChannelModel(ack_loss_prob=0.25))
        assert "ChannelModel" in fp
        assert fp["ChannelModel"]["ack_loss_prob"] == 0.25

    def test_dict_key_order_is_canonical(self):
        assert canonical_fingerprint({"b": 1, "a": 2}) \
            == canonical_fingerprint({"a": 2, "b": 1})

    def test_protocol_instances_fingerprint_their_config(self):
        a = json.dumps(canonical_fingerprint(Fcat(lam=2)), sort_keys=True)
        b = json.dumps(canonical_fingerprint(Fcat(lam=2)), sort_keys=True)
        c = json.dumps(canonical_fingerprint(Fcat(lam=2, frame_size=64)),
                       sort_keys=True)
        assert a == b
        assert a != c


class TestCellKey:
    def test_distinct_channel_distinct_key(self):
        base = cell_key(Dfsa(), 100, 3, 1, PERFECT_CHANNEL, ICODE_TIMING)
        noisy = cell_key(Dfsa(), 100, 3, 1,
                         ChannelModel(collision_unusable_prob=0.5),
                         ICODE_TIMING)
        assert base != noisy

    def test_key_is_a_sha256_hex(self):
        key = cell_key(Dfsa(), 100, 3, 1, PERFECT_CHANNEL, ICODE_TIMING)
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestResultCacheRoundTrip:
    def test_cold_then_warm_equality(self, tmp_path):
        path = tmp_path / "cache.json"
        cold = run_cell(Fcat(lam=2), n_tags=120, runs=3, seed=5,
                        cache=ResultCache(path))
        warm_cache = ResultCache(path)
        warm = run_cell(Fcat(lam=2), n_tags=120, runs=3, seed=5,
                        cache=warm_cache)
        for field in dataclasses.fields(AggregateResult):
            assert getattr(cold, field.name) == getattr(warm, field.name)
        assert warm_cache.hits == 1
        assert warm_cache.misses == 0

    def test_config_change_invalidates_by_address(self, tmp_path):
        path = tmp_path / "cache.json"
        run_cell(Fcat(lam=2), n_tags=120, runs=2, seed=5,
                 cache=ResultCache(path))
        cache = ResultCache(path)
        run_cell(Fcat(lam=2, omega=1.1), n_tags=120, runs=2, seed=5,
                 cache=cache)
        assert cache.hits == 0
        assert cache.misses == 1

    def test_signature_mismatch_empties_the_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        stale = ResultCache(path, signature="old-source-tree")
        cold = run_cell(Dfsa(), n_tags=80, runs=2, seed=9, cache=stale)
        fresh = ResultCache(path, signature="new-source-tree")
        assert len(fresh) == 0
        recomputed = run_cell(Dfsa(), n_tags=80, runs=2, seed=9, cache=fresh)
        assert fresh.hits == 0
        assert cold == recomputed  # same spec, same result, either way

    def test_corrupt_cache_file_is_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")
        cache = ResultCache(path)
        assert len(cache) == 0
        run_cell(Dfsa(), n_tags=50, runs=2, seed=3, cache=cache)
        # and the save overwrote the corrupt file with a valid one
        assert len(ResultCache(path)) == 1

    def test_failed_save_keeps_the_previous_entries(self, tmp_path,
                                                    disk_full):
        path = tmp_path / "cache.json"
        kept = run_cell(Dfsa(), n_tags=50, runs=2, seed=3,
                        cache=ResultCache(path))
        with disk_full():
            run_cell(Dfsa(), n_tags=60, runs=2, seed=3,
                     cache=ResultCache(path))
        reloaded = ResultCache(path)
        assert len(reloaded) == 1
        assert run_cell(Dfsa(), n_tags=50, runs=2, seed=3,
                        cache=reloaded) == kept
        assert reloaded.hits == 1
        assert [entry.name for entry in tmp_path.iterdir()] == ["cache.json"]

    def test_save_without_stores_is_a_noop(self, tmp_path):
        path = tmp_path / "cache.json"
        ResultCache(path).save()
        assert not path.exists()


class TestRunRangeEntries:
    """Per-run partials: what the adaptive planner stores and resumes."""

    @staticmethod
    def _values(start, stop):
        from repro.sim.result import RunMetrics
        return [RunMetrics(throughput=float(i), total_slots=i,
                           empty_slots=0, singleton_slots=i,
                           collision_slots=0, resolved_from_collision=0)
                for i in range(start, stop)]

    def test_exact_range_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cache.store_runs("k", 0, self._values(0, 4))
        assert cache.lookup_runs("k", 0, 4) == self._values(0, 4)
        assert cache.run_hits == 1
        assert cache.lookup_runs("k", 4, 8) is None
        assert cache.run_misses == 1

    def test_covering_span_serves_sub_ranges(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cache.store_runs("k", 0, self._values(0, 10))
        assert cache.lookup_runs("k", 3, 7) == self._values(3, 7)

    def test_prefix_spans_overlapping_batches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cache.store_runs("k", 0, self._values(0, 3))
        cache.store_runs("k", 3, self._values(3, 6))
        cache.store_runs("k", 2, self._values(2, 8))  # overlaps both
        cache.store_runs("k", 9, self._values(9, 12))  # gap at 8
        assert cache.run_prefix("k", 100) == self._values(0, 8)
        assert cache.run_prefix("k", 5) == self._values(0, 5)
        assert cache.run_prefix("other", 5) == []

    def test_ranges_survive_a_save_load_cycle(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path)
        cache.store_runs("k", 2, self._values(2, 6))
        cache.save()
        reloaded = ResultCache(path)
        assert reloaded.lookup_runs("k", 2, 6) == self._values(2, 6)
        assert "1 ranges" in reloaded.stats()

    def test_run_range_key_ignores_runs_but_not_engine(self):
        base = run_range_key(Dfsa(), 100, 1, PERFECT_CHANNEL, ICODE_TIMING)
        kernel = run_range_key(Dfsa(), 100, 1, PERFECT_CHANNEL, ICODE_TIMING,
                               engine="kernel")
        assert base != kernel
        assert base != cell_key(Dfsa(), 100, 3, 1, PERFECT_CHANNEL,
                                ICODE_TIMING)


class TestPackageSignature:
    def test_signature_is_memoized_and_hex(self):
        first = package_signature()
        assert first == package_signature()
        assert len(first) == 64
        int(first, 16)

    def test_default_cache_binds_to_package_signature(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        assert cache.signature == package_signature()
