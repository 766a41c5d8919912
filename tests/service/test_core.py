"""The service core: byte-identity, warm paths, dedup, observability."""

from __future__ import annotations

import json
import threading

import pytest

from repro.experiments.result_cache import ResultCache
from repro.obs.report import cross_check_manifest
from repro.service.core import InventoryService, ServiceConfig
from repro.service.requests import InventoryRequest

REQUEST = InventoryRequest(n_tags=600, zones=6, seed=11, runs=2)


def test_identical_request_returns_identical_bytes():
    service = InventoryService()
    assert service.handle(REQUEST) == service.handle(REQUEST)


def test_bytes_identical_across_instances_and_jobs():
    serial = InventoryService(ServiceConfig(jobs=1))
    parallel = InventoryService(ServiceConfig(jobs=4))
    assert serial.handle(REQUEST) == parallel.handle(REQUEST)


def test_bytes_identical_under_concurrency():
    service = InventoryService(ServiceConfig(jobs=2))
    responses: list[bytes] = []
    lock = threading.Lock()

    def worker() -> None:
        response = service.handle(REQUEST)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(set(responses)) == 1
    assert responses[0] == InventoryService().handle(REQUEST)


def test_warm_request_skips_the_executor():
    service = InventoryService()
    service.handle(REQUEST)
    cells_after_cold = len(service.obs.cells)
    service.handle(REQUEST)
    assert len(service.obs.cells) == cells_after_cold  # no new simulation
    done = [event for event in service.obs.events.events
            if event.name == "request_done"]
    assert [event.fields["cached"] for event in done] == [False, True]


def test_result_cache_warms_across_service_instances(tmp_path):
    cache_path = tmp_path / "cache.json"
    cold = InventoryService(ServiceConfig(cache=ResultCache(cache_path)))
    response = cold.handle(REQUEST)
    cold.config.cache.save()

    warm = InventoryService(ServiceConfig(cache=ResultCache(cache_path)))
    assert warm.handle(REQUEST) == response
    cell_done = [event for event in warm.obs.events.events
                 if event.name == "cell_done"]
    assert cell_done and all(event.fields["cached"] for event in cell_done)
    hits = [event for event in warm.obs.events.events
            if event.name == "cache_hit"]
    assert hits


def test_exchangeable_zones_share_cells():
    service = InventoryService()
    payload = json.loads(service.handle(
        InventoryRequest(n_tags=1600, zones=16, seed=5)))
    # A 16-zone even ring has far fewer distinct (n, frame, channel)
    # configurations than zones.
    assert payload["plan"]["distinct_cells"] < 16
    assert payload["plan"]["zones"] == 16
    assert len(service.obs.cells) == payload["plan"]["distinct_cells"]


def test_payload_shape_and_rollups():
    service = InventoryService()
    payload = json.loads(service.handle(REQUEST))
    assert payload["schema"] == "repro-inventory/1"
    assert payload["request_key"] == REQUEST.key()
    assert payload["facility"]["unique_tags"] == 600
    assert sum(zone["exclusive_tags"] for zone in payload["zones"]) == 600
    assert len(payload["facility"]["phase_durations_s"]) \
        == payload["plan"]["phases"]
    assert payload["facility"]["read_time_s"] == pytest.approx(
        sum(payload["facility"]["phase_durations_s"]))
    assert payload["facility"]["throughput"] > 0
    for zone in payload["zones"]:
        assert zone["runs"] == REQUEST.runs
        assert zone["throughput_mean"] > 0


def test_capped_phases_produce_interfered_zones():
    service = InventoryService()
    payload = json.loads(service.handle(
        InventoryRequest(n_tags=800, zones=8, seed=2, max_phases=1)))
    assert payload["plan"]["phases"] == 1
    assert payload["plan"]["interfered_zones"] == 8
    assert all(zone["interference_load"] > 0 for zone in payload["zones"])


def test_manifest_cross_checks_against_metrics_dump():
    service = InventoryService()
    service.handle(REQUEST)
    service.handle(InventoryRequest(n_tags=300, zones=3, seed=1))
    events = service.metrics_events()
    manifest = service.manifest()
    assert cross_check_manifest(events, manifest) == []
    assert manifest.cells


def test_stats_accounting():
    service = InventoryService()
    service.handle(REQUEST)
    service.handle(REQUEST)
    stats = service.stats()
    assert stats["requests_served"] == 2
    assert stats["responses_cached"] == 1
    assert stats["distinct_requests"] == 1
    assert stats["events"]["request_start"] == 2
    assert stats["events"]["shard_plan"] == 1
    assert "request.latency_s" in stats["metrics"]["histograms"]
    quantiles = service.latency_quantiles()
    assert quantiles["count"] == 2.0
    assert quantiles["p99_s"] >= quantiles["p50_s"] >= 0.0


#: Events a cold request may emit: request, plan, cell, session and
#: frame tiers only -- nothing whose count grows with slots or with ANC
#: resolutions.
FRAME_TIER_EVENTS = {"request_start", "shard_plan", "cell_done", "chunk_done",
                     "session", "frame", "estimator_update",
                     "termination_probe", "shard_done", "request_done"}


def test_service_telemetry_scales_with_frames_not_resolutions():
    """Per cold request: at most two events per frame (``frame`` and
    ``estimator_update``), one per zone (``shard_done``), and a handful
    per request, cell and session -- thousands of tags, tens of events."""
    service = InventoryService()
    for request in (InventoryRequest(n_tags=3000, zones=3, seed=21),
                    InventoryRequest(n_tags=4000, zones=4, seed=22)):
        before = len(service.obs.events)
        payload = json.loads(service.handle(request))
        added = service.obs.events.events[before:]
        assert {event.name for event in added} <= FRAME_TIER_EVENTS
        frames = sum(event.fields["frames"] for event in added
                     if event.name == "session")
        resolved = sum(event.fields["resolved_from_collision"]
                       for event in added if event.name == "session")
        assert resolved > len(added)  # resolutions no longer cost events
        assert len(added) <= 2 * frames + request.zones + 10
        assert payload["facility"]["unique_tags"] == request.n_tags


def test_scalar_and_kernel_engines_both_serve():
    service = InventoryService()
    kernel = json.loads(service.handle(
        InventoryRequest(n_tags=200, zones=2, seed=3, engine="kernel")))
    scalar = json.loads(service.handle(
        InventoryRequest(n_tags=200, zones=2, seed=3, engine="scalar")))
    # Different engines are different cells: both succeed, keys differ.
    assert kernel["request_key"] != scalar["request_key"]
    assert kernel["facility"]["throughput"] > 0
    assert scalar["facility"]["throughput"] > 0


def test_adaptive_precision_request():
    service = InventoryService()
    payload = json.loads(service.handle(
        InventoryRequest(n_tags=400, zones=4, seed=8, runs=12,
                         precision=0.2)))
    assert payload["facility"]["throughput"] > 0
    stops = [event for event in service.obs.events.events
             if event.name == "planner_stop"]
    assert stops


def test_config_validates_jobs():
    with pytest.raises(ValueError, match="jobs"):
        ServiceConfig(jobs=0)
