"""Which public calls each layer is traced through, and its per-layer metrics.

:func:`install` patches every wrapped call into a :class:`tracer.Tracer`
(the same set on every workload, so a layer a workload does not use reads
zero); :func:`layer_metrics` folds a tracer dump into the ``per_layer``
metrics of ``BENCHMARK.json``.

Normalisation.  ``s/unit`` and ``count/unit`` metrics are totals divided by
the workload's units of work: one cold Table I grid on ``paper_table1``,
one cold request on ``service_*``.  ``s/call`` metrics are means per call.
A layer's time counts only its outermost calls (``learn`` inside
``add_record`` is not counted twice).
"""

from __future__ import annotations

from collections import defaultdict

from common import quantile

#: Protocol display names of the Table I roster, in the paper's order.
TABLE1_PROTOCOLS = ("FCAT-2", "FCAT-3", "FCAT-4", "DFSA", "EDFSA", "ABS",
                    "AQS")

_COLLISION = ("collision.add_record", "collision.learn")
_KERNEL_RECORDS = ("kernels.add_record", "kernels.learn")
_KERNEL_DRAWS = ("kernels.draw_slot_counts", "kernels.rank_draw",
                 "kernels.resample_duplicate_slots")
_EMITS = ("obs.emit", "obs.stream_emit")
_CACHE_LOOKUPS = ("result_cache.lookup", "result_cache.lookup_runs",
                  "result_cache.run_prefix")


def install(tracer) -> None:
    """Wrap every traced public call; import order keeps originals intact."""
    import repro.core.collision as collision
    import repro.experiments.executor as executor
    import repro.experiments.result_cache as result_cache
    import repro.kernels.engine as kernel_engine
    import repro.kernels.fcat as kernel_fcat
    import repro.kernels.frame as kernel_frame
    import repro.kernels.records as kernel_records
    import repro.kernels.scat as kernel_scat
    import repro.obs.events as events
    import repro.obs.scope as obs_scope
    import repro.service.core as service_core
    import repro.service.frontend as frontend
    import repro.service.requests as requests
    from repro.experiments.protocols import table1_roster

    cells = {"attrs": lambda args, result: {"cells": len(args[0])}}
    tracer.patch(executor, "execute_cells", "executor.execute_cells",
                 **cells)
    tracer.patch(service_core, "execute_cells", "executor.execute_cells",
                 **cells)

    cache = result_cache.ResultCache
    tracer.patch(cache, "lookup", "result_cache.lookup",
                 attrs=lambda args, result: {"hit": result is not None})
    tracer.patch(cache, "lookup_runs", "result_cache.lookup_runs")
    tracer.patch(cache, "run_prefix", "result_cache.run_prefix")
    tracer.patch(cache, "save", "result_cache.save")

    defining = []
    for protocol in table1_roster():
        owner = next(klass for klass in type(protocol).__mro__
                     if "read_all" in klass.__dict__)
        if owner not in defining:
            defining.append(owner)
    for owner in defining:
        tracer.patch(owner, "read_all", "scalar.read_all",
                     attrs=lambda args, result: {
                         "protocol": args[0].name,
                         "slots": result.total_slots})
    store = collision.RecordStore
    tracer.patch(store, "add_record", "collision.add_record", hot=True,
                 count=lambda result: len(result[1]))
    tracer.patch(store, "learn", "collision.learn", hot=True, count=len)

    tracer.patch(kernel_engine, "run_batch", "kernels.run_batch",
                 attrs=lambda args, result: {
                     "slots": sum(run.total_slots for run in result)})
    tracer.patch(kernel_fcat, "draw_slot_counts", "kernels.draw_slot_counts",
                 hot=True)
    for module in (kernel_fcat, kernel_scat):
        tracer.patch(module, "resample_duplicate_slots",
                     "kernels.resample_duplicate_slots", hot=True)
    tracer.patch(kernel_frame.RankSource, "draw", "kernels.rank_draw",
                 hot=True)
    kstore = kernel_records.KernelRecordStore
    tracer.patch(kstore, "add_record", "kernels.add_record", hot=True,
                 count=len)
    tracer.patch(kstore, "learn", "kernels.learn", hot=True, count=len)

    tracer.patch(obs_scope.Observation, "emit", "obs.emit", hot=True)
    tracer.patch(events.EventStream, "emit", "obs.stream_emit", hot=True)
    tracer.patch(events, "validate_event", "obs.validate_event", hot=True)

    tracer.patch(service_core, "plan_shards", "sharding.plan_shards",
                 attrs=lambda args, result: {"zones": len(result.zones)})
    tracer.patch(frontend, "request_from_dict", "requests.parse")
    tracer.patch(requests.InventoryRequest, "key", "requests.key")
    tracer.patch(service_core, "encode_response", "requests.encode",
                 attrs=lambda args, result: {"bytes": len(result)})
    service = service_core.InventoryService
    tracer.patch(service, "handle", "core.handle",
                 attrs=lambda args, result: {"seed": args[1].seed})
    tracer.patch(service, "manifest", "core.manifest")
    tracer.patch(service, "stats", "core.stats")


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(dump: dict, units: int, cache_bytes: int = 0,
                  client: list[dict] | None = None) -> dict[str, float]:
    """Per-layer metrics from one tracer dump.

    ``units`` is the number of workload units the dump covers; ``client``
    holds the load generator's ``{"seed", "sent", "done"}`` records of
    ``POST /inventory`` calls, matched to ``core.handle`` spans by seed and
    time to give the front end's own share of each request.
    """
    per = max(units, 1)
    spans = dump["spans"]
    rollups = dump["rollups"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(span["end"] - span["start"] for span in by_name[name])

    def rolled(names: tuple[str, ...], outer_only: bool = True) -> list:
        return [entry for entry in rollups if entry["name"] in names
                and not (outer_only and entry["parent_name"] in names)]

    def rolled_time(names: tuple[str, ...]) -> float:
        return sum(entry["total"] for entry in rolled(names))

    def resolved_per_record(names: tuple[str, ...]) -> float:
        records = sum(entry["calls"] for entry in rolled(names, False)
                      if entry["name"] == names[0])
        resolved = sum(entry["count"] for entry in rolled(names))
        return resolved / records if records else 0.0

    metrics: dict[str, float] = {}
    execute = by_name["executor.execute_cells"]
    lookups = by_name["result_cache.lookup"]
    hits = sum(1 for span in lookups if span["attrs"]["hit"])
    metrics["executor.execute_s"] = total("executor.execute_cells") / per
    metrics["executor.self_s"] = sum(span["self"] for span in execute) / per
    metrics["executor.cells_computed"] = (
        sum(span["attrs"]["cells"] for span in execute) - hits) / per
    metrics["executor.cells_cached"] = hits / per

    metrics["result_cache.lookup_s"] = sum(
        total(name) for name in _CACHE_LOOKUPS) / per
    metrics["result_cache.save_s"] = total("result_cache.save") / per
    metrics["result_cache.file_bytes"] = float(cache_bytes)
    metrics["result_cache.hits"] = hits / per
    metrics["result_cache.misses"] = (len(lookups) - hits) / per

    read_all = by_name["scalar.read_all"]
    for protocol in TABLE1_PROTOCOLS:
        runs = [span for span in read_all
                if span["attrs"]["protocol"] == protocol]
        seconds = sum(span["end"] - span["start"] for span in runs)
        slots = sum(span["attrs"]["slots"] for span in runs)
        metrics[f"scalar.{protocol}.read_all_s"] = seconds / per
        metrics[f"scalar.{protocol}.us_per_slot"] = \
            1e6 * seconds / slots if slots else 0.0
    metrics["core.collision.cascade_s"] = rolled_time(_COLLISION) / per
    metrics["core.collision.resolved_per_record"] = \
        resolved_per_record(_COLLISION)

    batch_s = total("kernels.run_batch")
    batch_slots = sum(span["attrs"]["slots"]
                      for span in by_name["kernels.run_batch"])
    draw_s = rolled_time(_KERNEL_DRAWS)
    cascade_s = rolled_time(_KERNEL_RECORDS)
    metrics["kernels.run_batch_s"] = batch_s / per
    metrics["kernels.us_per_slot"] = \
        1e6 * batch_s / batch_slots if batch_slots else 0.0
    metrics["kernels.draw_s"] = draw_s / per
    metrics["kernels.cascade_s"] = cascade_s / per
    metrics["kernels.replay_self_s"] = (batch_s - draw_s - cascade_s) / per
    metrics["kernels.resolved_per_record"] = \
        resolved_per_record(_KERNEL_RECORDS)

    metrics["obs.emit_s"] = rolled_time(_EMITS) / per
    metrics["obs.validate_s"] = rolled_time(("obs.validate_event",)) / per
    metrics["obs.events_per_request"] = sum(
        entry["calls"] for entry in rolled(("obs.stream_emit",), False)) / per

    plans = by_name["sharding.plan_shards"]
    zones_by_request = {span["request"]: span["attrs"]["zones"]
                        for span in plans}
    metrics["sharding.plan_s"] = _mean(
        [span["end"] - span["start"] for span in plans])
    metrics["sharding.cells_per_zone"] = _mean(
        [span["attrs"]["cells"] / zones_by_request[span["request"]]
         for span in execute if span["request"] in zones_by_request])

    encodes = by_name["requests.encode"]
    for metric, name in (("requests.parse_s", "requests.parse"),
                         ("requests.key_s", "requests.key"),
                         ("requests.encode_s", "requests.encode"),
                         ("core.manifest_s", "core.manifest"),
                         ("core.stats_s", "core.stats")):
        metrics[metric] = _mean(
            [span["end"] - span["start"] for span in by_name[name]])
    metrics["requests.response_bytes"] = _mean(
        [float(span["attrs"]["bytes"]) for span in encodes])

    cold_requests = {span["request"] for span in plans}
    handles = by_name["core.handle"]
    cold = [span for span in handles if span["id"] in cold_requests]
    warm = [span for span in handles if span["id"] not in cold_requests]
    metrics["core.handle_cold_s"] = _mean(
        [span["end"] - span["start"] for span in cold])
    metrics["core.self_s"] = sum(span["self"] for span in cold) / per
    metrics["core.handle_warm_p99_s"] = quantile(
        [span["end"] - span["start"] for span in warm], 0.99)

    metrics["frontend.self_p50_s"] = quantile(
        _frontend_self(handles, client or []), 0.50)
    return metrics


def _frontend_self(handles: list[dict], client: list[dict]) -> list[float]:
    """Client latency minus the ``handle`` span served inside it."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for span in handles:
        by_seed[span["attrs"]["seed"]].append(span)
    shares = []
    for record in client:
        for span in by_seed.get(record["seed"], []):
            if record["sent"] <= span["start"] \
                    and span["end"] <= record["done"]:
                shares.append(record["done"] - record["sent"]
                              - (span["end"] - span["start"]))
                break
    return shares


def coverage(dump: dict, windows: list[tuple[float, float]]) -> float:
    """Share of the windows' wall time under some top-level span."""
    intervals = sorted((span["start"], span["end"])
                       for span in dump["spans"] if span["parent"] == 0)
    wall = sum(end - start for start, end in windows)
    covered = 0.0
    for low, high in windows:
        cursor = low
        for start, end in intervals:
            start, end = max(start, cursor), min(end, high)
            if end > start:
                covered += end - start
                cursor = end
    return covered / wall if wall > 0 else 0.0
