#!/usr/bin/env python
"""Benchmark harness for the simulation engines (writes ``BENCH_7.json``).

Times representative cells (FCAT-2/3/4 and DFSA at N in {500, 5000, 10000})
through both engines -- the scalar per-slot reference and the
frame-at-once kernels (``src/repro/kernels/``) -- then races the FCAT
sweep three ways: serial (``jobs=1``), parallel (``--jobs``), and
cache-served (cold fill followed by a warm rerun).  The JSON artefact
records wall-clock, speedup and cache-hit statistics so the perf
trajectory of the engines and the executor is pinned across PRs::

    PYTHONPATH=src python scripts/bench.py                  # full grid
    PYTHONPATH=src python scripts/bench.py --smoke          # CI-sized grid
    PYTHONPATH=src python scripts/bench.py --jobs 8 --out BENCH_7.json

Speedup accounting: ``kernel_speedup`` is scalar/kernel per cell, both
engines timed interleaved in one process (best of ``--repeats`` each) so
the pairing is same-machine, same-moment -- CPU frequency drift between
separate runs on shared hardware easily exceeds the effect under
measurement.  ``speedup`` is serial/parallel for the sweep;
``best_speedup`` is serial over the fastest non-serial mode (parallel or
warm cache), which is what a rerun actually experiences.

Schema 4 adds the ``planner`` section: the same protocol/N roster run
paired adaptive-vs-fixed (nominal 100 runs, kernel engine).  Each cell
reports ``run_reduction`` (nominal over adaptively assigned runs) and
``within_ci``.  The adaptive estimate is a *prefix* of the fixed-budget
sample (shared seeds), so the exact sampling SD of the adaptive-minus-
fixed difference is ``s * sqrt(|1/k - 1/R|)`` with ``s`` the fixed
sample std, ``k`` the adaptive run count and ``R`` the nominal budget;
``within_ci`` asserts every reported metric's difference lies inside
the 95% interval that SD implies.  The section also pins
``planner_jobs_invariant``: adaptive results are bit-identical between
``jobs=1`` and ``jobs=4``.

Schema 5 adds the ``service`` section: the sharded inventory service
(``repro.service``) load-driven through its real asyncio HTTP front end
by ``scripts/serve_demo.py``'s driver.  The full grid inventories a
1M-tag facility across 20 zones; the section records request-latency
quantiles from the service's own ``repro.obs`` histograms (the p99 the
acceptance bar quotes), warm-path accounting and the byte-identity
verdict of the cold/warm/concurrent passes.

The ``observability`` section times its cell twice: on the scalar engine
(``enabled_overhead_pct``) and on the kernel engine
(``kernel_enabled_overhead_pct``), where the simulation is cheap enough
that per-frame, per-session and per-cell telemetry costs show undiluted.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core import Fcat  # noqa: E402
from repro.baselines.dfsa import Dfsa  # noqa: E402
from repro.experiments.executor import (  # noqa: E402
    CellSpec,
    default_jobs,
    execute_run_metrics,
)
from repro.experiments.planner import (  # noqa: E402
    PlannerConfig,
    plan_cells,
)
from repro.experiments.result_cache import ResultCache  # noqa: E402
from repro.experiments.runner import run_cell, sweep  # noqa: E402
from repro.obs.scope import observe  # noqa: E402
from repro.sim.result import aggregate_metrics  # noqa: E402

SCHEMA = "repro-bench/5"
BENCH_NAME = "BENCH_7"

#: AggregateResult column -> the per-run RunMetrics field it averages;
#: the "reported metrics" the planner's within-CI check covers.
REPORTED_METRICS = {
    "throughput_mean": "throughput",
    "empty_mean": "empty_slots",
    "singleton_mean": "singleton_slots",
    "collision_mean": "collision_slots",
    "total_slots_mean": "total_slots",
    "resolved_mean": "resolved_from_collision",
}


def _bench4_reference() -> dict[tuple[str, int, int], float]:
    """BENCH_4's ``serial_s`` per (protocol, N, runs) cell, when present.

    The committed BENCH_4 recorded the scalar engine before the kernels
    existed; ISSUE 8's acceptance bar (>= 10x on the N=10000 FCAT cells)
    is quoted against those fixed numbers, so each cell row carries them
    alongside the fresh same-process pairing.
    """
    path = Path(__file__).resolve().parent.parent / "BENCH_4.json"
    if not path.is_file():
        return {}
    bench4 = json.loads(path.read_text())
    return {(cell["protocol"], cell["n_tags"], cell["runs"]):
            cell["serial_s"] for cell in bench4.get("cells", [])}


def bench_cells(n_values: list[int], runs: int, seed: int,
                repeats: int = 3) -> list[dict]:
    """Paired scalar-vs-kernel wall-clock of each representative cell.

    Engines alternate inside each repeat and the best repeat per engine
    is kept, so ``kernel_speedup`` compares the two engines under the
    same transient machine state.  Results are asserted identical across
    repeats only implicitly (same seed, deterministic engines); the
    statistical equivalence of the two engines is pinned by
    ``tests/kernels/``, not here.
    """
    reference = _bench4_reference()
    rows = []
    for protocol in [Fcat(lam=2), Fcat(lam=3), Fcat(lam=4), Dfsa()]:
        for n_tags in n_values:
            best = {"scalar": float("inf"), "kernel": float("inf")}
            cells = {}
            for _ in range(repeats):
                for engine in ("scalar", "kernel"):
                    started = time.perf_counter()
                    cells[engine] = run_cell(protocol, n_tags, runs, seed,
                                             engine=engine)
                    elapsed = time.perf_counter() - started
                    if elapsed < best[engine]:
                        best[engine] = elapsed
            speedup = best["scalar"] / best["kernel"]
            row = {
                "protocol": protocol.name,
                "n_tags": n_tags,
                "runs": runs,
                "repeats": repeats,
                "serial_s": round(best["scalar"], 4),
                "kernel_s": round(best["kernel"], 4),
                "kernel_speedup": round(speedup, 2),
                "throughput_mean": round(cells["scalar"].throughput_mean, 2),
                "kernel_throughput_mean": round(
                    cells["kernel"].throughput_mean, 2),
            }
            yardstick = reference.get((protocol.name, n_tags, runs))
            vs_bench4 = ""
            if yardstick is not None:
                row["bench4_serial_s"] = yardstick
                row["kernel_speedup_vs_bench4"] = round(
                    yardstick / best["kernel"], 2)
                vs_bench4 = (f", x{row['kernel_speedup_vs_bench4']:.1f} "
                             "vs BENCH_4")
            rows.append(row)
            print(f"  {protocol.name:>7} N={n_tags:<6} "
                  f"scalar {best['scalar']:7.2f}s  "
                  f"kernel {best['kernel']:7.3f}s  "
                  f"(x{speedup:.1f}{vs_bench4})", file=sys.stderr)
    return rows


def bench_observability(n_tags: int, runs: int, seed: int,
                        repeats: int = 3) -> dict:
    """Overhead probe: the same cell with the scope absent vs installed.

    The disabled path is the acceptance-critical number -- instrumented
    code pays one ``is None`` test per hook while no scope is active, so
    it must time indistinguishably from uninstrumented code.  Best-of-N
    wall clock on the FCAT-2 reference cell, both ways.
    """
    protocol = Fcat(lam=2)

    def run_once(enabled: bool) -> float:
        started = time.perf_counter()
        if enabled:
            with observe():
                run_cell(protocol, n_tags, runs, seed)
        else:
            run_cell(protocol, n_tags, runs, seed)
        return time.perf_counter() - started

    run_once(False)  # warm caches/allocators before timing either leg
    disabled_s = min(run_once(False) for _ in range(repeats))
    enabled_s = min(run_once(True) for _ in range(repeats))
    overhead_pct = 100.0 * (enabled_s - disabled_s) / disabled_s
    print(f"  obs probe FCAT-2 N={n_tags}: disabled {disabled_s:.4f}s, "
          f"enabled {enabled_s:.4f}s ({overhead_pct:+.1f}%)",
          file=sys.stderr)
    stats = {
        "protocol": protocol.name,
        "n_tags": n_tags,
        "runs": runs,
        "repeats": repeats,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "enabled_overhead_pct": round(overhead_pct, 2),
    }
    # Pin the disabled path against the pre-observability benchmark: the
    # committed BENCH_3 recorded this exact cell's serial time before any
    # instrumentation existed, so the delta is the disabled-path cost.
    reference = Path(__file__).resolve().parent.parent / "BENCH_3.json"
    if reference.is_file() and n_tags == 10000:
        bench3 = json.loads(reference.read_text())
        match = [cell for cell in bench3.get("cells", [])
                 if cell["protocol"] == protocol.name
                 and cell["n_tags"] == n_tags and cell["runs"] == runs]
        if match:
            baseline_s = match[0]["serial_s"]
            stats["bench3_serial_s"] = baseline_s
            stats["disabled_vs_bench3_pct"] = round(
                100.0 * (disabled_s - baseline_s) / baseline_s, 2)
            print(f"  disabled path vs BENCH_3 baseline {baseline_s:.4f}s: "
                  f"{stats['disabled_vs_bench3_pct']:+.1f}%",
                  file=sys.stderr)
    stats.update(_kernel_observability(protocol, n_tags, runs, seed, repeats))
    return stats


#: Shortest kernel-probe sample: a smoke cell takes milliseconds, the
#: scheduler's granularity, so a sample strings calls together.
_MIN_SAMPLE_S = 1.0


def _kernel_observability(protocol: Fcat, n_tags: int, runs: int, seed: int,
                          repeats: int) -> dict:
    """The same cell on ``engine="kernel"``, scope absent vs installed.

    The frame-at-once kernel makes the simulation cheap, so whatever the
    telemetry costs per frame, session and chunk shows here undiluted.
    A sample alternates the two legs call by call for at least
    ``_MIN_SAMPLE_S`` and keeps each leg's mean per call, so machine
    drift lands on both legs alike; best of ``repeats`` samples per leg.
    """
    def unobserved() -> None:
        run_cell(protocol, n_tags, runs, seed, engine="kernel")

    def observed() -> None:
        with observe():
            unobserved()

    started = time.perf_counter()
    unobserved()  # warm caches/allocators; also sizes the samples
    observed()
    per_call_s = (time.perf_counter() - started) / 2
    calls = max(1, math.ceil(_MIN_SAMPLE_S / max(per_call_s, 1e-9)))

    disabled: list[float] = []
    enabled: list[float] = []
    for _ in range(repeats):
        legs = [0.0, 0.0]
        for call in range(calls):
            # Swap which leg goes first every call: no order bias.
            for index in (0, 1) if call % 2 else (1, 0):
                started = time.perf_counter()
                (unobserved, observed)[index]()
                legs[index] += time.perf_counter() - started
        disabled.append(legs[0] / calls)
        enabled.append(legs[1] / calls)
    disabled_s, enabled_s = min(disabled), min(enabled)
    overhead_pct = 100.0 * (enabled_s - disabled_s) / disabled_s
    print(f"  obs probe {protocol.name} N={n_tags} kernel: disabled "
          f"{disabled_s:.4f}s, enabled {enabled_s:.4f}s "
          f"({overhead_pct:+.1f}%, {calls} calls/sample)", file=sys.stderr)
    return {
        "kernel_calls_per_sample": calls,
        "kernel_disabled_s": round(disabled_s, 5),
        "kernel_enabled_s": round(enabled_s, 5),
        "kernel_enabled_overhead_pct": round(overhead_pct, 2),
    }


def bench_sweep(n_values: list[int], runs: int, seed: int, jobs: int,
                cache_path: Path) -> dict:
    """Race the FCAT sweep: serial vs parallel vs content-addressed cache."""
    protocols = [Fcat(lam=2), Fcat(lam=3), Fcat(lam=4)]

    started = time.perf_counter()
    serial = sweep(protocols, n_values, runs, seed)
    serial_s = time.perf_counter() - started
    print(f"  sweep serial    {serial_s:7.2f}s", file=sys.stderr)

    started = time.perf_counter()
    parallel = sweep(protocols, n_values, runs, seed, jobs=jobs)
    parallel_s = time.perf_counter() - started
    print(f"  sweep jobs={jobs:<4} {parallel_s:7.2f}s", file=sys.stderr)
    if parallel != serial:
        raise AssertionError("parallel sweep diverged from serial sweep")

    # A separate observed parallel leg: worker utilization comes from the
    # executor's chunk_done telemetry (busy worker-seconds over the pool's
    # wall-time capacity), leaving the timing legs above unperturbed.
    with observe() as observation:
        started = time.perf_counter()
        observed = sweep(protocols, n_values, runs, seed, jobs=jobs)
        observed_s = time.perf_counter() - started
    if observed != serial:
        raise AssertionError("observed sweep diverged from serial sweep")
    busy_s = sum(event.fields["duration_s"]
                 for event in observation.events.events
                 if event.name == "chunk_done")
    workers = observation.metrics.snapshot()["gauges"]["executor.workers"]
    utilization = busy_s / (observed_s * workers) if observed_s else 0.0
    print(f"  sweep observed  {observed_s:7.2f}s "
          f"({workers:g} workers, {utilization:.0%} utilized)",
          file=sys.stderr)

    cold_cache = ResultCache(cache_path)
    started = time.perf_counter()
    sweep(protocols, n_values, runs, seed, jobs=jobs, cache=cold_cache)
    cold_s = time.perf_counter() - started
    warm_cache = ResultCache(cache_path)
    started = time.perf_counter()
    warm = sweep(protocols, n_values, runs, seed, jobs=jobs,
                 cache=warm_cache)
    warm_s = time.perf_counter() - started
    print(f"  sweep cold-cache {cold_s:6.2f}s, warm-cache {warm_s:6.4f}s",
          file=sys.stderr)
    if warm != serial:
        raise AssertionError("cache-served sweep diverged from serial sweep")

    return {
        "protocols": [protocol.name for protocol in protocols],
        "n_values": n_values,
        "runs": runs,
        "jobs": jobs,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3),
        "cold_cache_s": round(cold_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "warm_fraction": round(warm_s / cold_s, 5),
        "best_speedup": round(serial_s / min(parallel_s, warm_s), 3),
        "cache_hits": warm_cache.hits,
        "cache_misses": warm_cache.misses,
        "observed_parallel_s": round(observed_s, 4),
        "workers": int(workers),
        "worker_busy_s": round(busy_s, 4),
        "worker_utilization": round(utilization, 4),
    }


def bench_planner(n_values: list[int], nominal_runs: int, seed: int,
                  jobs: int, precision: float, min_runs: int,
                  batch_runs: int) -> dict:
    """Paired adaptive-vs-fixed run of the representative roster.

    Both legs use the kernel engine and the same seeds, so the adaptive
    estimate of each cell is a bit-exact prefix of the fixed-budget
    sample.  ``within_ci`` checks every reported metric against the 95%
    interval of the adaptive-minus-fixed difference, whose exact SD is
    ``s * sqrt(|1/k - 1/R|)`` (see the module docstring); a final pair of
    untimed legs pins bit-identity between ``jobs=1`` and ``jobs=4``.
    """
    z95 = 1.959963984540054  # Phi^-1(0.975)
    protocols = [Fcat(lam=2), Fcat(lam=3), Fcat(lam=4), Dfsa()]
    specs = [CellSpec(protocol=protocol, n_tags=n_tags, runs=nominal_runs,
                      seed=seed + 13 * index, engine="kernel")
             for index, (protocol, n_tags) in enumerate(
                 [(protocol, n_tags) for protocol in protocols
                  for n_tags in n_values])]

    started = time.perf_counter()
    fixed_batches = execute_run_metrics(specs, jobs=jobs)
    fixed_s = time.perf_counter() - started
    fixed = [aggregate_metrics(spec.protocol.name, spec.n_tags, batch.values)
             for spec, batch in zip(specs, fixed_batches)]

    def config() -> PlannerConfig:
        return PlannerConfig(precision=precision, min_runs=min_runs,
                             batch_runs=batch_runs)

    planner = config()
    started = time.perf_counter()
    adaptive = plan_cells(specs, planner, jobs=jobs)
    adaptive_s = time.perf_counter() - started

    serial = plan_cells(specs, config(), jobs=1)
    fanned = plan_cells(specs, config(), jobs=4)
    jobs_invariant = serial == fanned == adaptive

    rows = []
    all_within = True
    for spec, fixed_cell, adaptive_cell, batch in zip(specs, fixed, adaptive,
                                                      fixed_batches):
        assigned = adaptive_cell.runs
        within = True
        for column, field in REPORTED_METRICS.items():
            values = [getattr(value, field) for value in batch.values]
            std = statistics.stdev(values)
            half_width = z95 * std * math.sqrt(
                abs(1.0 / assigned - 1.0 / nominal_runs))
            fixed_value = getattr(fixed_cell, column)
            adaptive_value = getattr(adaptive_cell, column)
            epsilon = 1e-9 * max(1.0, abs(fixed_value))
            if abs(adaptive_value - fixed_value) > half_width + epsilon:
                within = False
        all_within = all_within and within
        reduction = nominal_runs / assigned
        rows.append({
            "protocol": spec.protocol.name,
            "n_tags": spec.n_tags,
            "nominal_runs": nominal_runs,
            "adaptive_runs": assigned,
            "run_reduction": round(reduction, 3),
            "within_ci": within,
            "throughput_mean": round(fixed_cell.throughput_mean, 2),
            "adaptive_throughput_mean": round(
                adaptive_cell.throughput_mean, 2),
        })
        print(f"  {spec.protocol.name:>7} N={spec.n_tags:<6} "
              f"{assigned:3d}/{nominal_runs} runs (x{reduction:.2f}) "
              f"within_ci={within}", file=sys.stderr)
    stats = planner.stats
    print(f"  adaptive {adaptive_s:.2f}s vs fixed {fixed_s:.2f}s, "
          f"{stats.summary()}", file=sys.stderr)
    print(f"  jobs-invariance (1 vs 4): {jobs_invariant}", file=sys.stderr)
    return {
        "protocols": [protocol.name for protocol in protocols],
        "n_values": n_values,
        "nominal_runs": nominal_runs,
        "precision": precision,
        "confidence": 0.95,
        "min_runs": min_runs,
        "batch_runs": batch_runs,
        "jobs": jobs,
        "cells": rows,
        "fixed_s": round(fixed_s, 4),
        "adaptive_s": round(adaptive_s, 4),
        "time_speedup": round(fixed_s / adaptive_s, 3)
        if adaptive_s else 0.0,
        "total_nominal_runs": stats.nominal_runs,
        "total_assigned_runs": stats.assigned_runs,
        "run_reduction": round(stats.reduction, 3),
        "within_ci": all_within,
        "planner_jobs_invariant": jobs_invariant,
        "stopped": {"precision": stats.stopped_precision,
                    "max_runs": stats.stopped_max_runs,
                    "budget": stats.stopped_budget},
    }


def bench_service(n_tags: int, zones: int, requests: int, jobs: int,
                  seed: int) -> dict:
    """Load-drive the inventory service through its HTTP front end.

    Delegates to ``scripts/serve_demo.py``'s driver -- the same cold pass,
    warm pass and concurrent duplicate volley, with the same byte-identity
    and warm-accounting assertions -- so the benchmark number and the demo
    measure the identical traffic shape.  Latency quantiles come from the
    service's ``repro.obs`` histograms via ``/stats``.
    """
    import asyncio

    import serve_demo

    args = serve_demo.build_parser().parse_args(
        ["--n-tags", str(n_tags), "--zones", str(zones),
         "--requests", str(requests), "--jobs", str(jobs),
         "--seed", str(seed)])
    report = asyncio.run(serve_demo.serve_and_drive(args))
    report["jobs"] = jobs
    print(f"  service: p99 {report['latency']['p99']:.4f}s over "
          f"{report['requests']} requests "
          f"({report['responses_cached']} cache-served), "
          f"byte-identical={report['byte_identical']}", file=sys.stderr)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Time the simulation engines and write BENCH_7.json")
    parser.add_argument("--out", type=Path, default=Path("BENCH_7.json"),
                        help="where to write the JSON artefact")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel worker count (0 = all cores)")
    parser.add_argument("--runs", type=int, default=5,
                        help="simulation runs per cell")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved timing repeats per engine")
    parser.add_argument("--seed", type=int, default=20100562)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized grid: tiny N values and runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    jobs = args.jobs if args.jobs > 0 else default_jobs()
    if args.smoke:
        cell_grid, sweep_grid, runs, obs_n = [200, 500], [200, 500], 3, 500
        planner_knobs = {"nominal_runs": 12, "precision": 0.1,
                         "min_runs": 5, "batch_runs": 5}
        service_knobs = {"n_tags": 20_000, "zones": 16, "requests": 4}
    else:
        cell_grid, sweep_grid, runs, obs_n = [500, 5000, 10000], \
            [500, 5000], args.runs, 10000
        planner_knobs = {"nominal_runs": 100, "precision": 0.01,
                         "min_runs": 25, "batch_runs": 25}
        service_knobs = {"n_tags": 1_048_576, "zones": 20, "requests": 8}
    cache_path = args.out.with_suffix(".cache.json")
    if cache_path.exists():
        cache_path.unlink()  # the cold leg must actually be cold
    print(f"[{BENCH_NAME}] cells (scalar vs kernel, runs={runs}, "
          f"best of {args.repeats})", file=sys.stderr)
    cells = bench_cells(cell_grid, runs, args.seed, repeats=args.repeats)
    print(f"[{BENCH_NAME}] observability overhead probe", file=sys.stderr)
    observability = bench_observability(obs_n, runs, args.seed)
    print(f"[{BENCH_NAME}] FCAT sweep (N={sweep_grid}, jobs={jobs})",
          file=sys.stderr)
    sweep_stats = bench_sweep(sweep_grid, runs, args.seed + 1, jobs,
                              cache_path)
    if cache_path.exists():
        cache_path.unlink()
    print(f"[{BENCH_NAME}] adaptive planner vs fixed budget "
          f"(R={planner_knobs['nominal_runs']}, "
          f"precision={planner_knobs['precision']})", file=sys.stderr)
    planner_stats = bench_planner(cell_grid, seed=args.seed + 1, jobs=jobs,
                                  **planner_knobs)
    print(f"[{BENCH_NAME}] inventory service "
          f"({service_knobs['n_tags']} tags / {service_knobs['zones']} "
          f"zones, {service_knobs['requests']} requests)", file=sys.stderr)
    service_stats = bench_service(jobs=jobs, seed=args.seed + 2,
                                  **service_knobs)
    payload = {
        "schema": SCHEMA,
        "bench": BENCH_NAME,
        "smoke": args.smoke,
        "machine": {
            "cpu_count": default_jobs(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "cells": cells,
        "observability": observability,
        "sweep": sweep_stats,
        "planner": planner_stats,
        "service": service_stats,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    kernel_speedups = ", ".join(
        f"{cell['protocol']}/N={cell['n_tags']} x{cell['kernel_speedup']}"
        for cell in cells if cell["n_tags"] == max(cell_grid))
    print(f"[{BENCH_NAME}] kernel speedups: {kernel_speedups}",
          file=sys.stderr)
    print(f"[{BENCH_NAME}] sweep speedup x{sweep_stats['speedup']}, "
          f"warm cache {sweep_stats['warm_fraction']:.1%} of cold, "
          f"utilization {sweep_stats['worker_utilization']:.0%}, "
          f"obs overhead {observability['enabled_overhead_pct']:+.1f}% "
          f"(kernel {observability['kernel_enabled_overhead_pct']:+.1f}%), "
          f"planner x{planner_stats['run_reduction']} runs "
          f"(within_ci={planner_stats['within_ci']}, "
          f"jobs-invariant={planner_stats['planner_jobs_invariant']}), "
          f"service p99 {service_stats['latency']['p99']:.4f}s "
          f"({service_stats['n_tags']} tags / "
          f"{service_stats['zones']} zones), "
          f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
