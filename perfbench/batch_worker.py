"""The ``paper_table1`` working process: Table I grids through ``sweep``.

Runs the Table I roster the way ``python -m repro.experiments table1``
does -- scalar engine, telemetry off -- each grid against a fresh
result-cache file so every cell is cold, and prints one JSON line per grid.

``--grids`` fixes the work: that many grids, all under the same seed.
``--mode setup`` exits at the first cell dispatch instead, printing the
monotonic time it happened, so the caller can time process start until
work begins.  ``--trace-out`` wraps the traced layers and writes the spans
there at exit.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/batch_worker.py --mode grid \
        --seed 1 --grids 4 --work .perfbench_work
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from common import vm_hwm_mb
from tracer import Tracer, clock

#: The Table I grid one unit of work computes: population sizes x runs.
GRID = {"full": ((1000, 2000, 4000), 3), "tiny": ((1000,), 2)}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _first_dispatch(*args, **kwargs):
    _emit({"dispatched": clock()})
    os._exit(0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "grid"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--grids", type=int, default=2)
    parser.add_argument("--scale", choices=tuple(GRID), default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        import layers
        tracer = Tracer()
        layers.install(tracer)
    import repro.experiments.executor as executor
    from repro.experiments.protocols import table1_roster
    from repro.experiments.result_cache import ResultCache
    from repro.experiments.runner import sweep

    if args.mode == "setup":
        executor.execute_cells = _first_dispatch
    n_values, runs = GRID[args.scale]
    args.work.mkdir(parents=True, exist_ok=True)
    for grid in range(args.grids):
        path = args.work / f"table1-cache-{os.getpid()}-{grid}.json"
        path.unlink(missing_ok=True)
        start = clock()
        cache = ResultCache(path)
        cells = sweep(table1_roster(), list(n_values), runs, args.seed,
                      cache=cache)
        end = clock()
        cache_bytes = path.stat().st_size
        path.unlink()
        _emit({"start": start, "end": end, "cache_bytes": cache_bytes,
               "cells": {f"{name}@{n}": dataclasses.asdict(result)
                         for (name, n), result in cells.items()}})
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
    _emit({"vm_hwm_mb": vm_hwm_mb()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
