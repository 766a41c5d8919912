"""The ``paper_table1`` workload: cold Table I grids in a working process."""

from __future__ import annotations

import json
import subprocess
import sys

import layers
from common import ROOT, WORK, child_env, mean, median, quantile
from tracer import clock

WORKER = ROOT / "perfbench" / "batch_worker.py"
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Nominal seconds of one grid on the reference machine; a run computes
#: ``round(seconds / GRID_SECONDS)`` grids (two at least, for the
#: determinism check), so both sides of a comparison do the same work.
GRID_SECONDS = {"full": 2.5, "tiny": 0.25}
_BASELINES = ("DFSA", "EDFSA", "ABS", "AQS")


def _worker(mode: str, seed: int, seconds: float, scale: str,
            trace_out=None) -> tuple[float, list[dict]]:
    """Run one working process; its spawn time and JSON lines."""
    grids = max(2, round(seconds / GRID_SECONDS[scale]))
    command = [sys.executable, str(WORKER), "--mode", mode,
               "--seed", str(seed), "--grids", str(grids),
               "--scale", scale, "--work", str(WORK)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    spawned = clock()
    completed = subprocess.run(command, cwd=ROOT, env=child_env(),
                               capture_output=True, text=True,
                               timeout=150)
    if completed.returncode != 0:
        raise RuntimeError(f"batch worker ({mode}) failed:\n"
                           f"{completed.stderr[-2000:]}")
    return spawned, [json.loads(line)
                     for line in completed.stdout.splitlines() if line]


def _grids(lines: list[dict]) -> tuple[list[dict], float]:
    return [line for line in lines if "cells" in line], lines[-1]["vm_hwm_mb"]


def check_grids(grids: list[dict]) -> list[str]:
    """Determinism across repeats and the paper's Table I ordering."""
    problems = []
    first = grids[0]["cells"]
    for index, grid in enumerate(grids[1:], start=1):
        for key, cell in grid["cells"].items():
            if cell != first.get(key):
                problems.append(f"grid {index}: cell {key} differs from "
                                "grid 0 under the same seed")
    sizes = sorted({int(key.split("@")[1]) for key in first})
    for grid_index, grid in enumerate(grids):
        for n in sizes:
            def throughput(name: str) -> float:
                return grid["cells"][f"{name}@{n}"]["throughput_mean"]
            best = max(throughput(name) for name in _BASELINES)
            if not (throughput("FCAT-4") > throughput("FCAT-3")
                    > throughput("FCAT-2") > best):
                problems.append(
                    f"grid {grid_index}, N={n}: FCAT-4 > FCAT-3 > FCAT-2 > "
                    f"best baseline ({best:.1f}) does not hold")
    return problems


def _slots(grid: dict) -> float:
    return sum(cell["runs"] * cell["total_slots_mean"]
               for cell in grid["cells"].values())


def run(seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Measure the workload; returns attempted/failed/metrics/report."""
    WORK.mkdir(exist_ok=True)
    from batch_worker import GRID
    n_values, runs = GRID[scale]
    report: dict = {"inputs": {
        "grid_seed": seed, "n_values": n_values, "runs_per_cell": runs,
        "protocols": layers.TABLE1_PROTOCOLS,
        "grids": max(2, round((seconds / 2 if trace else seconds)
                              / GRID_SECONDS[scale]))}}
    if not trace:
        setups = []
        for _ in range(SETUP_SAMPLES):
            spawned, lines = _worker("setup", seed, 0.0, scale)
            setups.append(lines[-1]["dispatched"] - spawned)
        _, lines = _worker("grid", seed, seconds, scale)
        grids, rss = _grids(lines)
        walls = [grid["end"] - grid["start"] for grid in grids]
        metrics = {
            "setup_s": (median(setups), "s", len(setups)),
            "latency_mean_s": (mean(walls), "s", len(walls)),
            "latency_p75_s": (quantile(walls, 0.75), "s", len(walls)),
            "units_per_s": (len(walls) / sum(walls), "1/s", len(walls)),
            "sim_slots_per_s": (sum(_slots(grid) for grid in grids)
                                / sum(walls), "slots/s", len(walls)),
            "peak_rss_mb": (rss, "MB", 1),
        }
        report["extra"] = {"table_s": (median(walls), "s", len(walls))}
    else:
        _, plain = _worker("grid", seed, seconds / 2, scale)
        spans_path = WORK / "spans-paper_table1.json"
        _, lines = _worker("grid", seed, seconds / 2, scale, spans_path)
        plain_grids, _ = _grids(plain)
        grids, _ = _grids(lines)
        dump = json.loads(spans_path.read_text())
        walls = [grid["end"] - grid["start"] for grid in grids]
        plain_walls = [grid["end"] - grid["start"] for grid in plain_grids]
        values = layers.layer_metrics(
            dump, units=len(grids), cache_bytes=grids[-1]["cache_bytes"])
        values["loadgen.late_p99_s"] = 0.0
        values["loadgen.in_flight_max"] = 0.0
        values["trace.overhead_frac"] = median(walls) / median(plain_walls) \
            - 1.0
        values["trace.coverage"] = layers.coverage(
            dump, [(grid["start"], grid["end"]) for grid in grids])
        metrics = {name: (value, None, None) for name, value in values.items()}
        grids = plain_grids + grids
    problems = check_grids(grids)
    cells = sum(len(grid["cells"]) for grid in grids)
    report["problems"] = problems
    return {"attempted": cells, "failed": min(len(problems), cells),
            "metrics": metrics, "report": report}
