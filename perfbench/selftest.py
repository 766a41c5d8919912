"""Self-tests of the benchmark itself.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

Checks that every workload, at tiny scale, prints every metric
``BENCHMARK.json`` names for its mode with the declared unit and passes its
correctness checks; that the checks trip on a corrupted output (one flipped
response byte, one changed Table I cell); and that the benchmark refuses to
run in a directory without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import ROOT, WORK, child_env

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("paper_table1", "service_mixed"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            completed = subprocess.run(
                RUN + ["--workload", workload, "--seed", "7", "--seconds",
                       "2", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert completed.returncode == 0, completed.stdout[-3000:] \
                + completed.stderr[-3000:]
            result = json.loads(completed.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            declared = {entry["name"]: entry["unit"] for entry in spec[kind]}
            emitted = {name: value["unit"]
                       for name, value in result["metrics"].items()}
            assert emitted == declared, (workload, trace, emitted)
            for name, value in result["metrics"].items():
                assert isinstance(value["value"], float), (name, value)
            print(f"ok   {workload} --trace {trace}: "
                  f"{len(emitted)} metrics with units")


def check_corruption_trips() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import batch
    import service
    request = next(service.request_stream(7, "cold", "tiny", 1))
    good = service.recompute(request)
    assert service.check_response(request, good) is None
    assert service.identity_problems(good, good, good) == []
    for position in (0, len(good) // 2, len(good) - 2):
        flipped = bytearray(good)
        flipped[position] ^= 0x01
        assert service.identity_problems(bytes(flipped), good, good), \
            position
    print("ok   a response with one flipped byte fails the identity check")

    cells = {f"{name}@1000": {"throughput_mean": value, "runs": 1,
                              "total_slots_mean": 1.0}
             for name, value in (("FCAT-2", 190.0), ("FCAT-3", 220.0),
                                 ("FCAT-4", 240.0), ("DFSA", 130.0),
                                 ("EDFSA", 120.0), ("ABS", 124.0),
                                 ("AQS", 122.0))}
    grid = {"cells": cells}
    assert batch.check_grids([grid, json.loads(json.dumps(grid))]) == []
    changed = json.loads(json.dumps(grid))
    changed["cells"]["DFSA@1000"]["throughput_mean"] = 130.5
    assert batch.check_grids([grid, changed]), "repeat mismatch undetected"
    swapped = json.loads(json.dumps(grid))
    swapped["cells"]["FCAT-3@1000"]["throughput_mean"] = 250.0
    assert batch.check_grids([swapped, swapped]), "ordering undetected"
    print("ok   a changed or mis-ordered Table I cell fails the grid check")


def check_refuses_without_sources() -> None:
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = child_env()
    env.pop("PYTHONPATH")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_table1",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert completed.returncode != 0, completed.stdout
    assert '"correct"' not in completed.stdout, completed.stdout
    print("ok   a checkout without sources exits "
          f"{completed.returncode} and prints no result")


def main() -> int:
    check_corruption_trips()
    check_refuses_without_sources()
    check_metrics()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
