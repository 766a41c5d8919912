"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload service_mixed --seed 3 --seconds 40
    python3 perfbench/run.py --workload paper_table1 --trace 1

``--trace 0`` (default) measures the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` makes a separate traced run and reports
the per-layer metrics.  Every metric is printed by name with its unit and
sample count, then the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any correctness check failed and 2 on a usage error or a checkout without
the program's sources.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import ROOT, machine

WORKLOADS = ("paper_table1", "service_mixed")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    if name == "paper_table1":
        import batch
        return batch.run(seed, seconds, trace, scale)
    import service
    return service.run(seed, seconds, trace, scale)


def _format(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, outcome: dict, spec: dict, trace: bool) -> dict:
    """Print one workload's figures; returns its JSON ``metrics``."""
    declared = {entry["name"]: entry["unit"]
                for entry in spec["per_layer" if trace else "end_to_end"]}
    measured = outcome["metrics"]
    if set(measured) != set(declared):
        raise RuntimeError(
            f"{name}: metrics {sorted(set(measured) ^ set(declared))} "
            "differ between the workload and BENCHMARK.json")
    print(f"== {name} ({'traced, per layer' if trace else 'end to end'})")
    for key, value in outcome["report"]["inputs"].items():
        print(f"   input {key}: {json.dumps(value)}")
    metrics = {}
    for metric, (value, unit, samples) in measured.items():
        if unit is not None and unit != declared[metric]:
            raise RuntimeError(f"{name}: {metric} measured in {unit}, "
                               f"declared in {declared[metric]}")
        count = "" if samples is None else f"  (n={samples})"
        print(f"   {metric:<36} {_format(value):>12} {declared[metric]}"
              f"{count}")
        metrics[metric] = {"value": value, "unit": declared[metric]}
    for metric, (value, unit, samples) in outcome["report"].get(
            "extra", {}).items():
        print(f"   {metric:<36} {_format(value):>12} {unit}  (n={samples})"
              "  [not gated]")
    rate = outcome["failed"] / outcome["attempted"]
    print(f"   {'error_rate':<36} {_format(rate):>12} fraction  "
          f"(n={outcome['attempted']})  [not gated]")
    if trace:
        coverage = measured["trace.coverage"][0]
        if coverage < 0.9:
            print(f"   uncovered: {1 - coverage:.3f} of the measured wall "
                  "ran outside every top-level traced call (request "
                  "transport and the load generator's turnaround)")
    for problem in outcome["report"]["problems"]:
        print(f"   CHECK FAILED: {problem}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (self-tests only)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every working process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    trace = bool(args.trace)

    identity = machine()
    print(f"machine: {json.dumps(identity)}")
    print("core-scaling claims: "
          + ("refused (nproc = 1)" if identity["nproc"] == 1
             else f"allowed (nproc = {identity['nproc']})"))
    print(f"seed {args.seed}, {seconds:g} s measured per workload, "
          f"trace {args.trace}, scale {args.scale}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    for name in names:
        outcome = run_workload(name, args.seed, seconds, trace, args.scale)
        figures = report(name, outcome, spec, trace)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        correct = correct and not outcome["report"]["problems"] \
            and outcome["failed"] == 0
        if len(names) == 1:
            metrics = figures
        else:
            metrics.update({f"{name}.{key}": value
                            for key, value in figures.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
