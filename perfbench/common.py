"""Paths, child-process environment, statistics and machine identity."""

from __future__ import annotations

import os
import platform
from pathlib import Path

#: The checkout the benchmark runs in; every file it touches lives here.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for cache files, span dumps and server logs.
WORK = ROOT / ".perfbench_work"


def child_env() -> dict[str, str]:
    """Environment for a working process: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 when empty, like :func:`quantile`."""
    return sum(values) / len(values) if values else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def machine() -> dict:
    """What the figures were measured on."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    import numpy
    return {"nproc": cpus, "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}

