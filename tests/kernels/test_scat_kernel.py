"""SCAT kernel equivalence: batched_scat_sessions vs the scalar engine.

Registered by the ``# repro: kernel`` contract on
:func:`repro.kernels.scat.batched_scat_sessions` (lint rule R15).  The
block-at-once kernel discards pre-drawn slot counts past each
belief-changing slot (kernel-v2: consumption patterns belong to the
engine), so the equivalence claim is statistical, checked on paired
same-seed runs; batch composition and the unsupported-config guards are
exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scat import Scat
from repro.experiments.runner import (rng_from_seed, run_single,
                                     spawn_run_seeds)
from repro.kernels.engine import run_batch
from repro.kernels.scat import _ScatKernelSession, batched_scat_sessions
from repro.obs.scope import observe
from repro.sim.channel import ChannelModel
from repro.sim.population import TagPopulation

Z_BOUND = 4.5  # see tests/kernels/test_fcat_kernel.py

#: SCAT is slot-based (no frames) and announces per-ID; these are the
#: metrics its sessions actually move.
METRICS = ("throughput", "total_slots", "singleton_slots",
           "resolved_from_collision")


def _paired_z(kernel_values, scalar_values) -> float:
    diff = np.asarray(kernel_values, float) - np.asarray(scalar_values, float)
    spread = diff.std(ddof=1)
    if spread == 0.0:
        return 0.0
    return float(diff.mean() / (spread / np.sqrt(len(diff))))


@pytest.mark.parametrize("lam,runs", [(2, 1000), (3, 400)])
def test_paired_runs_match_the_scalar_engine(lam, runs):
    protocol = Scat(lam=lam)
    population = TagPopulation.random(100, np.random.default_rng(99))
    seeds = spawn_run_seeds(lam, runs)
    scalar = [protocol.read_all(population, rng_from_seed(child))
              for child in seeds]
    kernel = batched_scat_sessions(
        protocol, 100, [rng_from_seed(child) for child in seeds])
    assert all(result.complete for result in kernel)
    for metric in METRICS:
        z = _paired_z([float(getattr(r, metric)) for r in kernel],
                      [float(getattr(r, metric)) for r in scalar])
        assert abs(z) < Z_BOUND, f"lam={lam} {metric}: |z|={abs(z):.2f}"


def test_batch_composition_does_not_change_a_session():
    """Dropout regression, as for FCAT: sessions own their generators."""
    protocol = Scat(lam=2)
    seeds = spawn_run_seeds(4321, 8)
    together = batched_scat_sessions(
        protocol, 80, [rng_from_seed(child) for child in seeds])
    alone = [batched_scat_sessions(protocol, 80, [rng_from_seed(child)])[0]
             for child in seeds]
    assert together == alone
    assert len({result.total_slots for result in together}) > 1


def test_unsupported_configs_are_rejected():
    """The kernel refuses what it cannot replay; the engine routes those
    configurations to the scalar path (tests/kernels/test_engine.py)."""
    noisy = ChannelModel(ack_loss_prob=0.1)
    with pytest.raises(ValueError, match="draw-free"):
        _ScatKernelSession("SCAT-2", Scat(lam=2), 50,
                           np.random.default_rng(0), channel=noisy)
    with pytest.raises(ValueError, match="pre-estimation"):
        _ScatKernelSession("SCAT-2", Scat(lam=2, pre_estimate_cv=0.1), 50,
                           np.random.default_rng(0))


def test_observed_kernel_emits_the_scalar_telemetry():
    """SCAT telemetry is the shared ``session`` event: both engines emit
    only it, and its ``resolved_from_collision`` matches the session's
    result on either path."""
    protocol = Scat(lam=2)
    child = spawn_run_seeds(5, 1)[0]
    with observe() as scalar_obs:
        scalar = run_single(protocol, 200, child)
    with observe() as kernel_obs:
        kernel = run_batch(protocol, 200, [child])[0]
    for observation, result in ((scalar_obs, scalar), (kernel_obs, kernel)):
        events = observation.events.events
        assert [event.name for event in events] == ["session"]
        assert events[0].fields["resolved_from_collision"] == \
            result.resolved_from_collision > 0
        assert result.complete
