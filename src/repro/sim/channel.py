"""Channel-error model for protocol-level simulations (paper section IV-E).

The paper discusses three imperfections and how the protocols cope:

* a singleton's ID signal may be corrupted -- the CRC rejects it and the slot
  carries no usable ID (the reader keeps it as an opaque collision-like
  record, which will never verify);
* the reader's acknowledgement may be lost -- the tag keeps transmitting and
  the reader later discards the duplicate ID;
* a collision slot's mixed signal may be too noisy for ANC to ever resolve --
  the record is wasted, but nothing else breaks.

All three are independent Bernoulli events here; probabilities default to
zero, the setting the paper's headline evaluation uses ("an environment where
most 2-collision slots are resolvable").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ChannelModel:
    """Bernoulli error knobs applied by the slot-level simulators."""

    #: Probability that a singleton slot's ID fails its CRC check.
    singleton_corrupt_prob: float = 0.0
    #: Probability that a tag misses an acknowledgement addressed to it.
    ack_loss_prob: float = 0.0
    #: Probability that a collision record is too noisy for ANC resolution.
    collision_unusable_prob: float = 0.0
    #: Capture effect: probability that the strongest of several colliding
    #: transmissions decodes anyway (near/far power imbalance).  An
    #: extension knob -- the paper assumes no capture -- exercised by the
    #: capture ablation; supported by FCAT, SCAT and DFSA.
    capture_prob: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("singleton_corrupt_prob", self.singleton_corrupt_prob)
        _check_probability("ack_loss_prob", self.ack_loss_prob)
        _check_probability("collision_unusable_prob", self.collision_unusable_prob)
        _check_probability("capture_prob", self.capture_prob)

    @property
    def singleton_always_ok(self) -> bool:
        """Whether :meth:`singleton_ok` is always True (and never draws)."""
        return self.singleton_corrupt_prob == 0.0

    @property
    def ack_always_received(self) -> bool:
        """Whether :meth:`ack_received` is always True (and never draws)."""
        return self.ack_loss_prob == 0.0

    def singleton_ok(self, rng: np.random.Generator) -> bool:
        """Draw whether a singleton transmission decodes (CRC passes)."""
        if self.singleton_corrupt_prob == 0.0:
            return True
        return rng.random() >= self.singleton_corrupt_prob

    def ack_received(self, rng: np.random.Generator) -> bool:
        """Draw whether a tag hears an acknowledgement addressed to it."""
        if self.ack_loss_prob == 0.0:
            return True
        return rng.random() >= self.ack_loss_prob

    def record_usable(self, rng: np.random.Generator) -> bool:
        """Draw whether a freshly recorded collision can ever be resolved."""
        if self.collision_unusable_prob == 0.0:
            return True
        return rng.random() >= self.collision_unusable_prob

    def captured(self, rng: np.random.Generator) -> bool:
        """Draw whether the strongest collider of a slot decodes anyway."""
        if self.capture_prob == 0.0:
            return False
        return rng.random() < self.capture_prob


#: The noiseless channel the paper's headline numbers assume.
PERFECT_CHANNEL = ChannelModel()
