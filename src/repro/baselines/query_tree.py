"""The memoryless query-tree protocol (Law-Lee-Siu) -- paper section VII.

The reader queries ID prefixes; every tag whose ID extends the prefix
responds with its full ID.  A collision spawns the two one-bit-longer
queries.  Throughput depends on the ID distribution; for uniformly random
IDs the classic bound is one tag per ~2.88 slots (paper ref [28]).
"""

from __future__ import annotations

import numpy as np

from repro.air.ids import ID_BITS
from repro.air.timing import ICODE_TIMING, TimingModel
from repro.baselines.splitting import id_bit_splitter, run_splitting_tree
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import ReadingResult


def population_bit_matrix(population: TagPopulation) -> np.ndarray:
    """The ``(n_tags, 96)`` MSB-first bit matrix of a population's IDs.

    Row ``i`` equals ``id_to_bits(population.ids[i])``; the rows come from
    one ``unpackbits`` over the IDs' joined big-endian bytes.
    """
    width = ID_BITS // 8
    raw = b"".join(tag.to_bytes(width, "big") for tag in population.ids)
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).reshape(
        -1, ID_BITS)


class QueryTree(TagReadingProtocol):
    """ID-prefix splitting, starting from the root (empty-prefix) query."""

    name = "QueryTree"

    #: Query queue seed: root query only; AQS overrides with prefixes 0 and 1.
    _start_depth_one = False

    def read_all(self, population: TagPopulation, rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING) -> ReadingResult:
        result = ReadingResult(protocol=self.name, n_tags=len(population),
                               n_read=0, timing=timing)
        bits = population_bit_matrix(population)
        splitter = id_bit_splitter(bits)
        members = np.arange(len(population))
        if self._start_depth_one and members.size:
            zeros = members[bits[members, 0] == 0]
            ones = members[bits[members, 0] == 1]
            groups = [(zeros, 1), (ones, 1)]
        else:
            groups = [(members, 0)]
        run_splitting_tree(result, population, splitter, rng, channel,
                           initial_groups=groups)
        return result
