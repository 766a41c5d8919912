"""Shared engine for tree-based anti-collision protocols (section VII).

Tree protocols resolve a collision by splitting the colliding set into two
subsets and querying each in turn; the reading process is a depth-first walk
of a binary tree whose leaves are empty or singleton slots.  The two classic
splitting criteria are

* a random bit drawn by each colliding tag (binary-tree protocols / ABS), and
* the next bit of the tag ID (query-tree protocols / AQS).

The engine below performs the walk over numpy index arrays, charging one slot
per visited node exactly as the paper's slot accounting does, and applies the
same channel-error semantics as the ALOHA simulators: a corrupted singleton
reads as a collision (the group is split again), a lost acknowledgement
leaves the tag transmitting (duplicates are discarded by the reader).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.sim.channel import ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import ReadingResult

#: A splitter maps (member indices, depth) -> (left subset, right subset).
Splitter = Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]


def random_bit_splitter(rng: np.random.Generator) -> Splitter:
    """Each colliding tag draws a fresh random bit (binary-tree protocols)."""

    def split(members: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
        if members.size == 2:
            # The most common split.  Two scalar draws consume the stream
            # exactly like one ``size=2`` draw (each bounded integer is
            # its own ``next_uint32``) and cost less than the array call
            # plus two boolean masks.
            first = rng.integers(0, 2)
            second = rng.integers(0, 2)
            if first == second:
                nobody = members[:0]
                return (members, nobody) if first == 0 else (nobody, members)
            head, tail = members[:1], members[1:]
            return (head, tail) if first == 0 else (tail, head)
        bits = rng.integers(0, 2, size=members.size)
        return members[bits == 0], members[bits == 1]

    return split


def id_bit_splitter(id_bits: np.ndarray) -> Splitter:
    """Split on the next ID bit (query-tree protocols).

    ``id_bits`` is the precomputed ``(n_tags, 96)`` bit matrix of the
    population; querying prefix ``p1..pd`` partitions a colliding set by bit
    ``d``.  IDs are unique, so the recursion always terminates.
    """

    def split(members: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
        if depth >= id_bits.shape[1]:
            if members.size > 1:
                raise RuntimeError("query-tree recursion exceeded the ID "
                                   "length; tag IDs are not distinct")
            # A lone tag re-queried past its last bit (possible only under
            # repeated CRC corruption): the query cannot be narrowed further.
            return members, members[:0]
        bits = id_bits[members, depth]
        return members[bits == 0], members[bits == 1]

    return split


def run_splitting_tree(result: ReadingResult, population: TagPopulation,
                       splitter: Splitter, rng: np.random.Generator,
                       channel: ChannelModel,
                       initial_groups: list[tuple[np.ndarray, int]]) -> None:
    """Depth-first walk of the splitting tree, accumulating into ``result``.

    ``initial_groups`` seeds the walk with ``(members, depth)`` pairs:
    ``[(all tags, 0)]`` for binary-tree protocols (the first query addresses
    everyone), or the two bit-0 halves at depth 1 for query-tree protocols
    whose queue starts at prefixes '0' and '1'.  Depth travels with each
    group so the ID-bit splitter knows which bit a query's prefix reached.
    """
    ids = population.ids
    read: set[int] = set()
    # Depth-first: later-pushed groups are visited first, so push right before
    # left to query the '0' branch first, matching the usual presentation.
    stack: list[tuple[np.ndarray, int]] = list(reversed(initial_groups))
    while stack:
        members, depth = stack.pop()
        result.tag_transmissions += int(members.size)
        if members.size == 0:
            result.empty_slots += 1
            continue
        if members.size == 1 and channel.singleton_ok(rng):
            result.singleton_slots += 1
            tag = ids[int(members[0])]
            if tag not in read:
                read.add(tag)
                result.n_read += 1
            if not channel.ack_received(rng):
                # The tag missed its ack and will answer the next enclosing
                # query again; model this as one extra leaf visit for it.
                stack.append((members, depth))
            continue
        # A real collision, or a singleton whose CRC failed: split and recurse.
        result.collision_slots += 1
        left, right = splitter(members, depth)
        stack.append((right, depth + 1))
        stack.append((left, depth + 1))
