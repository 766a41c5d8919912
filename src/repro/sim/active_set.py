"""A set with O(1) insert, remove and uniform random sampling.

FCAT needs, every slot, a uniform sample of ``k`` distinct tags out of the
currently active ones (where ``k ~ Binomial(N_active, p)`` is tiny, around
``omega = 1.4``).  A plain set cannot sample; a list cannot remove in O(1).
``ActiveSet`` keeps items in a dense list plus an item->position map and uses
swap-with-last removal, the classic constant-time trick, so add, remove and
each sampling draw cost the same at any N.  Measured on a 2-vCPU VM: a
17 431-slot FCAT-2 session at N = 10 000 takes about 0.23 s, most of it in
numpy's per-call draw dispatch.

Sampling draws its positions with ``rng.integers(0, n)``.  For ranges below
2**32 numpy's ``Generator`` produces every bounded integer from its own
``next_uint32`` call, so ``k`` scalar draws and one ``size=k`` draw consume
the stream identically (also with other draws in between).  The batched
rejection loop in :meth:`ActiveSet.sample` relies on exactly that: it
returns the same items, and leaves the generator in the same state, as
one scalar draw per attempt.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

import numpy as np

#: Up to this many missing positions, scalar draws beat one vector draw
#: (a ``size=`` call costs about as much as four scalar ones).
_SCALAR_DRAWS_UP_TO = 3


class ActiveSet:
    """Dense set of hashable items supporting O(1) uniform sampling."""

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        # dict.fromkeys keeps first occurrences in order, as one ``add``
        # per item would.
        self._items: list[Hashable] = list(dict.fromkeys(items))
        self._pos: dict[Hashable, int] = {
            item: position for position, item in enumerate(self._items)}
        #: Scratch for the rejection sampler, reused across calls: the
        #: scalar session loops call ``sample_binomial`` once per slot,
        #: and a fresh position set per slot would allocate inside the
        #: hottest loop (the kernel engine sidesteps this whole class by
        #: pre-drawing frames; see ``repro.kernels.frame``).
        self._scratch: set[int] = set()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._pos

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def add(self, item: Hashable) -> None:
        """Insert ``item``; no-op if already present."""
        if item in self._pos:
            return
        self._pos[item] = len(self._items)
        self._items.append(item)

    def remove(self, item: Hashable) -> None:
        """Remove ``item`` in O(1); raises ``KeyError`` if absent."""
        if not self.discard(item):
            raise KeyError(item)

    def discard(self, item: Hashable) -> bool:
        """Remove ``item`` if present; return whether it was removed."""
        position = self._pos.pop(item, None)
        if position is None:
            return False
        last = self._items.pop()
        if position < len(self._items):  # removed item was not the last one
            self._items[position] = last
            self._pos[last] = position
        return True

    def sample(self, k: int, rng: np.random.Generator) -> list[Hashable]:
        """Return ``k`` distinct items uniformly at random (without replacement).

        Uses rejection sampling over positions, which is O(k) in expectation
        for ``k`` much smaller than the set and falls back to a permutation
        when ``k`` is a large fraction of the set.

        The returned order is a pure function of the RNG stream and the set's
        insertion history: rejection-sampled positions are sorted before
        indexing (a ``set`` of positions would otherwise leak hash-iteration
        order into slot outcomes, breaking the parallel==serial guarantee the
        sweep executor relies on).
        """
        items = self._items
        n = len(items)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} items from a set of {n}")
        if k == 0:
            return []
        if k == n:
            return list(items)
        if k == 1:
            return [items[rng.integers(0, n)]]
        if k > n // 2:
            positions = rng.permutation(n)[:k]
            return [items[int(p)] for p in positions]
        # Rejection sampling into the reused scratch set.  Each round draws
        # exactly as many positions as are still missing, so it never draws
        # past the k-th distinct one: the same draws, in the same order, as
        # one scalar ``integers`` call per attempt (see the module
        # docstring), which is the order the golden results pin.
        chosen = self._scratch
        chosen.clear()
        while (need := k - len(chosen)) > 0:
            if need <= _SCALAR_DRAWS_UP_TO:
                chosen.add(int(rng.integers(0, n)))
            else:
                chosen.update(rng.integers(0, n, size=need).tolist())
        return [items[p] for p in sorted(chosen)]

    def sample_binomial(self, probability: float,
                        rng: np.random.Generator) -> list[Hashable]:
        """Sample each item independently with ``probability``.

        Statistically identical to evaluating the report hash
        ``H(ID|i) <= floor(p * 2^l)`` at every tag, but O(k) instead of O(N):
        draw the transmitter count from the binomial, then pick that many
        distinct members.

        This is the scalar engines' per-slot sampler.  FCAT's frame loop
        makes the same two steps itself (so an empty slot costs one draw
        and no call); the kernel engine replaces both wholesale with
        frame-at-once draws (:func:`repro.kernels.frame.draw_slot_counts`).
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        k = int(rng.binomial(len(self._items), probability)) if self._items else 0
        return self.sample(k, rng)
