"""In-memory span tracer that wraps a layer's public calls from outside.

A *span* is one call of a wrapped function: name, start, end, the span
that was open when it began (its parent) and a request id shared by every
span under the same top-level span.  Spans live in memory and are written
once, at exit, as JSON with each span's self time (duration minus the part
covered by its direct children).

Hot leaf calls -- per-slot or per-event functions that run tens of
thousands of times per request -- are *rolled up* instead of stored one by
one: per (nearest stored ancestor, name, direct parent name) the tracer
keeps the call count, total and self time, and a summed result count.
They still take part in parent/child accounting, so self times stay exact.

Wrapping patches the name where the caller looks it up (a module global
such as ``repro.service.core.plan_shards`` or a class attribute such as
``InventoryService.handle``); :meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: The clock every timestamp uses; CLOCK_MONOTONIC is system-wide on Linux,
#: so client-side timestamps of another process compare with span times.
clock = time.monotonic


class Tracer:
    """Collects spans and rolled-up leaf calls from any number of threads."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans: list[tuple] = []
        self._rollups: list[dict] = []
        self._rollups_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _thread_state(self) -> tuple[list, dict]:
        local = self._local
        try:
            return local.stack, local.rollup
        except AttributeError:
            local.stack = []
            local.rollup = {}
            with self._rollups_lock:
                self._rollups.append(local.rollup)
            return local.stack, local.rollup

    def wrap(self, name: str, fn: Callable, hot: bool = False,
             attrs: Callable[[tuple, Any], dict] | None = None,
             count: Callable[[Any], int] | None = None) -> Callable:
        """A traced stand-in for ``fn``.

        ``attrs(args, result)`` adds fields to a stored span; ``count(result)``
        adds to a rolled-up leaf's result count (e.g. tags resolved).
        """
        ids = self._ids
        spans = self._spans
        thread_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, rollup = thread_state()
            parent = stack[-1] if stack else None
            # frame: [sid, name, child_time, request_id, stored_ancestor]
            if hot:
                frame = [0, name, 0.0,
                         parent[3] if parent else 0,
                         parent[4] if parent else 0]
            else:
                sid = next(ids)
                frame = [sid, name, 0.0, parent[3] if parent else sid, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
            if hot:
                key = (frame[4], name, parent[1] if parent else None)
                entry = rollup.get(key)
                if entry is None:
                    entry = rollup[key] = [0, 0.0, 0.0, 0, frame[3]]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if count is not None:
                    entry[3] += count(result)
            else:
                extra = attrs(args, result) if attrs is not None else None
                spans.append((frame[0], parent[0] if parent else 0, name,
                              start, end, duration - frame[2], frame[3],
                              extra))
            return result

        return traced

    def patch(self, owner: Any, attribute: str, name: str,
              **options: Any) -> None:
        """Replace ``owner.attribute`` by its traced wrapper."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        """Every stored span plus the merged roll-ups, JSON-ready."""
        merged: dict[tuple, list] = {}
        with self._rollups_lock:
            rollups = list(self._rollups)
        for rollup in rollups:
            for key, entry in list(rollup.items()):
                into = merged.setdefault(key, [0, 0.0, 0.0, 0, entry[4]])
                for index in range(4):
                    into[index] += entry[index]
        return {
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start": start,
                 "end": end, "self": self_time, "request": request,
                 **({"attrs": extra} if extra else {})}
                for (sid, parent, name, start, end, self_time, request,
                     extra) in self._spans],
            "rollups": [
                {"ancestor": ancestor, "name": name, "parent_name": parent,
                 "calls": entry[0], "total": entry[1], "self": entry[2],
                 "count": entry[3], "request": entry[4]}
                for (ancestor, name, parent), entry in merged.items()],
        }

    def write(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.dump()), encoding="utf-8")
