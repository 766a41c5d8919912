"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import errno
import io

import numpy as np
import pytest

from repro.sim.population import TagPopulation


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def small_population() -> TagPopulation:
    """200 tags -- enough for full protocol sessions in milliseconds."""
    return TagPopulation.random(200, np.random.default_rng(11))


@pytest.fixture(scope="session")
def medium_population() -> TagPopulation:
    """2000 tags -- used where slot statistics need to be tight."""
    return TagPopulation.random(2000, np.random.default_rng(12))


class _DiskFullWriter:
    """A text stream whose write lands half its text, then fails."""

    def __init__(self, stream) -> None:
        self._stream = stream

    def write(self, text: str) -> int:
        self._stream.write(text[:len(text) // 2])
        self._stream.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self) -> "_DiskFullWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self._stream.close()


@pytest.fixture
def disk_full(monkeypatch):
    """Context manager: inside it, every file opened for writing through
    ``io.open`` (``Path.write_text`` and ``os.fdopen`` included) takes half
    of what is written and then raises ``ENOSPC``."""
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        stream = real_open(file, mode, *args, **kwargs)
        return _DiskFullWriter(stream) if "w" in mode else stream

    @contextlib.contextmanager
    def filling():
        with monkeypatch.context() as patch:
            patch.setattr(io, "open", failing_open)
            yield

    return filling
