"""EPC-like 96-bit tag identifiers.

The paper uses GEN2-style 96-bit IDs that *include* a 16-bit CRC (section VI:
"We set the ID length to be 96 bits (including the 16 bits CRC code)").  An ID
here is therefore an 80-bit payload followed by its CRC-16, carried around as a
plain Python ``int`` for speed, with codecs to/from MSB-first bit arrays for the
signal-level code.
"""

from __future__ import annotations

import numpy as np

from repro.air.crc import (
    CRC_BITS,
    append_crc_bits,
    crc16_bits,
    crc16_bytes_many,
    verify_crc_bits,
)

#: Total ID length on the air, CRC included (GEN2-style).
ID_BITS = 96
#: Number of freely-chosen payload bits.
PAYLOAD_BITS = ID_BITS - CRC_BITS


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Encode ``value`` as a MSB-first ``uint8`` bit array of length ``width``.

    Vectorized via ``int.to_bytes`` + :func:`numpy.unpackbits`: population
    minting runs once per simulation run, so this codec sits on the sweep
    executor's hot path at small N.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    if width == 0:
        return np.zeros(0, dtype=np.uint8)
    n_bytes = (width + 7) // 8
    raw = np.frombuffer(value.to_bytes(n_bytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[8 * n_bytes - width:]


def bits_to_int(bits: np.ndarray) -> int:
    """Decode a MSB-first bit array into an integer (any nonzero bit is 1)."""
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size == 0:
        return 0
    pad = (-arr.size) % 8
    if pad:
        arr = np.concatenate([np.zeros(pad, dtype=np.uint8), arr])
    return int.from_bytes(np.packbits(arr).tobytes(), "big")


def make_tag_id(payload: int) -> int:
    """Build a full 96-bit tag ID from an 80-bit payload by appending its CRC."""
    frame = append_crc_bits(int_to_bits(payload, PAYLOAD_BITS))
    return bits_to_int(frame)


def id_to_bits(tag_id: int) -> np.ndarray:
    """Return the 96 MSB-first bits of a tag ID (payload followed by CRC)."""
    return int_to_bits(tag_id, ID_BITS)


def verify_tag_id(tag_id: int) -> bool:
    """True iff the low 16 bits of ``tag_id`` are the CRC of its 80-bit payload."""
    if tag_id < 0 or tag_id >> ID_BITS:
        return False
    return verify_crc_bits(id_to_bits(tag_id))


def _sorted_unique_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique(rows, axis=0)`` for ``(n, 10)`` uint8 payload rows.

    ``np.unique`` sorts the rows as 10-byte records, several times slower
    than sorting integers.  Bytes 0-7 and 8-9 read as big-endian integers
    order the rows the same way (lexicographically by unsigned byte), so
    one ``lexsort`` on those two keys plus an adjacent-duplicate mask gives
    the same array.
    """
    head = np.ascontiguousarray(rows[:, :8]).view(">u8").ravel()
    tail = np.ascontiguousarray(rows[:, 8:]).view(">u2").ravel()
    order = np.lexsort((tail, head))
    head, tail, rows = head[order], tail[order], rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (head[1:] != head[:-1]) | (tail[1:] != tail[:-1])
    return rows[first]


def generate_tag_ids(count: int, rng: np.random.Generator) -> list[int]:
    """Generate ``count`` distinct valid 96-bit tag IDs.

    Payloads are drawn uniformly at random (the query-tree baselines rely on
    uniformly distributed IDs, as in the paper's related-work discussion).
    CRC stamping is vectorized (:func:`repro.air.crc.crc16_bytes_many`) so a
    fresh 20 000-tag population costs milliseconds, which keeps 100-run
    evaluation sweeps affordable.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    payload_bytes = PAYLOAD_BITS // 8
    rows = np.zeros((0, payload_bytes), dtype=np.uint8)
    while rows.shape[0] < count:
        need = count - rows.shape[0]
        fresh = rng.integers(0, 256, size=(need, payload_bytes), dtype=np.uint8)
        rows = _sorted_unique_rows(np.concatenate([rows, fresh]))
    crcs = crc16_bytes_many(rows)
    frames = np.concatenate(
        [rows, (crcs >> 8).astype(np.uint8)[:, None],
         (crcs & 0xFF).astype(np.uint8)[:, None]], axis=1)
    width = frames.shape[1]
    raw = frames.tobytes()
    return [int.from_bytes(raw[start:start + width], "big")
            for start in range(0, len(raw), width)]


def crc_of_payload(payload: int) -> int:
    """Return the 16-bit CRC of an 80-bit payload (helper for tests)."""
    return crc16_bits(int_to_bits(payload, PAYLOAD_BITS))
