"""96-bit tag IDs: structure, codecs, population generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.air.crc import crc16_bytes_many
from repro.air.ids import (
    ID_BITS,
    PAYLOAD_BITS,
    _sorted_unique_rows,
    bits_to_int,
    crc_of_payload,
    generate_tag_ids,
    id_to_bits,
    int_to_bits,
    make_tag_id,
    verify_tag_id,
)

payloads = st.integers(0, (1 << PAYLOAD_BITS) - 1)


class TestBitCodec:
    @given(st.integers(0, (1 << 64) - 1), st.integers(1, 96))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, value, width):
        value &= (1 << width) - 1
        assert bits_to_int(int_to_bits(value, width)) == value

    def test_msb_first(self):
        assert list(int_to_bits(0b100, 3)) == [1, 0, 0]

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(8, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 8)

    @given(st.integers(0, (1 << 96) - 1), st.integers(0, 96))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_bit_reference(self, value, width):
        """The unpackbits codec must agree with the shift-and-mask loop it
        replaced, bit for bit, at any width (byte-aligned or not)."""
        value &= (1 << width) - 1 if width else 0
        reference = np.array(
            [(value >> (width - 1 - i)) & 1 for i in range(width)],
            dtype=np.uint8)
        encoded = int_to_bits(value, width)
        assert encoded.dtype == np.uint8
        assert np.array_equal(encoded, reference)
        assert bits_to_int(reference) == value

    def test_zero_width(self):
        assert int_to_bits(0, 0).shape == (0,)
        assert bits_to_int(np.zeros(0, dtype=np.uint8)) == 0


class TestTagIds:
    @given(payloads)
    @settings(max_examples=40, deadline=None)
    def test_made_ids_verify(self, payload):
        tag = make_tag_id(payload)
        assert verify_tag_id(tag)
        assert 0 <= tag < (1 << ID_BITS)

    @given(payloads)
    @settings(max_examples=30, deadline=None)
    def test_id_structure(self, payload):
        """ID = payload (high 80 bits) || CRC (low 16 bits)."""
        tag = make_tag_id(payload)
        assert tag >> 16 == payload
        assert tag & 0xFFFF == crc_of_payload(payload)

    def test_corrupted_id_fails_verification(self):
        tag = make_tag_id(0xDEADBEEF)
        assert not verify_tag_id(tag ^ (1 << 50))

    def test_out_of_range_ids_fail(self):
        assert not verify_tag_id(-1)
        assert not verify_tag_id(1 << ID_BITS << 4)

    def test_bits_roundtrip(self):
        tag = make_tag_id(123456789)
        assert bits_to_int(id_to_bits(tag)) == tag


class TestGeneration:
    def test_count_and_distinctness(self, rng):
        ids = generate_tag_ids(500, rng)
        assert len(ids) == 500
        assert len(set(ids)) == 500

    def test_all_generated_ids_valid(self, rng):
        assert all(verify_tag_id(tag) for tag in generate_tag_ids(64, rng))

    def test_zero_count(self, rng):
        assert generate_tag_ids(0, rng) == []

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_tag_ids(-1, rng)

    def test_matches_one_int_from_bytes_per_row(self):
        """The bulk byte conversion equals converting each row alone."""
        count, width = 257, PAYLOAD_BITS // 8
        ids = generate_tag_ids(count, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        rows = np.zeros((0, width), dtype=np.uint8)
        while rows.shape[0] < count:
            need = count - rows.shape[0]
            fresh = rng.integers(0, 256, size=(need, width), dtype=np.uint8)
            rows = np.unique(np.concatenate([rows, fresh]), axis=0)
        crcs = crc16_bytes_many(rows)
        frames = np.concatenate(
            [rows, (crcs >> 8).astype(np.uint8)[:, None],
             (crcs & 0xFF).astype(np.uint8)[:, None]], axis=1)
        assert ids == [int.from_bytes(row.tobytes(), "big") for row in frames]

    @pytest.mark.parametrize("count", [0, 1, 7, 3000])
    def test_sorted_unique_rows_matches_np_unique(self, count):
        """Few distinct byte values: many duplicate and tied rows."""
        rng = np.random.default_rng(count)
        rows = rng.integers(0, 3, size=(count, PAYLOAD_BITS // 8),
                            dtype=np.uint8)
        rows[: count // 2, 8:] = rng.integers(0, 256, size=(count // 2, 2),
                                              dtype=np.uint8)
        assert np.array_equal(_sorted_unique_rows(rows),
                              np.unique(rows, axis=0))

    def test_reproducible_per_seed(self):
        a = generate_tag_ids(50, np.random.default_rng(3))
        b = generate_tag_ids(50, np.random.default_rng(3))
        assert a == b

    def test_payload_bits_roughly_uniform(self, rng):
        """Query-tree baselines rely on uniform ID bits."""
        ids = generate_tag_ids(2000, rng)
        bits = np.stack([id_to_bits(tag)[:PAYLOAD_BITS] for tag in ids])
        means = bits.mean(axis=0)
        assert np.all(means > 0.4) and np.all(means < 0.6)
