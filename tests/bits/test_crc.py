"""CRC engine tests: catalogue check values, engine cross-validation,
error-detection properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bits.bitvec import BitVector
from repro.bits.crc import (
    CRC5_EPC,
    CRC16_BUYPASS,
    CRC16_CCITT_FALSE,
    CRC16_GEN2,
    CRC16_IBM,
    CRC32_IEEE,
    CrcEngine,
    CrcSpec,
    reflect,
)

ALL_SPECS = [
    CRC5_EPC,
    CRC16_CCITT_FALSE,
    CRC16_GEN2,
    CRC16_BUYPASS,
    CRC16_IBM,
    CRC32_IEEE,
]
TABLE_SPECS = [s for s in ALL_SPECS if s.width >= 8]


class TestReflect:
    def test_basic(self):
        assert reflect(0b001, 3) == 0b100
        assert reflect(0xF0, 8) == 0x0F

    def test_involution(self):
        for v in range(256):
            assert reflect(reflect(v, 8), 8) == v


class TestCatalogue:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_bitwise_check_value(self, spec):
        assert CrcEngine(spec, "bitwise").self_test()

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: s.name)
    def test_table_check_value(self, spec):
        assert CrcEngine(spec, "table").self_test()

    def test_crc32_known_value(self):
        # Independently known: CRC-32 of "123456789" is 0xCBF43926.
        assert CrcEngine(CRC32_IEEE).compute_bytes(b"123456789") == 0xCBF43926

    def test_buypass_published_check_value(self):
        # Independently known: CRC-16/BUYPASS of "123456789" is 0xFEE8.
        assert CrcEngine(CRC16_BUYPASS).compute_bytes(b"123456789") == 0xFEE8

    def test_ibm_ffff_published_check_value(self):
        # Poly 0x8005, init 0xFFFF, unreflected (catalogue CRC-16/CMS):
        # check value 0xAEE7.
        assert CrcEngine(CRC16_IBM).compute_bytes(b"123456789") == 0xAEE7

    def test_buypass_and_ibm_differ_only_by_init(self):
        assert CRC16_BUYPASS.poly == CRC16_IBM.poly == 0x8005
        assert CRC16_BUYPASS.init == 0x0000
        assert CRC16_IBM.init == 0xFFFF
        # Same computation from a different starting register: the two
        # must agree on the empty message iff the inits agree -- they
        # don't, so the check values must differ.
        assert (
            CrcEngine(CRC16_BUYPASS).compute_bytes(b"")
            != CrcEngine(CRC16_IBM).compute_bytes(b"")
        )

    def test_gen2_is_complement_of_ccitt_false(self):
        # CRC-16/GEN2 (GENIBUS) differs from CCITT-FALSE only by the final
        # complement.
        msg = b"EPC Gen2"
        a = CrcEngine(CRC16_CCITT_FALSE).compute_bytes(msg)
        b = CrcEngine(CRC16_GEN2).compute_bytes(msg)
        assert a ^ b == 0xFFFF


class TestEngineValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown CRC method"):
            CrcEngine(CRC32_IEEE, "magic")

    def test_table_requires_width_8(self):
        with pytest.raises(ValueError, match="width >= 8"):
            CrcEngine(CRC5_EPC, "table")

    def test_spec_rejects_oversized_poly(self):
        with pytest.raises(ValueError):
            CrcSpec("bad", 4, 0x10, 0, False, False, 0, 0)

    def test_spec_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            CrcSpec("bad", 0, 0, 0, False, False, 0, 0)

    def test_table_memory_is_1kb_for_crc32(self):
        # Paper Table IV: a table-driven CRC-32 needs 1 KB.
        assert CrcEngine(CRC32_IEEE, "table").table_memory_bytes == 1024

    def test_table_memory_crc16(self):
        assert CrcEngine(CRC16_CCITT_FALSE, "table").table_memory_bytes == 512


class TestCrossValidation:
    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: s.name)
    @given(data=st.binary(min_size=0, max_size=32))
    def test_bitwise_equals_table_on_bytes(self, spec, data):
        bitwise = CrcEngine(spec, "bitwise").compute_bytes(data)
        table = CrcEngine(spec, "table").compute_bytes(data)
        assert bitwise == table

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: s.name)
    def test_compute_bits_matches_compute_bytes(self, spec):
        data = b"\x01\x02\xfe"
        bits = BitVector.from_bytes(data)
        engine = CrcEngine(spec, "bitwise")
        assert engine.compute_bits(bits).to_int() == engine.compute_bytes(data)

    def test_compute_bits_table_path_whole_bytes(self):
        engine = CrcEngine(CRC16_CCITT_FALSE, "table")
        bits = BitVector.from_bytes(b"\xab\xcd")
        assert engine.compute_bits(bits).to_int() == engine.compute_bytes(
            b"\xab\xcd"
        )

    def test_non_byte_lengths_supported_bitwise(self):
        engine = CrcEngine(CRC16_CCITT_FALSE)
        out = engine.compute_bits(BitVector.from_bitstring("10110"))
        assert out.length == 16


class TestErrorDetection:
    """The properties that make CRC a collision detector in CRC-CD."""

    @given(st.integers(0, (1 << 64) - 1))
    def test_deterministic(self, value):
        engine = CrcEngine(CRC16_CCITT_FALSE)
        v = BitVector(value, 64)
        assert engine.compute_bits(v) == engine.compute_bits(v)

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, 31))
    def test_single_bit_flip_always_detected(self, value, flip_pos):
        """Any single-bit error changes the CRC (minimum distance >= 2)."""
        engine = CrcEngine(CRC16_CCITT_FALSE)
        v = BitVector(value, 32)
        flipped = v ^ BitVector(1 << (31 - flip_pos), 32)
        assert engine.compute_bits(v) != engine.compute_bits(flipped)

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, 30))
    def test_burst_of_two_detected(self, value, pos):
        engine = CrcEngine(CRC16_CCITT_FALSE)
        v = BitVector(value, 32)
        mask = BitVector(0b11 << (30 - pos), 32)
        assert engine.compute_bits(v) != engine.compute_bits(v ^ mask)

    def test_op_count_exceeds_100_for_64bit_ids(self, rng):
        """Paper Table IV: a CRC computation costs >100 instructions."""
        engine = CrcEngine(CRC32_IEEE, "bitwise")
        v = BitVector.random(64, rng.generator)
        engine.compute_bits(v)
        assert engine.last_op_count > 100

    def test_op_count_scales_linearly(self):
        """Complexity O(l): doubling the message ~doubles the work (the
        exact op count depends on how many feedback XORs fire, which is
        data-dependent, so allow 10% slack)."""
        engine = CrcEngine(CRC16_CCITT_FALSE, "bitwise")
        engine.compute_bits(BitVector.zeros(64))
        ops64 = engine.last_op_count
        engine.compute_bits(BitVector.zeros(128))
        ops128 = engine.last_op_count
        assert abs(ops128 - 2 * ops64) <= 0.1 * ops64


def _bit_serial_reference(spec: CrcSpec, bits: BitVector) -> tuple[int, int]:
    """The shift register one bit at a time, as ``CrcEngine`` once ran it.

    Frozen here so the byte-table kernel is checked against the textbook
    algorithm: the same register walk and the same op count (shift and
    compare per bit, plus one per polynomial XOR).
    """
    mask = (1 << spec.width) - 1
    raw = bits.to_bits()
    if spec.refin:
        # Whole bytes LSB-first; a trailing partial chunk is reversed too.
        stream = [b for i in range(0, len(raw), 8) for b in reversed(raw[i : i + 8])]
    else:
        stream = raw
    reg = spec.init
    ops = 0
    for bit in stream:
        top = (reg >> (spec.width - 1)) & 1
        reg = (reg << 1) & mask
        if top ^ bit:
            reg ^= spec.poly
            ops += 1
        ops += 2
    if spec.refout:
        out = 0
        for _ in range(spec.width):
            out = (out << 1) | (reg & 1)
            reg >>= 1
        reg = out
    return (reg ^ spec.xorout) & mask, ops


#: Catalogue specs plus reflected registers narrower than and equal to a
#: byte, which no catalogue entry covers.
IDENTITY_SPECS = ALL_SPECS + [
    CrcSpec("CRC-4/refin", 4, 0x3, 0x0, True, True, 0x0, 0x7),
    CrcSpec("CRC-8/mixed", 8, 0x07, 0xAB, True, False, 0x55, 0x00),
]


class TestTableKernelIdentity:
    """The byte-table bitwise kernel replays the bit-serial register."""

    @pytest.mark.parametrize("spec", IDENTITY_SPECS, ids=lambda s: s.name)
    def test_every_length_0_to_130(self, spec):
        rng = np.random.default_rng(spec.width)
        engine = CrcEngine(spec, "bitwise")
        for length in range(131):
            for _ in range(6):
                value = int.from_bytes(rng.bytes(17), "big") >> (136 - length)
                bits = BitVector(value, length)
                got = (engine.compute_bits(bits).value, engine.last_op_count)
                assert got == _bit_serial_reference(spec, bits), (length, value)

    @pytest.mark.parametrize("spec", IDENTITY_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("fill", [0, 1])
    def test_constant_messages(self, spec, fill):
        engine = CrcEngine(spec, "bitwise")
        for length in range(131):
            bits = BitVector(((1 << length) - 1) * fill, length)
            got = (engine.compute_bits(bits).value, engine.last_op_count)
            assert got == _bit_serial_reference(spec, bits)

    def test_crc5_takes_the_bit_loop(self):
        """Registers narrower than a byte have no byte table."""
        engine = CrcEngine(CRC5_EPC, "bitwise")
        assert engine._shift_tables is None
        bits = BitVector(0xDEADBEEFCAFE, 48)
        assert (
            engine.compute_bits(bits).value,
            engine.last_op_count,
        ) == _bit_serial_reference(CRC5_EPC, bits)

    @given(st.sampled_from(IDENTITY_SPECS), st.integers(0, 130), st.data())
    def test_random_messages(self, spec, length, data):
        value = data.draw(st.integers(0, (1 << length) - 1))
        bits = BitVector(value, length)
        engine = CrcEngine(spec, "bitwise")
        got = (engine.compute_bits(bits).value, engine.last_op_count)
        assert got == _bit_serial_reference(spec, bits)

    def test_reflect_matches_bit_loop(self):
        for width in range(1, 40):
            for value in (0, 1, (1 << width) - 1, 0x5A5A5A5A5A % (1 << width)):
                expected, rest = 0, value
                for _ in range(width):
                    expected = (expected << 1) | (rest & 1)
                    rest >>= 1
                assert reflect(value, width) == expected
                # Bits above the width are ignored.
                assert reflect(value | (1 << width), width) == expected
