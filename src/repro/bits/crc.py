"""Cyclic redundancy check engines.

The paper's baseline collision-detection scheme, CRC-CD, has every tag
transmit ``id ⊕ crc(id)``.  This module implements the CRC substrate from
scratch:

* :class:`CrcSpec` -- the standard Rocksoft parameter model
  (width / polynomial / init / reflect-in / reflect-out / xor-out);
* :class:`CrcEngine` -- two interchangeable implementations:

  - ``bitwise``: the textbook shift-register algorithm, O(l) in the message
    length with a handful of operations per bit.  This is the engine the
    paper's Table IV instruction-count argument is about, so it also counts
    the operations it performs (see :attr:`CrcEngine.last_op_count`).  The
    simulator replays the register a byte at a time through two tables,
    the register update and the XOR count of those eight steps, so the
    count is the bit-serial one without paying for a Python step per bit.
  - ``table``: byte-at-a-time with a 256-entry lookup table (the "1 KB
    extra memory" of Table IV for a 32-bit CRC).

Registered parameter sets (check values from the standard CRC catalogue,
message ``b"123456789"``):

========================  =====  ==========  ==========
name                      width  polynomial  check
========================  =====  ==========  ==========
``CRC5_EPC``                  5        0x09        0x00
``CRC16_CCITT_FALSE``        16      0x1021      0x29B1
``CRC16_GEN2``               16      0x1021      0x906E
``CRC16_BUYPASS``            16      0x8005      0xFEE8
``CRC16_IBM``                16      0x8005      0xAEE7
``CRC32_IEEE``               32  0x04C11DB7  0xCBF43926
========================  =====  ==========  ==========

``CRC16_GEN2`` is the EPC Class-1 Gen-2 / ISO 18000-6C CRC-16 (the
CCITT polynomial with init ``0xFFFF`` and the output complemented; catalogue
name CRC-16/GENIBUS).  The paper's analysis uses a 32-bit CRC
(``l_crc = 32``), for which we provide ``CRC32_IEEE``.

``CRC16_BUYPASS`` (catalogue CRC-16/BUYPASS, a.k.a. CRC-16/UMTS and
CRC-16/VERIFONE) is the unreflected IBM polynomial 0x8005 with init 0 --
the frame trailer of CL7206C2-style reader wire protocols, used by
:mod:`repro.gateway.codec`.  ``CRC16_IBM`` is the same computation with
init ``0xFFFF`` (catalogue CRC-16/CMS), the variant some reader firmware
revisions ship instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bits.bitvec import BitVector

__all__ = [
    "CrcSpec",
    "CrcEngine",
    "CRC5_EPC",
    "CRC16_CCITT_FALSE",
    "CRC16_GEN2",
    "CRC16_BUYPASS",
    "CRC16_IBM",
    "CRC32_IEEE",
    "reflect",
]


#: ``bytes.translate`` table reversing the bit order of every byte.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reflect(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``."""
    if width <= 0:
        return 0
    value &= (1 << width) - 1
    if width % 8 == 0:
        # Whole bytes: reverse the byte order and the bits in each byte.
        raw = value.to_bytes(width // 8, "little").translate(_REVERSED_BYTES)
        return int.from_bytes(raw, "big")
    return int(format(value, f"0{width}b")[::-1], 2)


@dataclass(frozen=True)
class CrcSpec:
    """Rocksoft-model CRC parameters.

    Attributes
    ----------
    name:
        Catalogue name, for reporting.
    width:
        CRC width in bits.
    poly:
        Generator polynomial (normal representation, MSB-first, without the
        implicit leading 1).
    init:
        Initial shift-register value.
    refin / refout:
        Whether input bytes / the final register are bit-reflected.
    xorout:
        Final XOR applied to the register.
    check:
        Expected CRC of ``b"123456789"`` -- used by the self-test.
    """

    name: str
    width: int
    poly: int
    init: int
    refin: bool
    refout: bool
    xorout: int
    check: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("CRC width must be positive")
        mask = (1 << self.width) - 1
        for field in ("poly", "init", "xorout", "check"):
            if not 0 <= getattr(self, field) <= mask:
                raise ValueError(f"{field} does not fit in {self.width} bits")


@lru_cache(maxsize=None)
def _shift_tables(spec: CrcSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Eight shift-register steps as two 256-entry tables (``width >= 8``).

    Over one byte, the feedback bit of every step depends only on
    ``idx = (register top byte) ^ (data byte)``: the low ``width - 8``
    register bits reach the top only after the eighth step.  So
    ``update[idx]`` is the register that eight steps push out of
    ``idx << (width - 8)``, XORed into the shifted-up low bits, and
    ``xors[idx]`` counts the polynomial XORs those steps performed.
    """
    mask = (1 << spec.width) - 1
    top = spec.width - 1
    update, xors = [], []
    for idx in range(256):
        reg = idx << (spec.width - 8)
        count = 0
        for _ in range(8):
            feedback = reg >> top
            reg = (reg << 1) & mask
            if feedback:
                reg ^= spec.poly
                count += 1
        update.append(reg)
        xors.append(count)
    return tuple(update), tuple(xors)


CRC5_EPC = CrcSpec("CRC-5/EPC-C1G2", 5, 0x09, 0x09, False, False, 0x00, 0x00)
CRC16_CCITT_FALSE = CrcSpec(
    "CRC-16/CCITT-FALSE", 16, 0x1021, 0xFFFF, False, False, 0x0000, 0x29B1
)
CRC16_GEN2 = CrcSpec(
    "CRC-16/GEN2", 16, 0x1021, 0xFFFF, False, False, 0xFFFF, 0xD64E
)
CRC16_BUYPASS = CrcSpec(
    "CRC-16/BUYPASS", 16, 0x8005, 0x0000, False, False, 0x0000, 0xFEE8
)
CRC16_IBM = CrcSpec(
    "CRC-16/IBM-FFFF", 16, 0x8005, 0xFFFF, False, False, 0x0000, 0xAEE7
)
CRC32_IEEE = CrcSpec(
    "CRC-32/IEEE", 32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF, 0xCBF43926
)


class CrcEngine:
    """A CRC calculator over bit strings.

    Parameters
    ----------
    spec:
        The CRC parameter set.
    method:
        ``"bitwise"`` (shift register, counts its operations) or
        ``"table"`` (byte-wise lookup; requires bit lengths divisible by 8
        unless ``refin`` is False, in which case trailing bits fall back to
        the bitwise path).

    The op count does not force bit-serial work: within one byte every
    feedback bit is a function of the register's top byte XOR the data
    byte, so the ``bitwise`` method steps whole bytes through tables that
    also record how many polynomial XORs the eight steps made.  Only
    trailing non-byte bits and registers narrower than a byte (CRC-5)
    take the bit loop.
    """

    def __init__(self, spec: CrcSpec, method: str = "bitwise") -> None:
        if method not in ("bitwise", "table"):
            raise ValueError(f"unknown CRC method {method!r}")
        if method == "table" and spec.width < 8:
            raise ValueError("table-driven CRC requires width >= 8")
        self.spec = spec
        self.method = method
        self._mask = (1 << spec.width) - 1
        self._table: np.ndarray | None = None
        self._shift_tables = _shift_tables(spec) if spec.width >= 8 else None
        #: Number of primitive shift/xor operations performed by the most
        #: recent :meth:`compute_bits` call (bitwise method only).  Backs the
        #: Table IV instruction-count comparison.
        self.last_op_count: int = 0
        if method == "table":
            self._table = self._build_table()

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------

    def _build_table(self) -> np.ndarray:
        """The classic 256-entry byte table (1 KB of uint32 for CRC-32).

        Its entries are the register updates of :func:`_shift_tables`;
        with reflected input they live in the reflected domain.
        """
        update, _ = _shift_tables(self.spec)
        if self.spec.refin:
            width = self.spec.width
            update = [reflect(update[reflect(b, 8)], width) for b in range(256)]
        return np.array(update, dtype=np.uint64)

    @property
    def table_memory_bytes(self) -> int:
        """Memory footprint of the lookup table: 256 entries of
        ``ceil(width/8)`` bytes (1 KB for CRC-32, per the paper's Table IV)."""
        return 256 * ((self.spec.width + 7) // 8)

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------

    def compute_bits(self, bits: BitVector) -> BitVector:
        """CRC of an arbitrary-length bit string, returned as a BitVector of
        ``spec.width`` bits."""
        if self.method == "table" and bits.length % 8 == 0:
            value = self._compute_table(bits.to_bytes())
        else:
            value = self._compute_bitwise(bits)
        return BitVector(value, self.spec.width)

    def compute_bytes(self, data: bytes) -> int:
        """CRC of a byte string, as an integer (catalogue convention)."""
        if self.method == "table":
            return self._compute_table(data)
        return self._compute_bitwise(BitVector.from_bytes(data))

    def _compute_bitwise(self, bits: BitVector) -> int:
        """The shift-register CRC, replayed a byte at a time.

        Each whole byte goes through :func:`_shift_tables`, built once per
        spec: one lookup for the register after eight shift steps and one
        for the number of polynomial XORs those steps performed, so
        ``last_op_count`` equals the bit-serial count (two operations per
        bit plus one per XOR).  Reflected input feeds each whole byte
        LSB-first, which is the byte-reversed byte MSB-first.  Trailing
        non-byte bits and registers narrower than a byte take the bit loop.
        """
        spec = self.spec
        width = spec.width
        mask = self._mask
        length = bits.length
        value = bits.value
        reg = spec.init
        ops = 2 * length
        n_bytes = length >> 3 if width >= 8 else 0
        if n_bytes:
            update, xors = self._shift_tables
            shift = width - 8
            data = (value >> (length - 8 * n_bytes)).to_bytes(n_bytes, "big")
            if spec.refin:
                data = data.translate(_REVERSED_BYTES)
            for byte in data:
                idx = (reg >> shift) ^ byte
                reg = ((reg << 8) & mask) ^ update[idx]
                ops += xors[idx]
        # Leftover bits in transmission-order chunks of at most a byte;
        # reflected input reverses each chunk, a trailing partial one too.
        top = width - 1
        poly = spec.poly
        for start in range(8 * n_bytes, length, 8):
            size = min(8, length - start)
            chunk = (value >> (length - start - size)) & ((1 << size) - 1)
            if spec.refin:
                chunk = reflect(chunk, size)
            for k in range(size - 1, -1, -1):
                feedback = (reg >> top) ^ ((chunk >> k) & 1)
                reg = (reg << 1) & mask
                if feedback:
                    reg ^= poly
                    ops += 1
        if spec.refout:
            reg = reflect(reg, width)
        self.last_op_count = ops
        return (reg ^ spec.xorout) & self._mask

    def _compute_table(self, data: bytes) -> int:
        spec = self.spec
        assert self._table is not None
        reg = spec.init
        if spec.refin:
            reg = reflect(reg, spec.width)
            for byte in data:
                idx = (reg ^ byte) & 0xFF
                reg = (reg >> 8) ^ int(self._table[idx])
        else:
            shift = spec.width - 8
            for byte in data:
                idx = ((reg >> shift) ^ byte) & 0xFF if shift >= 0 else byte
                reg = ((reg << 8) & self._mask) ^ int(self._table[idx])
        if spec.refout != spec.refin:
            reg = reflect(reg, spec.width)
        return (reg ^ spec.xorout) & self._mask

    # ------------------------------------------------------------------
    # Self test
    # ------------------------------------------------------------------

    def self_test(self) -> bool:
        """Check the engine against the catalogue check value."""
        return self.compute_bytes(b"123456789") == self.spec.check

    def __repr__(self) -> str:
        return f"CrcEngine({self.spec.name}, method={self.method!r})"
