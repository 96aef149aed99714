"""The per-tag automaton state.

A :class:`Tag` carries everything the anti-collision protocols need:

* its identifier (an ``l_id``-bit integer, also available as a
  :class:`~repro.bits.bitvec.BitVector` for prefix matching in QT);
* the protocol scratch state (slot choice for FSA, the splitting counter
  for BT, the matched flag for QT);
* a private random stream, so its slot choices and QCD preamble draws are
  reproducible and independent of other tags;
* an optional position, for the spatial deployment of Table V.

Tags are deliberately dumb: all decisions live in the protocol objects,
mirroring the asymmetry of real RFID systems where tags are state machines
driven by reader commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bits.bitvec import BitVector
from repro.bits.rng import RngStream

__all__ = ["Tag"]


@dataclass
class Tag:
    """One RFID tag.

    Attributes
    ----------
    tag_id:
        The identifier as a non-negative integer.
    id_bits:
        Identifier length l_id (paper analysis: 64; deployment: 96).
    rng:
        The tag's private random stream.
    position:
        Optional (x, y) metres, for spatial deployments.
    counter:
        BT splitting counter (Section III-B).
    slot_choice:
        FSA slot chosen within the current frame (-1 = none).
    identified:
        Set once the reader has acknowledged this tag; an identified tag
        keeps silent for the rest of the inventory.
    identified_at:
        Simulation time at which identification completed (for the delay
        metric of Section VI-D); ``None`` until identified.
    """

    tag_id: int
    id_bits: int
    rng: RngStream
    position: tuple[float, float] | None = None
    counter: int = 0
    slot_choice: int = -1
    identified: bool = False
    identified_at: float | None = None
    lost: bool = False
    _id_vector: BitVector | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.tag_id < 0:
            raise ValueError("tag_id must be non-negative")
        if self.tag_id >> self.id_bits:
            raise ValueError(
                f"tag_id {self.tag_id:#x} does not fit in {self.id_bits} bits"
            )

    @property
    def id_vector(self) -> BitVector:
        """The identifier as a bit vector (cached)."""
        if self._id_vector is None:
            self._id_vector = BitVector(self.tag_id, self.id_bits)
        return self._id_vector

    def responds_to_prefix(self, prefix: BitVector) -> bool:
        """Whether this tag answers a Query-Tree probe with ``prefix``.

        Normal tags match on their ID prefix; adversarial tags (see
        :mod:`repro.security.blocker`) override this to answer always or
        within a protected zone.

        Overrides must keep the **monotone prefix contract**: a tag that
        answers a prefix's extension (``prefix + 0`` or ``prefix + 1``)
        also answers the prefix itself.  QT and AQS rely on it to ask each
        probe only the tags that answered its parent probe.
        """
        return self.id_vector.startswith(prefix)

    def reset_protocol_state(self) -> None:
        """Return to the un-inventoried state (new identification round)."""
        self.counter = 0
        self.slot_choice = -1
        self.identified = False
        self.identified_at = None
        self.lost = False

    def mark_identified(self, at_time: float) -> None:
        if self.identified:
            raise RuntimeError(f"tag {self.tag_id:#x} identified twice")
        self.identified = True
        self.identified_at = at_time

    def __hash__(self) -> int:
        return hash((self.tag_id, self.id_bits))
