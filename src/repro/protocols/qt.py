"""The Query Tree protocol (Law, Lee & Siu; paper Section II).

The reader keeps a queue of bit-string prefixes, initially the empty
prefix.  Each slot it broadcasts the front prefix; tags whose ID starts
with it respond.  On a collision the prefix is extended with 0 and with 1
and both are enqueued, deterministically splitting the responders by their
next ID bit.  The walk ends when the queue drains, so every tag is
eventually identified -- QT is *memoryless* on the tag side and immune to
the starvation problem of randomized protocols.

The flip side (paper Section II): a *malicious* tag that answers every
prefix drives the reader down an exponential walk of the full ID tree --
see :mod:`repro.security.blocker` for that attack and the selective
"blocker tag" privacy construction built on it.

The queue is bounded in our implementation (``max_slots``) so adversarial
populations terminate the simulation cleanly instead of hanging.

A probe only needs to ask the tags that answered its parent: every queued
prefix carries the responder list of the collision that enqueued it as its
*candidates*, so a slot costs O(candidates) instead of a population scan.
This relies on the monotone prefix contract of
:meth:`~repro.tags.tag.Tag.responds_to_prefix` (a tag answering an
extension of a prefix answers the prefix too).  Plain tags match by an
integer shift of their ID; other tag classes are asked through
``responds_to_prefix``.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["QueryTree"]


def prefix_responders(prefix: BitVector, candidates: list[Tag]) -> list[Tag]:
    """The unidentified ``candidates`` answering ``prefix``."""
    value, length = prefix.value, prefix.length
    out = []
    for tag in candidates:
        if tag.identified:
            continue
        if type(tag) is Tag:
            shift = tag.id_bits - length
            if shift >= 0 and tag.tag_id >> shift == value:
                out.append(tag)
        elif tag.responds_to_prefix(prefix):
            out.append(tag)
    return out


def children(prefix: BitVector) -> tuple[BitVector, BitVector]:
    """``prefix + 0`` and ``prefix + 1``."""
    value, length = prefix.value << 1, prefix.length + 1
    return BitVector(value, length), BitVector(value | 1, length)


def admit_to_lists(lists: deque[list[Tag]], tag: Tag) -> None:
    """Make a mid-round arrival a candidate of every queued probe."""
    seen: set[int] = set()
    for candidates in lists:
        if id(candidates) not in seen:  # sibling probes share one list
            seen.add(id(candidates))
            candidates.append(tag)


def withdraw_from_lists(lists: deque[list[Tag]], tag: Tag) -> None:
    """Drop a departed tag from every queued probe's candidates."""
    seen: set[int] = set()
    for candidates in lists:
        if id(candidates) not in seen:
            seen.add(id(candidates))
            candidates[:] = [t for t in candidates if t is not tag]


class QueryTree(AntiCollisionProtocol):
    """Prefix-probing deterministic tree walk.

    Parameters
    ----------
    max_slots:
        Safety bound on the number of probes (default: none).  When the
        bound is hit -- which only happens under adversarial interference
        -- the protocol reports itself finished and leaves the remaining
        tags unidentified; the caller can inspect ``aborted``.
    """

    framed = False

    def __init__(self, max_slots: int | None = None) -> None:
        super().__init__()
        self.name = "QT"
        self.max_slots = max_slots
        self._queue: deque[BitVector] = deque()
        #: Candidate tags of each queued prefix, in lockstep with ``_queue``.
        self._candidates: deque[list[Tag]] = deque()
        self.aborted = False

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        if tags and len({t.id_bits for t in tags}) > 1:
            raise ValueError("QueryTree requires uniform ID length")
        self._queue = deque([BitVector(0, 0)])
        self._candidates = deque([list(self._tags)])
        self.aborted = False
        self.frames_started = 1  # one continuous logical frame

    def admit(self, tag: Tag) -> None:
        super().admit(tag)
        admit_to_lists(self._candidates, tag)

    def withdraw(self, tag: Tag) -> None:
        super().withdraw(tag)
        withdraw_from_lists(self._candidates, tag)

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        if not self._queue:
            return []
        return prefix_responders(self._queue[0], self._candidates[0])

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        prefix = self._queue.popleft()
        self._candidates.popleft()
        if effective is SlotType.COLLIDED:
            id_bits = self._tags[0].id_bits if self._tags else 0
            if prefix.length >= id_bits:
                # Prefix already spans the whole ID: only duplicate or
                # adversarial tags can still collide here; drop the branch.
                pass
            else:
                # Whoever answers an extension answered this probe.
                self._queue.extend(children(prefix))
                self._candidates.extend((responders, responders))
        if self.max_slots is not None and self.slots_elapsed >= self.max_slots:
            self.aborted = True
            self._queue.clear()
            self._candidates.clear()

    @property
    def finished(self) -> bool:
        return not self._queue or not self.has_active_tags()
