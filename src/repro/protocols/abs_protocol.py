"""Adaptive Binary Splitting (Myung & Lee, MobiHoc 2006; paper Section II).

ABS extends the binary-tree protocol for *repeated* inventories of a
slowly-changing population.  Each tag remembers its slot position from the
previous round in an **allocated-slot counter (ASC)**; the reader walks
slots with a **progressed-slot counter (PSC)**.  A tag transmits when
``ASC == PSC``.  Per-slot rules:

* **single**: the responder is identified (it keeps its ASC for the next
  round); the reader advances, ``PSC += 1``;
* **collided**: each responder adds a random bit to its ASC (splitting the
  set); every tag with ``ASC > PSC`` increments its ASC (making room);
* **idle**: every tag with ``ASC > PSC`` decrements its ASC (closing the
  gap) -- this is how slots freed by departed tags are reclaimed.

A round ends when PSC passes the largest ASC.  Because identified tags
retain their ASCs, the *next* round replays the final (collision-free)
schedule and completes in exactly one slot per tag -- the "starts the tag
identification only from readable cycles" property the paper quotes.  New
arrivals pick a random ASC in the current range and are split in on
collision.

A slot only ever touches the tags whose ASC equals PSC, so the protocol
keeps the tags grouped by ``ASC - PSC`` in a deque: a collision splits the
front group in two, an idle slot drops it (closing the gap), a single
retires it and advances PSC.  Every other tag's ASC shifts implicitly with
its group's position, and ``tag.counter`` is written back as each tag
retires (or withdraws).  A slot costs O(responders) instead of a rescan of
the population, with the same random draws.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["AdaptiveBinarySplitting"]


class AdaptiveBinarySplitting(AntiCollisionProtocol):
    """ABS: binary splitting with slot-schedule memory across rounds.

    The tag's ASC is stored in ``tag.counter``.  Call :meth:`start` with
    ``fresh=True`` (default) to forget prior schedules, or ``fresh=False``
    to begin a *readable* round that reuses the ASCs left by the previous
    round (tags must have been inventoried by this same protocol instance
    or carry valid counters).
    """

    framed = False

    def __init__(self) -> None:
        super().__init__()
        self.name = "ABS"
        self._psc = 0
        self._max_asc = 0
        #: ``_groups[k]``: the contending tags whose ASC is ``PSC + k``,
        #: trimmed so the last group always holds an unidentified tag.
        self._groups: deque[list[Tag]] = deque()

    def start(self, tags: Sequence[Tag], fresh: bool = True) -> None:
        AntiCollisionProtocol.start(self, tags)
        self.frames_started = 1  # one continuous logical frame
        self._psc = 0
        active = [t for t in self._tags if not t.identified]
        if fresh:
            for tag in self._tags:
                tag.counter = 0
            self._max_asc = 0
            self._groups = deque([active])
        else:
            self._max_asc = max((t.counter for t in self._tags), default=0)
            by_asc: dict[int, list[Tag]] = {}
            for tag in active:
                if tag.counter >= 0:
                    by_asc.setdefault(tag.counter, []).append(tag)
            self._groups = deque(
                by_asc.get(asc, []) for asc in range(max(by_asc, default=-1) + 1)
            )
        self._trim()

    def admit(self, tag: Tag) -> None:
        """A new arrival draws a random ASC in the not-yet-progressed range
        so it contends exactly once this round."""
        super().admit(tag)
        hi = max(self._psc, self._max_asc)
        tag.counter = int(tag.rng.integers(self._psc, hi + 1))
        self._max_asc = max(self._max_asc, tag.counter)
        offset = tag.counter - self._psc
        while len(self._groups) <= offset:
            self._groups.append([])
        self._groups[offset].append(tag)

    def withdraw(self, tag: Tag) -> None:
        super().withdraw(tag)
        for offset, group in enumerate(self._groups):
            if any(t is tag for t in group):
                group[:] = [t for t in group if t is not tag]
                tag.counter = self._psc + offset
                break
        self._trim()

    def _trim(self) -> None:
        groups = self._groups
        while groups and all(t.identified for t in groups[-1]):
            groups.pop()

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        if not self._groups:
            return []
        return [t for t in self._groups[0] if not t.identified]

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        groups = self._groups
        psc = self._psc
        front = groups.popleft() if groups else []
        if effective is SlotType.COLLIDED:
            # Responders add a random bit; every later group shifts up
            # one (``ASC > PSC`` increments) to make room for the 1-half.
            zeros: list[Tag] = []
            ones: list[Tag] = []
            for tag in front:
                if tag.identified:  # captured out of the collision
                    tag.counter = psc
                else:
                    (ones if tag.rng.integers(0, 2) else zeros).append(tag)
            groups.appendleft(ones)
            groups.appendleft(zeros)
        elif effective is SlotType.SINGLE:
            # The front retires at this PSC, identified or not (a true
            # single read as idle is never asked again).
            for tag in front:
                tag.counter = psc
            self._psc += 1
        else:
            # Idle: the empty slot is reclaimed (``ASC > PSC`` decrement).
            # Only feedback that disagrees with the responders can leave
            # a contender here; it stays at PSC, merged with the next group.
            stay = [t for t in front if not t.identified]
            if stay:
                order = {id(t): i for i, t in enumerate(self._tags)}
                merged = stay + (groups.popleft() if groups else [])
                groups.appendleft(sorted(merged, key=lambda t: order[id(t)]))
        self._trim()
        self._max_asc = self._psc + len(groups) - 1

    @property
    def finished(self) -> bool:
        """Round over when the reader has progressed past every ASC."""
        return not self._groups
