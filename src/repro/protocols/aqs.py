"""Adaptive Query Splitting (Myung & Lee; paper Section II).

AQS is to the Query Tree what ABS is to the Binary Tree: the reader
remembers the outcome of the previous round.  The prefixes that produced
*single* or *idle* slots last round form the starting queue of the next
round, so an unchanged population is re-inventoried without a single
collision, and a changed one only pays splitting cost where tags actually
moved.  (A fresh round starts from the two one-bit prefixes as in plain
QT.)

Idle prefixes are retained because a tag that just *arrived* may land under
one; dropping them would orphan arrivals.  To keep the queue from growing
without bound after departures, *idle sibling pairs* are merged back into
their parent between rounds (the parent is guaranteed idle too, so the
merge loses nothing); a single-prefix is never merged, since combining it
with its sibling would re-create the collision the previous round already
paid to resolve.

Per-slot work follows :mod:`repro.protocols.qt`: each queued prefix
carries its candidate tags.  A readable round hands each warm-start prefix
the tags under it, found by binary search in the sorted IDs rather than
one population scan per prefix.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.protocols.qt import (
    admit_to_lists,
    children,
    prefix_responders,
    withdraw_from_lists,
)
from repro.tags.tag import Tag

__all__ = ["AdaptiveQuerySplitting"]


class AdaptiveQuerySplitting(AntiCollisionProtocol):
    """Query tree with a warm-start candidate queue."""

    framed = False

    def __init__(self, max_slots: int | None = None) -> None:
        super().__init__()
        self.name = "AQS"
        self.max_slots = max_slots
        self._queue: deque[BitVector] = deque()
        #: Candidate tags of each queued prefix, in lockstep with ``_queue``.
        self._candidates: deque[list[Tag]] = deque()
        #: (prefix, was_idle) outcomes of this round, seeding the next.
        self.candidate_queue: list[tuple[BitVector, bool]] = []
        self.aborted = False

    def start(self, tags: Sequence[Tag], fresh: bool = True) -> None:
        AntiCollisionProtocol.start(self, tags)
        self.frames_started = 1  # one continuous logical frame
        self.aborted = False
        if fresh or not self.candidate_queue:
            everyone = list(self._tags)
            self._queue = deque([BitVector(0, 1), BitVector(1, 1)])
            self._candidates = deque([everyone, everyone])
        else:
            self._queue = deque(self._compact(self.candidate_queue))
            self._candidates = deque(self._tags_under(self._queue))
        self.candidate_queue = []

    def _tags_under(self, prefixes: Sequence[BitVector]) -> list[list[Tag]]:
        """The tags under each warm-start prefix, in population order.

        A plain tag of ``B`` ID bits answers ``(value, L)`` iff its ID lies
        in ``[value << (B - L), (value + 1) << (B - L))``: a binary search
        in the sorted IDs per prefix, O(n log n) for the round instead of
        one scan per prefix.  Other tag classes are asked directly.
        """
        order = {id(t): i for i, t in enumerate(self._tags)}
        by_width: dict[int, tuple[list[int], list[Tag]]] = {}
        others = []
        for tag in sorted(self._tags, key=lambda t: t.tag_id):
            if type(tag) is Tag:
                ids, members = by_width.setdefault(tag.id_bits, ([], []))
                ids.append(tag.tag_id)
                members.append(tag)
            else:
                others.append(tag)
        out = []
        for prefix in prefixes:
            value, length = prefix.value, prefix.length
            found = [t for t in others if t.responds_to_prefix(prefix)]
            for width, (ids, members) in by_width.items():
                shift = width - length
                if shift >= 0:
                    lo = bisect_left(ids, value << shift)
                    hi = bisect_left(ids, (value + 1) << shift)
                    found += members[lo:hi]
            found.sort(key=lambda t: order[id(t)])
            out.append(found)
        return out

    @staticmethod
    def _compact(candidates: Sequence[tuple[BitVector, bool]]) -> list[BitVector]:
        """Merge *idle* sibling pairs up to their parent, repeatedly.

        Single-prefixes are kept verbatim: merging one with anything could
        put two tags back under one probe.  Merging two idle siblings is
        safe -- their parent covers the same (empty) region.  One pass
        from the longest prefix up suffices: a level's merges only feed
        the level above, and a pair is fixed by either member, so the
        order of merges cannot change the result.  One-bit prefixes never
        merge into the empty prefix.
        """
        idle: dict[int, set[int]] = {}
        keep = []
        for prefix, was_idle in candidates:
            if was_idle:
                idle.setdefault(prefix.length, set()).add(prefix.value)
            else:
                keep.append(prefix)
        for length in range(max(idle, default=0), 1, -1):
            level = idle.get(length)
            if not level:
                continue
            paired = {v for v in level if v ^ 1 in level}
            if paired:
                level -= paired
                idle.setdefault(length - 1, set()).update(v >> 1 for v in paired)
        merged = keep + [
            BitVector(value, length)
            for length, values in idle.items()
            for value in values
        ]
        merged.sort(key=lambda p: (p.length, p.value))
        return merged

    # ------------------------------------------------------------------

    def admit(self, tag: Tag) -> None:
        super().admit(tag)
        admit_to_lists(self._candidates, tag)

    def withdraw(self, tag: Tag) -> None:
        super().withdraw(tag)
        withdraw_from_lists(self._candidates, tag)

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
            if prefix.length < id_bits:
                self._queue.extend(children(prefix))
                self._candidates.extend((responders, responders))
        else:
            # Remember readable prefixes for the next round's warm start.
            self.candidate_queue.append((prefix, effective is SlotType.IDLE))
        if self.max_slots is not None and self.slots_elapsed >= self.max_slots:
            self.aborted = True
            self._queue.clear()
            self._candidates.clear()

    @property
    def finished(self) -> bool:
        if not self._queue:
            return True
        if not self.has_active_tags():
            # Early exit: every tag identified.  The unprobed prefixes would
            # all read idle; fold them into the candidates so the next
            # round's warm start still covers their regions.
            self.candidate_queue.extend((p, True) for p in self._queue)
            self._queue.clear()
            self._candidates.clear()
            return True
        return False
