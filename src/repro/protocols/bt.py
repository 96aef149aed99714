"""The counter-based Binary Tree protocol (paper Section III-B, Figure 2).

Every tag owns a counter, initialized to 0.  In each slot the tags whose
counter equals 0 transmit.  After the reader announces the slot type:

* **collided**: each tag involved in the collision draws a random bit and
  adds it to its counter (splitting the colliding set in two); every other
  unidentified tag increments its counter by 1 (making room for the new
  subset);
* **idle or single**: every unidentified tag decrements its counter by 1;
  a tag identified in a single slot retires and keeps silent.

The identification is one continuous sequence of slots (a depth-first walk
of a random binary tree); the paper's Table VIII reports the total slot
count in its "# of frame" column, and Lemma 2 gives the averages:
``2.885n`` slots total = ``n`` single + ``1.443n`` collided + ``0.442n``
idle.

Only the front group (counter 0) ever transmits, and a slot only changes
that group, so the counters are kept implicitly: the protocol holds an
explicit stack of tag groups in which a group's counter is its depth from
the top.  A collision pops the front group and pushes its 1-half, then its
0-half (the responders' random bits split it; every deeper group sinks by
one); an idle or single slot pops it (everyone else rises by one).  A slot
therefore costs O(responders), not O(population), with the same random
draws as the textbook counter update.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["BinaryTree"]


class BinaryTree(AntiCollisionProtocol):
    """Counter-based binary splitting.

    ``tag.counter`` stays 0 while a tag is grouped: the counter is the
    depth of its group in ``_stack`` (top = last = counter 0), and it is
    written back only for a tag that withdraws mid-round.  Tags are
    identified at the front, where the counter is 0 anyway.
    """

    framed = False

    def __init__(self) -> None:
        super().__init__()
        self.name = "BT"
        self._started = False
        self._stack: list[list[Tag]] = []
        # A true single the detector missed leaves its tag unidentified
        # with a negative counter that later collisions raise back to 0.
        # Such tags wait here keyed by ``counter - _shift``, where
        # ``_shift`` counts collisions minus non-collisions.
        self._above: dict[int, list[Tag]] = {}
        self._shift = 0

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        front = [t for t in self._tags if not t.identified]
        for tag in front:
            tag.counter = 0
        self._stack = [front]
        self._above = {}
        self._shift = 0
        self._started = True
        # Tree protocols run one continuous logical frame; the paper's
        # Table VIII reports the slot total in its "# of frame" column.
        self.frames_started = 1

    def admit(self, tag: Tag) -> None:
        """A late arrival joins the current front group so it gets a chance
        immediately (it will typically cause a collision and be split in)."""
        super().admit(tag)
        tag.counter = 0
        if self._stack:
            self._stack[-1].append(tag)
        else:
            self._stack.append([tag])

    def withdraw(self, tag: Tag) -> None:
        super().withdraw(tag)
        placed = [
            (len(self._stack) - 1 - depth, group)
            for depth, group in enumerate(self._stack)
        ]
        placed += [(key + self._shift, g) for key, g in self._above.items()]
        for counter, group in placed:
            if any(t is tag for t in group):
                group[:] = [t for t in group if t is not tag]
                tag.counter = counter
                return

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        if not self._stack:
            return []
        return [t for t in self._stack[-1] if not t.identified]

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        front = self._stack.pop() if self._stack else []
        if effective is SlotType.COLLIDED:
            zeros: list[Tag] = []
            ones: list[Tag] = []
            for tag in front:
                if not tag.identified:
                    (ones if tag.rng.integers(0, 2) else zeros).append(tag)
            self._shift += 1
            risen = self._above.pop(-self._shift, None)
            if risen:
                zeros = self._in_tag_order(zeros + risen)
            self._stack.append(ones)
            self._stack.append(zeros)
        else:
            # Idle or single: the front group is done.  A member still
            # unidentified is a true single the detector read as idle.
            self._shift -= 1
            missed = [t for t in front if not t.identified]
            if missed:
                key = -1 - self._shift
                self._above[key] = self._in_tag_order(
                    self._above.get(key, []) + missed
                )

    def _in_tag_order(self, group: list[Tag]) -> list[Tag]:
        """``group`` in population order, the order responders come in."""
        order = {id(t): i for i, t in enumerate(self._tags)}
        return sorted(group, key=lambda t: order[id(t)])

    @property
    def finished(self) -> bool:
        """Done when no tag is contending.

        The counter automaton guarantees progress: the front group (counter
        0) either resolves (idle/single) or splits (collision), and every
        non-collided slot strictly decreases the sum of counters.
        """
        return self._started and not self.has_active_tags()
