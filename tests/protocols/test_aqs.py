"""Adaptive Query Splitting tests: warm-start rounds."""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_tree as ref
from repro.bits.bitvec import BitVector
from repro.core.qcd import QCDDetector
from repro.protocols.aqs import AdaptiveQuerySplitting
from repro.sim.reader import Reader


class TestFirstRound:
    def test_all_identified(self, make_population):
        pop = make_population(40, id_bits=16)
        proto = AdaptiveQuerySplitting()
        result = Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert sorted(result.identified_ids) == sorted(pop.ids)

    def test_candidates_collected(self, make_population):
        pop = make_population(20, id_bits=16)
        proto = AdaptiveQuerySplitting()
        Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert len(proto.candidate_queue) >= 20  # >= one single per tag


class TestWarmStart:
    def test_second_round_collision_free(self, make_population):
        pop = make_population(30, id_bits=16)
        proto = AdaptiveQuerySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        for tag in pop:
            tag.identified = False
            tag.identified_at = None
        result2 = reader.run_inventory_continue(pop.tags, proto)
        assert result2.stats.true_counts.collided == 0
        assert result2.stats.true_counts.single == 30

    def test_warm_start_covers_new_arrival(self, make_population):
        """A tag arriving between rounds must still be identified: the idle
        candidate prefixes keep the whole ID space covered."""
        pop = make_population(12, id_bits=10)
        proto = AdaptiveQuerySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        for tag in pop:
            tag.identified = False
            tag.identified_at = None
        newcomer_pop = make_population(1, id_bits=10)
        newcomer = newcomer_pop[0]
        while newcomer.tag_id in set(pop.ids):  # pragma: no cover - unlikely
            newcomer_pop = make_population(1, id_bits=10)
            newcomer = newcomer_pop[0]
        result2 = reader.run_inventory_continue(
            list(pop.tags) + [newcomer], proto
        )
        assert newcomer.tag_id in result2.identified_ids
        assert len(result2.identified_ids) == 13

    def test_fresh_round_resets(self, make_population):
        pop = make_population(10, id_bits=12)
        proto = AdaptiveQuerySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        pop.reset()
        result = reader.run_inventory(pop.tags, proto)  # fresh=True
        assert result.stats.true_counts.single == 10


class TestCompaction:
    @staticmethod
    def compact(*pairs):
        cands = [(BitVector.from_bitstring(s), idle) for s, idle in pairs]
        return {
            p.to_bitstring()
            for p in AdaptiveQuerySplitting._compact(cands)
        }

    def test_idle_sibling_pairs_merge_recursively(self):
        # idle 000 + idle 001 -> idle 00; idle 00 + idle 01 -> idle 0.
        out = self.compact(("000", True), ("001", True), ("01", True), ("10", False))
        assert out == {"0", "10"}

    def test_single_prefixes_never_merge(self):
        """Merging a single with its sibling would re-create a collision."""
        out = self.compact(("00", False), ("01", False))
        assert out == {"00", "01"}

    def test_mixed_pair_kept_apart(self):
        out = self.compact(("00", True), ("01", False))
        assert out == {"00", "01"}

    def test_never_merges_to_empty_prefix(self):
        out = self.compact(("0", True), ("1", True))
        assert out == {"0", "1"}

    def test_lone_idle_kept(self):
        out = self.compact(("00", True), ("10", False))
        assert out == {"00", "10"}


@st.composite
def candidate_sets(draw):
    """Random readable outcomes plus idle sibling chains that cascade."""
    pairs = draw(
        st.lists(
            st.tuples(
                st.text("01", min_size=1, max_size=9), st.booleans()
            ),
            max_size=60,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.text("01", min_size=1, max_size=10))
        # Idle ``path`` and the idle sibling of each of its prefixes:
        # the merges climb the whole path, down to a one-bit prefix.
        pairs.append((path, True))
        for k in range(2, len(path) + 1):
            node = path[:k]
            pairs.append((node[:-1] + ("1" if node[-1] == "0" else "0"), True))
    depth = draw(st.integers(0, 6))
    if depth:
        # A complete idle subtree under a random root.
        root = draw(st.text("01", min_size=1, max_size=4))
        pairs += [
            (root + format(i, f"0{depth}b"), True) for i in range(1 << depth)
        ]
    order = draw(st.permutations(range(len(pairs))))
    return [
        (BitVector.from_bitstring(pairs[i][0]), pairs[i][1]) for i in order
    ]


class TestCompactionIdentity:
    """One bottom-up pass returns exactly what the old merge-and-resort
    loop (frozen in ``_reference_tree``) returned."""

    @settings(max_examples=300, deadline=None)
    @given(candidate_sets())
    def test_same_list_as_reference(self, cands):
        assert AdaptiveQuerySplitting._compact(
            cands
        ) == ref.AdaptiveQuerySplitting._compact(cands)

    def test_cascade_to_one_bit_prefixes(self):
        leaves = [
            (BitVector(i, 8), True) for i in range(1 << 8)
        ]
        out = AdaptiveQuerySplitting._compact(leaves)
        assert out == [BitVector(0, 1), BitVector(1, 1)]
        assert out == ref.AdaptiveQuerySplitting._compact(leaves)

    def test_large_candidate_set_is_not_superlinear(self):
        """2^14 idle leaves plus 2^13 singles: the old loop re-sorted the
        idle set after every merge (minutes here); one pass takes
        milliseconds.  The bound is loose on purpose."""
        cands = [(BitVector(i, 14), True) for i in range(1 << 14)]
        cands += [(BitVector(i, 15), False) for i in range(0, 1 << 15, 4)]
        t0 = time.perf_counter()
        out = AdaptiveQuerySplitting._compact(cands)
        assert time.perf_counter() - t0 < 2.0
        assert out[:2] == [BitVector(0, 1), BitVector(1, 1)]


class TestBounds:
    def test_max_slots(self, make_population):
        pop = make_population(30, id_bits=16)
        proto = AdaptiveQuerySplitting(max_slots=5)
        Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert proto.aborted
