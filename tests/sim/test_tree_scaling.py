"""The exact Reader runs the tree protocols in near-linear time.

BT, QT, ABS and AQS keep per-slot state that a slot touches only through
its responders (group stacks, candidate lists), so 4x the tags costs
about 4x the time.  Each tag still takes part in one slot per level of
its path down the tree, so the work is n log n: the expected ratio from
1024 to 4096 tags is 4 * 12 / 10 = 4.8.  Measured best-of-3 on a shared
2-vCPU VM, three times per protocol: 2.8-6.3, most runs 4-5 (the host's
speed drifts between runs).  A per-slot population rescan makes the
ratio 16 (quadratic; 12-20 measured before the rewrite), so the bound of
8 separates the two with room for a noisy host.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.protocols import (
    AdaptiveBinarySplitting,
    AdaptiveQuerySplitting,
    BinaryTree,
    QueryTree,
)
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

SMALL, LARGE = 1024, 4096
BOUND = 8.0


def _timed_run(protocol_cls, pop: TagPopulation) -> float:
    pop.reset()
    reader = Reader(QCDDetector(8))
    gc.collect()  # no earlier run's garbage collected inside the window
    t0 = time.perf_counter()
    result = reader.run_inventory(pop.tags, protocol_cls())
    elapsed = time.perf_counter() - t0
    assert len(result.identified_ids) == len(pop)
    return elapsed


@pytest.mark.parametrize(
    "protocol_cls",
    [BinaryTree, QueryTree, AdaptiveBinarySplitting, AdaptiveQuerySplitting],
    ids=lambda cls: cls.__name__,
)
def test_four_times_the_tags_costs_under_eight_times_the_time(protocol_cls):
    small_pop = TagPopulation(SMALL, id_bits=64, rng=make_rng(SMALL))
    large_pop = TagPopulation(LARGE, id_bits=64, rng=make_rng(LARGE))
    small = large = float("inf")
    for _ in range(3):  # best of 3, the sizes interleaved against host drift
        small = min(small, _timed_run(protocol_cls, small_pop))
        large = min(large, _timed_run(protocol_cls, large_pop))
    ratio = large / small
    assert ratio < BOUND, f"t({LARGE})/t({SMALL}) = {ratio:.2f}"
