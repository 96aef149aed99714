"""The exact Reader's packed fast path vs the object path.

The packed path replaces BitVector payloads with integers (QCD's
``r ⊕ r̄`` fits a machine word; the paper's 96-bit CRC-CD payload is a
Python int) and the channel's Boolean sum with an integer OR -- but it
must be *observationally identical*: same RNG consumption, same slot
verdicts, same stats, same channel accounting.  These tests pin that
equivalence and the gating rules (invariant checking forces the object
path; tracing does not).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.protocols.bt import BinaryTree
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.verify import invariants


def run(detector, timing, protocol_factory, n, seed, packed):
    pop = TagPopulation(n, id_bits=timing.id_bits, rng=make_rng(seed))
    reader = Reader(detector, timing, packed=packed)
    res = reader.run_inventory(pop.tags, protocol_factory())
    return reader, res


def assert_identical(res_a, res_b):
    assert res_a.identified_ids == res_b.identified_ids
    assert res_a.lost_ids == res_b.lost_ids
    assert res_a.stats == res_b.stats
    assert len(res_a.trace) == len(res_b.trace)
    for ra, rb in zip(res_a.trace, res_b.trace):
        assert ra == rb


class TestEquivalence:
    @pytest.mark.parametrize("strength", [2, 8, 16])
    @pytest.mark.parametrize(
        "protocol_factory", [lambda: FramedSlottedAloha(16), BinaryTree]
    )
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_packed_matches_object_path(
        self, strength, protocol_factory, n, timing
    ):
        _, a = run(
            QCDDetector(strength), timing, protocol_factory, n, 31, True
        )
        _, b = run(
            QCDDetector(strength), timing, protocol_factory, n, 31, False
        )
        assert_identical(a, b)

    def test_detector_counters_match(self, timing):
        ra, _ = run(
            QCDDetector(8), timing, lambda: FramedSlottedAloha(16), 37, 32, True
        )
        rb, _ = run(
            QCDDetector(8), timing, lambda: FramedSlottedAloha(16), 37, 32, False
        )
        assert ra.detector.classify_calls == rb.detector.classify_calls
        assert (
            ra.detector.function_evaluations
            == rb.detector.function_evaluations
        )

    def test_channel_stats_match(self, timing):
        ra, _ = run(QCDDetector(8), timing, BinaryTree, 37, 33, True)
        rb, _ = run(QCDDetector(8), timing, BinaryTree, 37, 33, False)
        assert dataclasses.asdict(ra.channel.stats) == dataclasses.asdict(
            rb.channel.stats
        )


class TestGating:
    def test_auto_gate_uses_packed_when_supported(self, timing):
        assert Reader(QCDDetector(8), timing)._use_packed()

    def test_auto_gate_packs_64_bit_crc(self, timing):
        """The paper's 64-bit ID + CRC-32 (96 bits) packs as Python ints."""
        detector = CRCCDDetector(id_bits=64)
        assert detector.packed_bits == 96
        assert Reader(detector, timing)._use_packed()

    def test_auto_gate_falls_back_for_noisy_channel(self, timing, rng):
        reader = Reader(
            QCDDetector(8),
            timing,
            channel=Channel(bit_error_rate=0.1, rng=rng.child()),
        )
        assert not reader._use_packed()

    def test_tracing_keeps_packed_path(self, timing):
        """Enabled obs keeps the packed path, with identical verdicts."""
        obs.enable()
        try:
            assert Reader(QCDDetector(8), timing)._use_packed()
            _, traced = run(
                QCDDetector(8), timing, lambda: FramedSlottedAloha(16),
                37, 35, None,
            )
        finally:
            obs.disable()
        _, plain = run(
            QCDDetector(8), timing, lambda: FramedSlottedAloha(16),
            37, 35, False,
        )
        assert_identical(traced, plain)

    def test_invariants_force_object_path(self, timing):
        with invariants.checking():
            assert not Reader(QCDDetector(8), timing)._use_packed()
        invariants.reset()

    def test_packed_false_forces_object_path(self, timing):
        assert not Reader(QCDDetector(8), timing, packed=False)._use_packed()

    def test_packed_true_requires_support(self, timing, rng):
        with pytest.raises(ValueError, match="packed"):
            Reader(
                QCDDetector(8),
                timing,
                channel=Channel(bit_error_rate=0.1, rng=rng.child()),
                packed=True,
            )

    def test_packed_true_keeps_packed_path_under_tracing(self, timing):
        """Explicit ``packed=True`` stays packed with obs on, and the
        traced inventory matches the object path's verdicts."""
        reader = Reader(QCDDetector(8), timing, packed=True)
        obs.enable()
        try:
            assert reader._use_packed()
            _, traced = run(QCDDetector(8), timing, BinaryTree, 37, 36, True)
        finally:
            obs.disable()
        assert reader._use_packed()
        _, plain = run(QCDDetector(8), timing, BinaryTree, 37, 36, False)
        assert_identical(traced, plain)

    def test_verdicts_survive_gate_flip(self, timing):
        """Enabling invariants mid-experiment flips the gate but not the
        outcome: the object path replays the identical inventory."""
        _, a = run(
            QCDDetector(4), timing, lambda: FramedSlottedAloha(8), 21, 34, None
        )
        with invariants.checking():
            _, b = run(
                QCDDetector(4),
                timing,
                lambda: FramedSlottedAloha(8),
                21,
                34,
                None,
            )
        invariants.reset()
        assert_identical(a, b)


class TestWidePayloads:
    """Payloads wider than 64 bits (the paper's 64-bit ID + CRC-32) stay
    packed as Python ints."""

    def test_transmit_packed_ors_wide_ints(self):
        values = [(1 << 95) >> i | i for i in range(40)]
        expected = 0
        for v in values:
            expected |= v
        channel = Channel()
        assert channel.transmit_packed(values, 96) == expected
        assert channel.stats.bits_on_air == 96 * 40

    def test_transmit_packed_many_keeps_object_dtype(self):
        values = np.array(
            [1 << 95, 1 << 70, 3, 1 << 90], dtype=object
        )
        counts = np.array([2, 0, 1, 1, 0], dtype=np.intp)
        channel = Channel()
        out = channel.transmit_packed_many(values, counts, 96)
        assert out.dtype == object
        assert out.tolist() == [(1 << 95) | (1 << 70), 0, 3, 1 << 90, 0]
        assert channel.stats.slots == 5
        assert channel.stats.transmissions == 4

    def test_transmit_packed_many_keeps_uint64_dtype(self):
        values = np.array([5, 2, 8], dtype=np.uint64)
        counts = np.array([0, 2, 1], dtype=np.intp)
        out = Channel().transmit_packed_many(values, counts, 16)
        assert out.dtype == np.uint64
        assert out.tolist() == [0, 7, 8]

    @pytest.mark.parametrize(
        "protocol_factory", [lambda: FramedSlottedAloha(16), BinaryTree]
    )
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_crc64_matches_object_path(self, protocol_factory, n, timing):
        ra, a = run(
            CRCCDDetector(id_bits=64), timing, protocol_factory, n, 37, None
        )
        rb, b = run(
            CRCCDDetector(id_bits=64), timing, protocol_factory, n, 37, False
        )
        assert ra._use_packed()
        assert_identical(a, b)
        for counter in ("classify_calls", "crc_computations", "crc_ops_total"):
            assert getattr(ra.detector, counter) == getattr(
                rb.detector, counter
            )
        assert ra.channel.stats == rb.channel.stats
