"""Observed inventories: the frame-batched Reader vs the object path.

Enabled observability keeps the Reader on its packed / frame-batched
path, so that path must emit exactly what the per-slot object path
emits: the same registry snapshot (timing histograms aside), the same
``inventory -> frame -> slot`` span/event tree with equal attrs, and one
``frame`` span per started frame.  Sinks that discard records are not
handed any ``slot`` events at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.obs import instruments as inst
from repro.obs.profiling import PROFILE_METRIC
from repro.obs.tracing import NullSink, RingBufferSink
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.reader import Reader
from repro.sim.trace import SlotRecord
from repro.tags.population import TagPopulation

DETECTORS = {
    "qcd-8": lambda: QCDDetector(8),
    # The paper's layout: 64-bit IDs + CRC-32, a 96-bit packed payload.
    "crc": lambda: CRCCDDetector(id_bits=64),
    # Misses collisions often, so lost-tag and misdetection counters fire.
    "qcd-2": lambda: QCDDetector(2),
}

PROTOCOLS = {
    "fsa": lambda: FramedSlottedAloha(32),
    "dfsa": lambda: DynamicFSA(initial_frame_size=16),
}


class AlternatingDFSA(DynamicFSA):
    """Declines every other frame partition, so one inventory mixes
    per-slot and frame-batched frames."""

    def __init__(self) -> None:
        super().__init__(initial_frame_size=16)
        self._decline = False

    def frame_partition(self):
        partition = super().frame_partition()
        if partition is not None:
            self._decline = not self._decline
            if self._decline:
                return None
        return partition


def _observed_run(detector, protocol, policy, packed, n=120, sink=None):
    obs.reset()
    sink = sink if sink is not None else RingBufferSink(capacity=100_000)
    obs.enable(sink=sink)
    try:
        pop = TagPopulation(n, id_bits=64, rng=make_rng(4242))
        reader = Reader(detector, TimingModel(), policy=policy, packed=packed)
        result = reader.run_inventory(pop.tags, protocol)
    finally:
        obs.disable()
    snapshot = obs.STATE.registry.to_dict()
    snapshot.pop(PROFILE_METRIC, None)
    return result, reader, snapshot, sink


def _tree(records):
    """Trace records without host timing, span ids renumbered by rank
    (ids come from a process-wide counter, so two runs differ)."""
    ids = sorted(r["span_id"] for r in records if r["type"] == "span")
    rank = {span_id: i for i, span_id in enumerate(ids)}
    tree = []
    for r in records:
        if r["type"] == "span":
            tree.append(
                ("span", r["name"], rank[r["span_id"]],
                 rank.get(r["parent_id"]), r["attrs"])
            )
        else:
            tree.append(
                ("event", r["name"], rank.get(r["span_id"]), r["attrs"])
            )
    return tree


def _counters(detector):
    """The detector's instrumentation counters (classify calls, CRC and
    collision-function operation counts)."""
    return {k: v for k, v in vars(detector).items() if type(v) is int}


def _assert_same_observation(reference, other):
    res0, reader0, snap0, sink0 = reference
    res1, reader1, snap1, sink1 = other
    assert res1.trace == res0.trace
    assert res1.identified_ids == res0.identified_ids
    assert res1.lost_ids == res0.lost_ids
    assert reader1.channel.stats == reader0.channel.stats
    assert _counters(reader1.detector) == _counters(reader0.detector)
    assert snap1 == snap0
    assert _tree(sink1.records) == _tree(sink0.records)

    (inventory,) = sink1.spans("inventory")
    frames = sink1.spans("frame")
    assert len(frames) == res1.stats.frames
    assert all(f["parent_id"] == inventory["span_id"] for f in frames)
    slots = sink1.events("slot")
    assert len(slots) == len(res1.trace)
    frame_of = {f["span_id"]: f["attrs"]["frame"] for f in frames}
    assert [frame_of[e["span_id"]] for e in slots] == [
        r.frame for r in res1.trace
    ]


@pytest.mark.parametrize("policy", ["paper", "lost"])
@pytest.mark.parametrize("scheme", ["qcd-8", "crc"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_batched_observation_matches_object_path(protocol, scheme, policy):
    reference = _observed_run(
        DETECTORS[scheme](), PROTOCOLS[protocol](), policy, packed=False
    )
    batched = _observed_run(
        DETECTORS[scheme](), PROTOCOLS[protocol](), policy, packed=None
    )
    assert batched[1]._use_packed()
    _assert_same_observation(reference, batched)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_lost_and_misdetection_counters_match(protocol):
    reference = _observed_run(
        DETECTORS["qcd-2"](), PROTOCOLS[protocol](), "lost", packed=False
    )
    batched = _observed_run(
        DETECTORS["qcd-2"](), PROTOCOLS[protocol](), "lost", packed=None
    )
    assert batched[0].lost_ids  # the seed loses tags
    assert "repro_misdetections_total" in batched[2]
    _assert_same_observation(reference, batched)


@pytest.mark.parametrize("scheme", ["qcd-8", "crc"])
def test_mixed_per_slot_and_batched_frames(scheme):
    reference = _observed_run(
        DETECTORS[scheme](), AlternatingDFSA(), "paper", packed=False
    )
    mixed = _observed_run(
        DETECTORS[scheme](), AlternatingDFSA(), "paper", packed=None
    )
    assert mixed[0].stats.frames >= 3  # both kinds of frame ran
    _assert_same_observation(reference, mixed)


class CountingNullSink(NullSink):
    def __init__(self) -> None:
        self.emitted: list[dict] = []

    def emit(self, record):
        self.emitted.append(record)


@pytest.mark.parametrize(
    "protocol", [lambda: FramedSlottedAloha(32), AlternatingDFSA]
)
def test_discarding_sink_gets_spans_but_no_slot_events(protocol):
    result, _, snapshot, sink = _observed_run(
        QCDDetector(8), protocol(), "paper", packed=None,
        sink=CountingNullSink(),
    )
    names = [(r["type"], r["name"]) for r in sink.emitted]
    assert ("event", "slot") not in names
    assert names.count(("span", "frame")) == result.stats.frames
    assert names.count(("span", "inventory")) == 1
    # The counters stay exact without the events.
    totals = obs.STATE.registry.counter_totals("repro_slots_total")
    assert totals == len(result.trace)


@pytest.mark.parametrize("seed", range(6))
def test_record_frame_matches_record_slot(seed):
    """Bulk frame counters == per-slot ``record_slot`` calls, snapshot
    order included, over every (true, detected) pair -- false collisions
    too, which no shipped packed detector produces -- across frames that
    keep introducing new label sets."""
    rng = np.random.default_rng(seed)
    frames = [
        (rng.integers(0, 3, size), rng.integers(0, 3, size))
        for size in rng.integers(1, 40, 4)
    ]

    obs.reset()
    for true_types, detected_types in frames:
        for i, (true, detected) in enumerate(zip(true_types, detected_types)):
            single = true == 1 and detected == 1
            lost = 2 if true == 2 and detected == 1 and i % 2 else 0
            inst.record_slot(
                SlotRecord(
                    index=i, frame=1, n_responders=int(true),
                    true_type=SlotType(int(true)),
                    detected_type=SlotType(int(detected)),
                    duration=1.0, end_time=1.0,
                    identified_tag=i if single else None,
                    lost_tags=lost, captured=False,
                )
            )
    per_slot = obs.STATE.registry.to_dict()

    obs.reset()
    for true_types, detected_types in frames:
        pairs = list(zip(true_types.tolist(), detected_types.tolist()))
        inst.record_frame(
            true_types,
            detected_types,
            sum(pair == (1, 1) for pair in pairs),
            sum(
                2
                for i, pair in enumerate(pairs)
                if pair == (2, 1) and i % 2
            ),
        )
    assert obs.STATE.registry.to_dict() == per_slot
