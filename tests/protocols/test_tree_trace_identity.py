"""Trace identity: the O(responders) tree protocols replay the scan-based ones.

``_reference_tree`` freezes BT, ABS, QT and AQS as population-rescanning
automata.  The live protocols keep per-slot state instead (BT's group
stack, ABS's PSC-offset deque, QT/AQS candidate lists), and must draw the
same random numbers and schedule the same responders in the same order.
Each case builds two populations from one seed -- ``TagPopulation.reset()``
does not rewind the tags' random streams -- runs the live protocol on one
and the reference on the other, and compares full ``SlotRecord`` traces,
identified and lost IDs, stats, final ``tag.counter`` values and AQS's
``candidate_queue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _reference_tree as ref
from repro.bits.bitvec import BitVector
from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.detector import SlotType
from repro.core.timing import TimingModel
from repro.experiments.parallel import make_detector
from repro.protocols import (
    AdaptiveBinarySplitting,
    AdaptiveQuerySplitting,
    BinaryTree,
    QueryTree,
)
from repro.security.blocker import BlockerTag, MaliciousTag
from repro.sim.engine import MobileInventoryEngine
from repro.sim import monitoring
from repro.sim.monitoring import ContinuousMonitor
from repro.sim.reader import Reader, record_effective
from repro.tags.mobility import poisson_arrivals
from repro.tags.population import TagPopulation

PROTOCOLS = {
    "bt": (BinaryTree, ref.BinaryTree),
    "qt": (QueryTree, ref.QueryTree),
    "abs": (AdaptiveBinarySplitting, ref.AdaptiveBinarySplitting),
    "aqs": (AdaptiveQuerySplitting, ref.AdaptiveQuerySplitting),
}
PREFIX_PROTOCOLS = ("qt", "aqs")
READABLE = ("abs", "aqs")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

protocols = st.sampled_from(sorted(PROTOCOLS))
seeds = st.integers(0, 2**32 - 1)


def _population(n: int, seed: int, id_bits: int = 64) -> TagPopulation:
    return TagPopulation(n, id_bits=id_bits, rng=make_rng(seed))


def _reader(scheme, policy="paper", id_bits=64, channel=None, max_slots=None):
    timing = TimingModel(id_bits=id_bits, guard_id_phase=policy == "crc_guard")
    kwargs = {} if max_slots is None else {"max_slots": max_slots}
    return Reader(
        make_detector(scheme, id_bits=id_bits), timing, channel=channel,
        policy=policy, **kwargs,
    )


def _outcome(result, tags, protocol) -> tuple:
    return (
        result.trace,
        result.identified_ids,
        result.lost_ids,
        repr(result.stats),  # repr: an empty run's delay stats hold NaNs
        [t.counter for t in tags],
        [(t.identified, t.identified_at, t.lost) for t in tags],
        getattr(protocol, "candidate_queue", None),
    )


@dataclass
class Side:
    """One implementation with its own, identically seeded, world."""

    protocol: object
    tags: list


def _sides(name, n, seed, id_bits=64, adversary=None, **kw):
    out = []
    for cls in PROTOCOLS[name]:
        tags = list(_population(n, seed, id_bits).tags)
        if adversary is not None:
            extra = adversary(
                tag_id=0, id_bits=id_bits, rng=make_rng(seed + 1),
                **({"privacy_prefix": BitVector(1, 1)}
                   if adversary is BlockerTag else {}),
            )
            tags.insert(len(tags) // 2, extra)
        out.append(Side(cls(**kw), tags))
    return out


class TestStaticInventories:
    @SETTINGS
    @given(
        name=protocols,
        scheme=st.sampled_from(["qcd-4", "qcd-8", "crc"]),
        policy=st.sampled_from(["paper", "lost", "crc_guard"]),
        n=st.integers(0, 300),
        id_bits=st.sampled_from([12, 64]),
        seed=seeds,
    )
    def test_reader_traces_identical(self, name, scheme, policy, n, id_bits, seed):
        outcomes = []
        for side in _sides(name, n, seed, id_bits):
            reader = _reader(scheme, policy, id_bits)
            result = reader.run_inventory(side.tags, side.protocol)
            outcomes.append(_outcome(result, side.tags, side.protocol))
        assert outcomes[0] == outcomes[1]

    @SETTINGS
    @given(
        name=protocols,
        scheme=st.sampled_from(["qcd-4", "crc"]),
        policy=st.sampled_from(["paper", "lost"]),
        n=st.integers(0, 120),
        capture=st.sampled_from([0.3, 0.9]),
        seed=seeds,
    )
    def test_capture_channel(self, name, scheme, policy, n, capture, seed):
        """Captures identify one responder out of a collision, so the
        order in which responders are listed must match as well."""
        outcomes = []
        for side in _sides(name, n, seed):
            channel = Channel(capture_probability=capture, rng=make_rng(seed + 1))
            result = _reader(scheme, policy, channel=channel).run_inventory(
                side.tags, side.protocol
            )
            outcomes.append(_outcome(result, side.tags, side.protocol))
        assert outcomes[0] == outcomes[1]

    @SETTINGS
    @given(
        name=st.sampled_from(PREFIX_PROTOCOLS),
        adversary=st.sampled_from([BlockerTag, MaliciousTag]),
        n=st.integers(0, 60),
        id_bits=st.sampled_from([6, 12]),
        seed=seeds,
    )
    def test_adversarial_tags(self, name, adversary, n, id_bits, seed):
        """Blocker and malicious tags answer prefixes by their own rule;
        the candidate lists must hand them every probe they answer."""
        outcomes = []
        for side in _sides(name, n, seed, id_bits, adversary, max_slots=400):
            result = _reader("qcd-8", id_bits=id_bits).run_inventory(
                side.tags, side.protocol
            )
            outcomes.append(_outcome(result, side.tags, side.protocol))
            outcomes[-1] += (side.protocol.aborted,)
        assert outcomes[0] == outcomes[1]

    @SETTINGS
    @given(
        name=protocols,
        n=st.integers(1, 80),
        ber=st.sampled_from([0.2, 0.45]),
        seed=seeds,
    )
    def test_noisy_channel(self, name, n, ber, seed):
        """Bit errors make QCD read some true singles as idle, leaving an
        unidentified tag behind the front (a negative BT counter that
        later collisions raise again).  Such runs need not terminate, so
        the slot loop is driven by hand for a bounded number of slots."""
        traces = []
        for side in _sides(name, n, seed):
            channel = Channel(bit_error_rate=ber, rng=make_rng(seed + 1))
            reader = _reader("qcd-2", channel=channel)
            protocol, trace, time = side.protocol, [], 0.0
            protocol.start(side.tags)
            while not protocol.finished and len(trace) < 1500:
                responders = protocol.responders()
                time, record = reader._run_slot(
                    len(trace), time, protocol, responders, [], []
                )
                trace.append(record)
                protocol.feedback(record_effective(record, "paper"), responders)
            traces.append(
                (trace, protocol.finished,
                 [(t.identified, t.identified_at) for t in side.tags])
            )
        assert traces[0] == traces[1]


class TestReadableRounds:
    @SETTINGS
    @given(
        name=st.sampled_from(READABLE),
        scheme=st.sampled_from(["qcd-4", "qcd-8", "crc"]),
        n=st.integers(0, 150),
        churn=st.integers(0, 6),
        seed=seeds,
    )
    def test_monitoring_rounds_identical(self, name, scheme, n, churn, seed):
        """``run_inventory_continue`` rounds with churn between them, as
        :class:`ContinuousMonitor` drives ABS/AQS."""
        outcomes = []
        for side in _sides(name, n, seed):
            results = []
            reader = _reader(scheme)
            run = reader._run

            def recording_run(*args, **kwargs):
                results.append(run(*args, **kwargs))
                return results[-1]

            reader._run = recording_run
            monitor = ContinuousMonitor(reader, side.protocol, make_rng(seed + 1))
            # The monitor picks readable rounds by isinstance; let it
            # treat the frozen classes as the adaptive protocols they are.
            with mock.patch.object(
                monitoring, "AdaptiveBinarySplitting",
                (AdaptiveBinarySplitting, ref.AdaptiveBinarySplitting),
            ), mock.patch.object(
                monitoring, "AdaptiveQuerySplitting",
                (AdaptiveQuerySplitting, ref.AdaptiveQuerySplitting),
            ):
                summary = monitor.run(side.tags, rounds=3, churn=churn)
            outcomes.append(
                (
                    summary.rounds,
                    [(r.trace, r.identified_ids, repr(r.stats)) for r in results],
                    [t.counter for t in side.tags],
                    getattr(side.protocol, "candidate_queue", None),
                )
            )
        assert outcomes[0] == outcomes[1]


class TestMobility:
    @SETTINGS
    @given(
        name=protocols,
        scheme=st.sampled_from(["qcd-4", "crc"]),
        initial=st.integers(0, 40),
        arrivals=st.integers(0, 60),
        rate=st.sampled_from([0.005, 0.05]),
        dwell=st.sampled_from([300.0, 3000.0]),
        seed=seeds,
    )
    def test_admit_withdraw_mid_round(
        self, name, scheme, initial, arrivals, rate, dwell, seed
    ):
        """Arrivals are admitted and departures withdrawn between slots,
        mid-round; withdrawn tags keep the counter they left with."""
        outcomes = []
        for side in _sides(name, initial + arrivals, seed):
            schedule = poisson_arrivals(
                side.tags[initial:], rate, dwell, make_rng(seed + 1)
            )
            engine = MobileInventoryEngine(_reader(scheme), max_slots=50_000)
            result = engine.run(side.protocol, schedule, side.tags[:initial])
            outcomes.append(
                (
                    result.trace,
                    result.identified_ids,
                    result.escaped_ids,
                    result.end_time,
                    repr(result.sojourn_delays),
                    [t.counter for t in side.tags],
                )
            )
        assert outcomes[0] == outcomes[1]


#: Protocol-level verdicts for the arbitrary-feedback walk.
VERDICTS = ("idle", "single", "collided", "lost", "missed", "admit", "withdraw")


class TestArbitraryFeedback:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @settings(SETTINGS, max_examples=150)
    @given(
        n=st.integers(0, 40),
        steps=st.lists(
            st.tuples(st.sampled_from(VERDICTS), st.integers(0, 10**6)),
            max_size=250,
        ),
        seed=seeds,
    )
    def test_state_machines_agree(self, name, n, steps, seed):
        """Drive both automata with any verdict sequence, including ones
        no detector would produce (idle with responders, a missed single,
        admissions and withdrawals at any slot), and compare the responder
        list before every slot."""
        sides = _sides(name, n, seed)
        spares = [list(_population(8, seed + 7).tags) for _ in sides]
        for side in sides:
            side.protocol.start(side.tags)
        for kind, pick in steps:
            if sides[0].protocol.finished:
                assert sides[1].protocol.finished
                break
            assert not sides[1].protocol.finished
            if kind == "admit":
                for side, pool in zip(sides, spares):
                    if pool:
                        side.protocol.admit(pool.pop())
                continue
            if kind == "withdraw":
                for side in sides:
                    present = side.protocol.tags
                    if present:
                        side.protocol.withdraw(present[pick % len(present)])
                continue
            responders = [side.protocol.responders() for side in sides]
            assert [t.tag_id for t in responders[0]] == [
                t.tag_id for t in responders[1]
            ]
            effective = {
                "idle": SlotType.IDLE,
                "collided": SlotType.COLLIDED,
            }.get(kind, SlotType.SINGLE)
            for side, resp in zip(sides, responders):
                if kind == "single" and len(resp) == 1:
                    resp[0].identified = True
                elif kind == "lost":
                    for tag in resp:
                        tag.identified = True
                side.protocol.feedback(effective, resp)
        finished = [side.protocol.finished for side in sides]
        assert finished[0] == finished[1]
        if finished[0]:
            # Mid-round the live protocols keep counters implicit; once a
            # round is over every tag carries its final counter.
            assert [t.counter for t in sides[0].tags] == [
                t.counter for t in sides[1].tags
            ]
        assert getattr(sides[0].protocol, "candidate_queue", None) == getattr(
            sides[1].protocol, "candidate_queue", None
        )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_large_population_identical(name):
    """One deterministic larger case per protocol (QCD-8, 1000 tags)."""
    outcomes = []
    for side in _sides(name, 1000, 2010):
        result = _reader("qcd-8").run_inventory(side.tags, side.protocol)
        outcomes.append(_outcome(result, side.tags, side.protocol))
    assert outcomes[0] == outcomes[1]
