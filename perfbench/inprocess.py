"""The in-process workloads: ``mc-grid``, ``reader-framed``, ``reader-tree``.

Each workload does a fixed *pass* of work, made from the seed before the
timed window, and repeats whole passes until ``seconds`` have elapsed.
The gated latency is the wall time of the best pass, built per
operation (see :func:`pass_percentile`), and throughput is one pass's
work over that time; median and p90 pass times are printed alongside.
A pass is never cut part-way (that would skew the mix).  ``run.py`` drives this
module from a fresh worker process (``worker.py``) per run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import asdict

from common import Checks, percentile, pin
from spans import Recorder, wrap

#: Monte-Carlo rounds per grid point: the full I-IV grid (50 000-tag case
#: IV included) then takes about a second, so a run holds many passes.
MC_ROUNDS = 5

#: Population sizes n and 4n per Reader family.  The tree sizes are
#: small because the per-slot tree path is quadratic today; small
#: enough that a run holds a dozen passes, so each operation's fastest
#: time is taken over that many samples.
FRAMED_SIZES = (500, 2000)
TREE_SIZES = (64, 256)
FRAMED_PROTOCOLS = ("fsa", "dfsa")
TREE_PROTOCOLS = ("bt", "qt", "abs", "aqs")
READER_SCHEMES = ("qcd-8", "crc")


def _named(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_percentile(times_by_op: dict, q: float) -> float:
    """Pass time built from each operation's q-th percentile over passes.

    Every pass runs the same operations, so summing per-operation
    percentiles keeps a slow moment of the host from landing whole on
    one sample, as it would on a percentile of a few pass totals.
    ``q = 0`` gives the best pass: each operation at its fastest, the
    estimate least moved by other load on a shared host (on a 2-vCPU VM:
    run-to-run spread 0.08 against 0.20 for the median on reader-framed).
    """
    return sum(percentile(times, q) for times in times_by_op.values())


# ----------------------------------------------------------------------
# mc-grid


class McGrid:
    """The paper's Tables VII/VIII grid on one in-process suite.

    Every pass builds a fresh ``ExperimentSuite(workers=1)`` with the
    same seed and no disk cache, so each pass does the full work and
    every pass must produce the same result digest.
    """

    def setup(self, seed: int, rec: Recorder) -> None:
        from repro.experiments import CASES, ExperimentSuite
        import repro.sim.batch as batch

        self.seed = seed
        self.Suite = ExperimentSuite
        self.points = [
            (c, p, s)
            for c in CASES
            for p in ("fsa", "bt")
            for s in ("crc", "qcd-4", "qcd-8", "qcd-16")
        ]
        self.rec = rec
        wrap(
            rec,
            ExperimentSuite,
            "run",
            "experiments.runner",
            trace_id=lambda self, case, protocol, scheme: (
                f"{getattr(case, 'name', case)}/{protocol}/{scheme}"
            ),
        )
        wrap(rec, batch, "fsa_fast_batch", "sim.batch.fsa")
        wrap(rec, batch, "bt_fast_batch", "sim.batch.bt")

    def one_pass(self, index: int) -> dict:
        suite = self.Suite(rounds=MC_ROUNDS, seed=self.seed, workers=1)
        lat_ms, aggs = [], {}
        t_pass = time.perf_counter()
        for k, point in enumerate(self.points):
            pin(k + index)
            t0 = time.perf_counter()
            aggs[point] = suite.run(*point)
            lat_ms.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - t_pass
        suite.close()
        slots = sum(round(a.total_slots * a.rounds) for a in aggs.values())
        digest = hashlib.sha256(
            json.dumps(
                [[list(k), asdict(aggs[k])] for k in self.points],
                default=str,
            ).encode()
        ).hexdigest()
        return {"wall": wall, "lat_ms": lat_ms, "slots": slots,
                "digest": digest, "aggs": aggs}

    def check_paper(self, aggs: dict, checks: Checks) -> None:
        """Slot distributions against Tables VII/VIII.

        Slot counts do not depend on the detector, so each case pools the
        four schemes (4 x MC_ROUNDS rounds).  Tolerances follow the
        repo's table benchmarks, widened for the smaller round count:
        FSA idle/collided within 15% (case I's columns read swapped, as
        DESIGN.md documents), frames within 1.5; BT total slots within
        5%, collided within 8%, idle within 25%; every point identifies
        exactly n tags.  Each band is at least 15 slots wide: case I's
        50-tag means move by several slots between seeds at 20 pooled
        rounds, and the paper's own case I values sit that far from the
        process's expectation (BT: 137 printed vs about 144 exact).
        """
        from repro.experiments.config import CASES, PAPER_TABLE7, PAPER_TABLE8

        def pooled(case, protocol, field):
            return sum(
                getattr(aggs[(case, protocol, s)], field)
                for s in ("crc", "qcd-4", "qcd-8", "qcd-16")
            ) / 4

        def near(got, want, rel):
            return abs(got - want) <= max(rel * want, 15)

        for key, agg in aggs.items():
            checks.check(
                agg.single == CASES[key[0]].n_tags,
                f"mc-grid {key}: single={agg.single} != n",
            )
        for case in CASES:
            paper = PAPER_TABLE7[case]
            idle, coll = pooled(case, "fsa", "idle"), pooled(case, "fsa", "collided")
            if case == "I":
                idle, coll = coll, idle
            checks.check(
                near(idle, paper["idle"], 0.15)
                and near(coll, paper["collided"], 0.15)
                and abs(pooled(case, "fsa", "frames") - paper["frames"]) <= 1.5,
                f"mc-grid fsa case {case}: idle={idle:.1f} collided={coll:.1f} "
                f"vs Table VII {paper}",
            )
            paper = PAPER_TABLE8[case]
            checks.check(
                near(pooled(case, "bt", "total_slots"), paper["frames"], 0.05)
                and near(pooled(case, "bt", "collided"), paper["collided"], 0.08)
                and near(pooled(case, "bt", "idle"), paper["idle"], 0.25),
                f"mc-grid bt case {case}: slots={pooled(case, 'bt', 'total_slots'):.1f} "
                f"idle={pooled(case, 'bt', 'idle'):.1f} "
                f"collided={pooled(case, 'bt', 'collided'):.1f} vs Table VIII {paper}",
            )

    def run(self, seconds: float, trace: bool) -> dict:
        checks = Checks()
        passes, traced = [], []
        t_end = time.perf_counter() + seconds
        t_half = time.perf_counter() + seconds / 2
        while time.perf_counter() < t_end or len(passes) + len(traced) < 2:
            if trace and time.perf_counter() >= t_half and passes:
                self.rec.enabled = True
            (traced if self.rec.enabled else passes).append(
                self.one_pass(len(passes) + len(traced)))
        self.rec.enabled = False
        done = passes + traced
        digests = {p["digest"] for p in done}
        checks.check(
            len(digests) == 1,
            f"mc-grid: {len(digests)} distinct result digests for one seed",
        )
        self.check_paper(done[0]["aggs"], checks)
        by_point = {k: [p["lat_ms"][k] for p in passes] for k in range(len(self.points))}
        best = pass_percentile(by_point, 0)
        rate = passes[0]["slots"] / (best / 1e3)  # every pass simulates the same slots
        out = {
            "attempted": len(done) * len(self.points),
            "failed": 0,
            "checks": [checks.made, checks.failures],
            "values": {
                "throughput_per_s": rate,
                "latency_ms": best,
            },
            "named": {
                "mc_slots_per_s": _named(rate, "slots/s"),
                "mc_grid_pass_best_ms": _named(best, "ms"),
                "mc_grid_pass_p50_ms": _named(pass_percentile(by_point, 50), "ms"),
                "mc_grid_pass_p90_ms": _named(pass_percentile(by_point, 90), "ms"),
            },
            "report": {"passes": len(done), "points_per_pass": len(self.points),
                       "rounds": MC_ROUNDS, "digest": done[0]["digest"],
                       "latency_samples": len(passes) * len(self.points)},
        }
        if trace:
            out["values"].update(self.layer_metrics(passes, traced))
        return out

    def layer_metrics(self, passes: list, traced: list) -> dict:
        rec = self.rec
        fsa = rec.closed("sim.batch.fsa")
        bt = rec.closed("sim.batch.bt")
        kernel = rec.total("sim.batch.fsa") + rec.total("sim.batch.bt")
        wall = sum(p["wall"] for p in traced)
        slots = sum(p["slots"] for p in traced)
        base = sum(p["wall"] for p in passes) / len(passes)
        runner_self = rec.self_times()["experiments.runner"]
        return {
            "sim.batch.us_per_slot": kernel / slots * 1e6,
            "sim.batch.fsa_ms_per_round": rec.total("sim.batch.fsa")
            / (len(fsa) * MC_ROUNDS) * 1e3,
            "sim.batch.bt_ms_per_round": rec.total("sim.batch.bt")
            / (len(bt) * MC_ROUNDS) * 1e3,
            "sim.batch.slots": traced[0]["slots"],
            "sim.batch.self_share": kernel / wall,
            # Per pass: ExperimentSuite.run minus the kernel spans inside it.
            "experiments.runner.self_ms": runner_self / len(traced) * 1e3,
            "trace.overhead_share": (wall / len(traced)) / base - 1.0,
        }


# ----------------------------------------------------------------------
# reader-framed / reader-tree


class ReaderExact:
    """Exact bit-level ``Reader`` inventories over one protocol family.

    A pass is every protocol x {QCD-8, CRC-CD} x {n, 4n}, in an order
    shuffled by the seed; populations are built from the seed before
    the timed window and reset between passes.
    """

    def __init__(self, family: str) -> None:
        self.family = family
        self.name = f"reader-{family}"
        self.protocols = FRAMED_PROTOCOLS if family == "framed" else TREE_PROTOCOLS
        self.sizes = FRAMED_SIZES if family == "framed" else TREE_SIZES

    def setup(self, seed: int, rec: Recorder) -> None:
        from repro.bits.rng import make_rng
        from repro.core.timing import TimingModel
        from repro.experiments.runner import make_detector
        from repro.sim.reader import Reader
        from repro.tags.population import TagPopulation

        self.rec = rec
        counter = iter(range(1 << 30))
        wrap(rec, Reader, "run_inventory", "sim.reader",
             trace_id=lambda *a, **k: f"inventory-{next(counter)}")
        wrap(rec, TagPopulation, "__init__", "tags.population",
             trace_id=lambda self, size, **k: f"population-{size}")
        self.Reader, self.TimingModel = Reader, TimingModel
        self.make_detector = make_detector
        rng = random.Random(seed)
        self.specs = []
        for protocol in self.protocols:
            for scheme in READER_SCHEMES:
                for n in self.sizes:
                    pop = TagPopulation(
                        n, id_bits=64, rng=make_rng(rng.getrandbits(63))
                    )
                    self.specs.append((protocol, scheme, n, pop))
        rng.shuffle(self.specs)

    def _protocol(self, name: str, n: int):
        from repro.protocols import (
            AdaptiveBinarySplitting,
            AdaptiveQuerySplitting,
            BinaryTree,
            DynamicFSA,
            FramedSlottedAloha,
            QueryTree,
        )

        frame = max(1, round(0.6 * n))  # the paper's frame policy, F = 0.6 n
        return {
            "fsa": lambda: FramedSlottedAloha(frame),
            "dfsa": lambda: DynamicFSA(initial_frame_size=frame),
            "bt": BinaryTree,
            "qt": QueryTree,
            "abs": AdaptiveBinarySplitting,
            "aqs": AdaptiveQuerySplitting,
        }[name]()

    def one_pass(self, checks: Checks, index: int) -> list[dict]:
        rows = []
        for k, (protocol, scheme, n, pop) in enumerate(self.specs):
            pin(k + index)
            pop.reset()
            proto = self._protocol(protocol, n)
            reader = self.Reader(self.make_detector(scheme), timing=self.TimingModel())
            t0 = time.perf_counter()
            res = reader.run_inventory(list(pop), proto)
            dt = time.perf_counter() - t0
            checks.check(
                len(res.identified_ids) == n
                and set(res.identified_ids) == set(pop.ids)
                and not res.lost_ids,
                f"{self.name} {protocol}/{scheme}/n={n}: identified "
                f"{len(set(res.identified_ids))}/{n}, lost {len(res.lost_ids)}",
            )
            rows.append({"protocol": protocol, "scheme": scheme, "n": n,
                         "s": dt, "tags": len(res.identified_ids),
                         "slots": len(res.trace)})
        return rows

    def run(self, seconds: float, trace: bool) -> dict:
        checks = Checks()
        passes, traced = [], []
        t_end = time.perf_counter() + seconds
        t_half = time.perf_counter() + seconds / 2
        while time.perf_counter() < t_end or len(passes) + len(traced) < 2:
            if trace and time.perf_counter() >= t_half and passes:
                self.rec.enabled = True
            (traced if self.rec.enabled else passes).append(
                self.one_pass(checks, len(passes) + len(traced)))
        self.rec.enabled = False
        by_op = {}
        for p in passes:
            for r in p:
                by_op.setdefault((r["protocol"], r["scheme"], r["n"]), []).append(r["s"] * 1e3)
        best = pass_percentile(by_op, 0)
        tags = sum(self.sizes) * len(self.protocols) * len(READER_SCHEMES)
        rate = tags / (best / 1e3)
        out = {
            "attempted": sum(len(p) for p in passes + traced),
            "failed": 0,  # a wrong inventory is a failed check
            "checks": [checks.made, checks.failures],
            "values": {
                "throughput_per_s": rate,
                "latency_ms": best,
            },
            "named": {
                f"reader_{self.family}_tags_per_s": _named(rate, "tags/s"),
                f"reader_{self.family}_pass_best_ms": _named(best, "ms"),
                f"reader_{self.family}_pass_p50_ms": _named(pass_percentile(by_op, 50), "ms"),
                f"reader_{self.family}_pass_p90_ms": _named(pass_percentile(by_op, 90), "ms"),
            },
            "report": {"passes": len(passes) + len(traced),
                       "inventories_per_pass": len(self.specs),
                       "sizes": list(self.sizes),
                       "latency_samples": sum(len(p) for p in passes)},
        }
        if trace:
            out["values"].update(self.layer_metrics(passes, traced))
        return out

    def layer_metrics(self, passes: list, traced: list) -> dict:
        rows = [r for p in traced for r in p]
        wall = sum(r["s"] for r in rows)
        base = sum(r["s"] for p in passes for r in p) / len(passes)
        built_tags = sum(n for _, _, n, _ in self.specs)
        out = {
            f"sim.reader.{self.family}_us_per_slot": wall
            / sum(r["slots"] for r in rows) * 1e6,
            "sim.reader.crc_time_share": sum(r["s"] for r in rows if r["scheme"] == "crc")
            / wall,
            "sim.reader.slots": sum(r["slots"] for r in traced[0]),
            "tags.population_ms_per_ktag": self.rec.total("tags.population")
            / built_tags * 1e6,
            "trace.overhead_share": (wall / len(traced)) / base - 1.0,
        }
        if self.family == "tree":
            scaling = {}
            for protocol in TREE_PROTOCOLS:
                small, large = (
                    sum(r["s"] for r in rows if r["protocol"] == protocol and r["n"] == n)
                    for n in self.sizes
                )
                scaling[protocol] = large / small
                out[f"sim.reader.tree_scaling.{protocol}"] = scaling[protocol]
            out["sim.reader.tree_scaling"] = math.prod(scaling.values()) ** (
                1 / len(scaling)
            )
        return out


WORKLOADS = {
    "mc-grid": McGrid,
    "reader-framed": lambda: ReaderExact("framed"),
    "reader-tree": lambda: ReaderExact("tree"),
}
