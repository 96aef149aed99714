"""``repro-bench`` -- kernel throughput measurement and regression gate.

Measures wall-clock per Monte-Carlo round for the streamed kernels
(:mod:`repro.sim.fast`), the round-batched kernels
(:mod:`repro.sim.batch`), the exact Reader's three tiers -- object,
per-slot packed, and frame-batched -- the frame-batched path on the
paper's 64-bit CRC-CD and with :mod:`repro.obs` enabled, and the per-slot
tree path (BT and QT at n and 4n tags), then writes a
machine-readable ``BENCH_kernels.json`` (and, with ``--reader-out``, a
reader-only document matching ``benchmarks/BENCH_reader.json``).

Because absolute timings are machine-bound, the regression gate compares
*within-run ratios* (batched over streamed, packed/frame-batched over
object, the obs-on over obs-off cost ratio, and the tree row's
``tree_scaling`` = t(4n)/t(n)), which transfer across machines::

    repro-bench --quick --out BENCH_kernels.json \\
                --baseline benchmarks/BENCH_kernels.json \\
                --reader-out BENCH_reader.json \\
                --reader-baseline benchmarks/BENCH_reader.json

fails (exit 1) when a batched kernel drops below streamed throughput or
when any speedup ratio regresses (or a cost ratio -- tree scaling, the
obs toll -- grows) more than ``--tolerance`` (default 25%) against the
committed baseline.  When a ``--frozen-dir`` containing the vendored
pre-batching kernels (``benchmarks/_reference_kernels.py``) is present,
the frozen engines are measured too, so the report carries the full
ablation story; the gate never depends on them.

The committed baseline is regenerated after an *intentional* perf change
with the same command CI runs (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.obs.registry import MetricsRegistry
from repro.obs.state import STATE as _OBS
from repro.protocols.bt import BinaryTree
from repro.protocols.estimators import SchouteEstimator
from repro.protocols.fsa import FramedSlottedAloha
from repro.protocols.qt import QueryTree
from repro.sim.batch import bt_fast_batch, dfsa_fast_batch, fsa_fast_batch
from repro.sim.fast import bt_fast, dfsa_fast, fsa_fast
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.bits.rng import make_rng

__all__ = [
    "main",
    "build_parser",
    "run_bench",
    "check_against_baseline",
    "check_reader_against_baseline",
]

#: Case IV of the paper's evaluation (50 000 tags), the ISSUE's reference
#: point; ``--quick`` scales it down with the same n/F ratio for CI.
FULL = {"n_tags": 50_000, "frame_size": 30_000, "rounds": 10, "repeats": 3,
        "reader_tags": 1_000}
QUICK = {"n_tags": 4_000, "frame_size": 2_400, "rounds": 6, "repeats": 2,
         "reader_tags": 300}
#: The tree row: per-slot protocols timed at ``reader_tags`` and 4x that.
TREE_PROTOCOLS = {"bt": BinaryTree, "qt": QueryTree}


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time in seconds (min rejects noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _children(salt: int, rounds: int):
    return np.random.SeedSequence([20_100, salt]).spawn(rounds)


def _gens(kids):
    return [np.random.Generator(np.random.PCG64(c)) for c in kids]


def _load_frozen(frozen_dir: str | None):
    """The vendored pre-batching kernels, or None outside a checkout."""
    if not frozen_dir:
        return None
    path = Path(frozen_dir)
    if not (path / "_reference_kernels.py").is_file():
        return None
    sys.path.insert(0, str(path))
    try:
        return importlib.import_module("_reference_kernels")
    finally:
        sys.path.remove(str(path))


def run_bench(
    n_tags: int,
    frame_size: int,
    rounds: int,
    repeats: int,
    reader_tags: int,
    frozen=None,
) -> dict:
    """Measure every engine and return the report document."""
    timing = TimingModel()
    det = QCDDetector(8)
    kernels: dict[str, dict[str, float]] = {}

    variants: dict[str, dict[str, Callable[[], object]]] = {
        "fsa": {
            "streamed": lambda: [
                fsa_fast(n_tags, frame_size, det, timing, g)
                for g in _gens(_children(1, rounds))
            ],
            "batched": lambda: fsa_fast_batch(
                n_tags, frame_size, det, timing, _children(1, rounds)
            ),
        },
        "dfsa": {
            "streamed": lambda: [
                dfsa_fast(
                    n_tags, frame_size, SchouteEstimator(), det, timing, g,
                    max_frame_size=1 << 17,
                )
                for g in _gens(_children(2, rounds))
            ],
            "batched": lambda: dfsa_fast_batch(
                n_tags, frame_size, SchouteEstimator(), det, timing,
                _children(2, rounds), max_frame_size=1 << 17,
            ),
        },
        "bt": {
            "streamed": lambda: [
                bt_fast(n_tags, det, timing, g)
                for g in _gens(_children(3, rounds))
            ],
            "batched": lambda: bt_fast_batch(
                n_tags, det, timing, _children(3, rounds)
            ),
        },
    }
    if frozen is not None:
        variants["fsa"]["frozen"] = lambda: [
            frozen.fsa_fast(n_tags, frame_size, det, timing, g)
            for g in _gens(_children(1, rounds))
        ]
        variants["dfsa"]["frozen"] = lambda: [
            frozen.dfsa_fast(
                n_tags, frame_size, SchouteEstimator(), det, timing, g,
                max_frame_size=1 << 17,
            )
            for g in _gens(_children(2, rounds))
        ]
        # The frozen BT walker is ~10x slower; one round is plenty.
        variants["bt"]["frozen"] = lambda: [
            frozen.bt_fast(n_tags, det, timing, g)
            for g in _gens(_children(3, 1))
        ]

    for proto, engines in variants.items():
        # Interleave the engines within each repeat (and take at least
        # best-of-5): the gate compares ratios, and alternating keeps a
        # sustained noise spike from biasing one engine only.
        best = {name: float("inf") for name in engines}
        for _ in range(max(repeats, 5)):
            for name, fn in engines.items():
                best[name] = min(best[name], _time(fn, 1))
        entry: dict[str, float] = {}
        for engine in engines:
            n_r = 1 if engine == "frozen" and proto == "bt" else rounds
            entry[f"{engine}_ms_per_round"] = best[engine] / n_r * 1_000.0
        entry["batch_speedup_vs_streamed"] = (
            entry["streamed_ms_per_round"] / entry["batched_ms_per_round"]
        )
        if "frozen_ms_per_round" in entry:
            entry["batch_speedup_vs_frozen"] = (
                entry["frozen_ms_per_round"] / entry["batched_ms_per_round"]
            )
        kernels[proto] = entry

    def reader_once(
        packed: bool | None,
        frame_batched: bool = True,
        detector=QCDDetector,
        observed: bool = False,
    ) -> float:
        # A fresh population per run is required (identification is
        # destructive), but spawning its per-tag RNG streams is setup,
        # not Reader work -- keep it outside the timed window so the
        # tier ratios measure the inventory loop itself.
        pop = TagPopulation(
            reader_tags, id_bits=timing.id_bits, rng=make_rng(99)
        )
        reader = Reader(
            detector(), timing, packed=packed, frame_batched=frame_batched,
        )
        saved = _OBS.enabled, _OBS.registry
        if observed:
            # Count into a private registry: the bench's own slots must
            # not land in the caller's metrics.
            _OBS.registry = obs_registry
        _OBS.enabled = observed
        # Start from a collected heap, as tree_once does.
        gc.collect()
        try:
            t0 = time.perf_counter()
            reader.run_inventory(
                pop.tags, FramedSlottedAloha(max(1, reader_tags))
            )
            return time.perf_counter() - t0
        finally:
            _OBS.enabled, _OBS.registry = saved

    obs_registry = MetricsRegistry()

    def crc64() -> CRCCDDetector:
        # The paper's layout: 64-bit ID + CRC-32, a 96-bit payload.
        return CRCCDDetector(id_bits=64)

    # Interleave the reader tiers within each repeat, alternating their
    # order, and take at least best-of-15: the ratios are what the gate
    # compares, and a toll of a few percent (the obs pair) sits inside
    # this host noise at fewer samples.  The obs pair runs with whatever
    # sink the process tracer has (a NullSink unless the caller set one).
    tiers = {
        "object": lambda: reader_once(False),
        "packed": lambda: reader_once(True, frame_batched=False),
        "batched": lambda: reader_once(True),
        "observed": lambda: reader_once(None, observed=True),
        "crc_object": lambda: reader_once(False, detector=crc64),
        "crc_batched": lambda: reader_once(None, detector=crc64),
    }
    best = dict.fromkeys(tiers, float("inf"))
    for i in range(3 * max(repeats, 5)):
        for name in list(tiers)[:: 1 if i % 2 == 0 else -1]:
            best[name] = min(best[name], tiers[name]())

    def tree_once(protocol_cls, n: int) -> float:
        pop = TagPopulation(n, id_bits=timing.id_bits, rng=make_rng(98))
        reader = Reader(QCDDetector(8), timing)
        # Start each run from a collected heap: a full collection of the
        # previous runs' garbage landing inside one window but not the
        # other skews the ratio by up to 2x.
        gc.collect()
        t0 = time.perf_counter()
        reader.run_inventory(pop.tags, protocol_cls())
        return time.perf_counter() - t0

    # The per-slot tree path: n and 4n tags, so tree_scaling = t(4n)/t(n)
    # is ~4 for O(responders) slots and ~16 for a per-slot rescan.
    tree: dict = {"n": reader_tags}
    for name, protocol_cls in TREE_PROTOCOLS.items():
        small = large = float("inf")
        for _ in range(max(repeats, 5)):
            small = min(small, tree_once(protocol_cls, reader_tags))
            large = min(large, tree_once(protocol_cls, 4 * reader_tags))
        tree[name] = {
            "small_ms": small * 1_000.0,
            "large_ms": large * 1_000.0,
            "tree_scaling": large / small,
        }
    return {
        "config": {
            "n_tags": n_tags,
            "frame_size": frame_size,
            "rounds": rounds,
            "repeats": repeats,
            "reader_tags": reader_tags,
            "scheme": "qcd-8",
            "frozen_measured": frozen is not None,
        },
        "kernels": kernels,
        "reader": {
            "object_ms": best["object"] * 1_000.0,
            "packed_ms": best["packed"] * 1_000.0,
            "batched_ms": best["batched"] * 1_000.0,
            "packed_speedup": best["object"] / best["packed"],
            "batched_speedup": best["object"] / best["batched"],
            "batched_speedup_vs_packed": best["packed"] / best["batched"],
            "crc_object_ms": best["crc_object"] * 1_000.0,
            "crc_batched_ms": best["crc_batched"] * 1_000.0,
            "crc_batched_speedup": best["crc_object"] / best["crc_batched"],
            "obs_batched_ms": best["observed"] * 1_000.0,
            "obs_batched_ratio": best["observed"] / best["batched"],
            "tree": tree,
        },
    }


def check_against_baseline(
    report: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Ratio-based regression findings (empty when the gate passes)."""
    problems: list[str] = []
    for proto, entry in report["kernels"].items():
        ratio = entry["batch_speedup_vs_streamed"]
        if ratio < 1.0:
            problems.append(
                f"{proto}: batched kernel is slower than streamed "
                f"(speedup {ratio:.2f}x < 1.0x)"
            )
        base = baseline.get("kernels", {}).get(proto, {}).get(
            "batch_speedup_vs_streamed"
        )
        if base is not None and ratio < base * (1.0 - tolerance):
            problems.append(
                f"{proto}: batch speedup regressed {ratio:.2f}x vs "
                f"baseline {base:.2f}x (> {tolerance:.0%} drop)"
            )
    problems.extend(
        check_reader_against_baseline(report, baseline, tolerance)
    )
    cur_b = report["reader"].get("batched_speedup")
    if cur_b is not None and cur_b < 1.0:
        problems.append(
            "reader: frame-batched path is slower than the object path "
            f"(speedup {cur_b:.2f}x < 1.0x)"
        )
    return problems


def check_reader_against_baseline(
    report: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Reader-tier ratio regressions vs a baseline document.

    Accepts either the full kernel report or the reader-only
    ``BENCH_reader.json`` document as ``baseline`` -- both carry a
    ``"reader"`` mapping.  Ratios missing on either side are skipped, so
    a pre-frame-batching baseline still gates the per-slot ratio.
    """
    problems: list[str] = []
    base_reader = baseline.get("reader", {})
    reader = report["reader"]
    for key, label in (
        ("packed_speedup", "packed"),
        ("batched_speedup", "frame-batched"),
        ("crc_batched_speedup", "CRC-CD frame-batched"),
    ):
        base = base_reader.get(key)
        cur = reader.get(key)
        if base is not None and cur is not None and cur < base * (
            1.0 - tolerance
        ):
            problems.append(
                f"reader: {label} speedup regressed {cur:.2f}x vs "
                f"baseline {base:.2f}x (> {tolerance:.0%} drop)"
            )
    # The obs toll and tree scaling are cost ratios: lower is better, so
    # each may grow by at most the tolerance.
    base, cur = base_reader.get("obs_batched_ratio"), reader.get(
        "obs_batched_ratio"
    )
    if base is not None and cur is not None and cur > base * (
        1.0 + tolerance
    ):
        problems.append(
            f"reader: obs-on/obs-off frame-path ratio grew to {cur:.2f} vs "
            f"baseline {base:.2f} (> {tolerance:.0%} rise)"
        )
    base_tree = base_reader.get("tree", {})
    for name, entry in reader.get("tree", {}).items():
        base = base_tree.get(name)
        if not isinstance(entry, dict) or not isinstance(base, dict):
            continue
        cur, ref = entry["tree_scaling"], base["tree_scaling"]
        if cur > ref * (1.0 + tolerance):
            problems.append(
                f"reader: {name} tree scaling t(4n)/t(n) grew to {cur:.2f} "
                f"vs baseline {ref:.2f} (> {tolerance:.0%} rise)"
            )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Measure streamed vs round-batched kernel throughput and the "
            "Reader's object vs packed paths; gate CI on speedup ratios."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizes (scaled-down case IV, same n/F ratio)",
    )
    parser.add_argument("--n-tags", type=int, default=None)
    parser.add_argument("--frame-size", type=int, default=None)
    parser.add_argument(
        "--rounds", type=int, default=None, help="rounds per measurement"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="measurements per engine (best-of)",
    )
    parser.add_argument("--reader-tags", type=int, default=None)
    parser.add_argument(
        "--out",
        default="BENCH_kernels.json",
        metavar="FILE",
        help="report path (default BENCH_kernels.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="committed baseline to gate speedup ratios against",
    )
    parser.add_argument(
        "--reader-out",
        default=None,
        metavar="FILE",
        help=(
            "also write a reader-only document (config + reader tiers), "
            "the shape committed as benchmarks/BENCH_reader.json"
        ),
    )
    parser.add_argument(
        "--reader-baseline",
        default=None,
        metavar="FILE",
        help=(
            "committed reader baseline (BENCH_reader.json) to gate the "
            "reader speedup ratios against"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional ratio regression vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--frozen-dir",
        default="benchmarks",
        metavar="DIR",
        help=(
            "directory holding _reference_kernels.py (the vendored "
            "pre-batching engines); skipped silently when absent"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    params = dict(QUICK if args.quick else FULL)
    for key in params:
        override = getattr(args, key)
        if override is not None:
            params[key] = override
    frozen = _load_frozen(args.frozen_dir)
    report = run_bench(frozen=frozen, **params)

    for proto, entry in report["kernels"].items():
        line = (
            f"{proto:>5}: streamed {entry['streamed_ms_per_round']:8.2f} "
            f"ms/round | batched {entry['batched_ms_per_round']:8.2f} "
            f"ms/round | {entry['batch_speedup_vs_streamed']:.2f}x"
        )
        if "batch_speedup_vs_frozen" in entry:
            line += f" ({entry['batch_speedup_vs_frozen']:.2f}x vs frozen)"
        print(line)
    rd = report["reader"]
    print(
        f"reader: object {rd['object_ms']:8.2f} ms | packed "
        f"{rd['packed_ms']:8.2f} ms | batched {rd['batched_ms']:8.2f} ms "
        f"| {rd['packed_speedup']:.2f}x / {rd['batched_speedup']:.2f}x"
    )
    print(
        f"reader crc-64: object {rd['crc_object_ms']:8.2f} ms | batched "
        f"{rd['crc_batched_ms']:8.2f} ms | {rd['crc_batched_speedup']:.2f}x"
        f" ; obs on/off {rd['obs_batched_ratio']:.3f}"
    )
    tree = rd["tree"]
    for name in TREE_PROTOCOLS:
        entry = tree[name]
        print(
            f"tree {name:>3}: n={tree['n']} {entry['small_ms']:8.2f} ms | "
            f"4n {entry['large_ms']:8.2f} ms | scaling "
            f"{entry['tree_scaling']:.2f}"
        )

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if args.reader_out:
        reader_out = Path(args.reader_out)
        reader_doc = {"config": report["config"], "reader": report["reader"]}
        reader_out.write_text(
            json.dumps(reader_doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {reader_out}")

    problems: list[str] = []
    gates: list[str] = []
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        problems += check_against_baseline(report, baseline, args.tolerance)
        gates.append(args.baseline)
    if args.reader_baseline:
        reader_baseline = json.loads(Path(args.reader_baseline).read_text())
        problems += check_reader_against_baseline(
            report, reader_baseline, args.tolerance
        )
        gates.append(args.reader_baseline)
    if gates:
        for p in problems:
            print(f"REGRESSION: {p}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"gate OK vs {', '.join(gates)} "
            f"(tolerance {args.tolerance:.0%})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
