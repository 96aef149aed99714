"""``gateway-stream``: closed-loop inventories over ``repro-gateway``.

``repro-gateway`` runs with two simulated readers and its default
settings, so ``repro.obs`` is on inside it and its Reader takes the
object path, not the packed one.  One client connection runs
back-to-back inventories, as a real reader client does, on the two
readers in turn.  One connection, not ``nproc``: with obs on the
gateway is bound to one core by the GIL (measured on a 2-vCPU host:
about 3000 tags/s with one connection or two), so a second connection
only doubled the time to the first report and made it spread more.

The spec mix is fixed and the seed only orders it and draws the
populations: FSA and DFSA at 2000 tags, three in four with QCD-8 (where
the wire is a large share of the inventory) and one in four with CRC-CD
(where the Reader dominates).  The gateway and the client sit on
different CPUs and swap CPUs every inventory, so both vCPUs, which can
run at different speeds, weigh equally in every run.

Metrics: tag reports delivered per second of window, and the time from
START_INVENTORY to the first TAG_REPORT.  Every inventory's reported
tag-id set must equal its population's IDs with nothing lost, and the
drain snapshot must show zero CRC failures.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    CPUS,
    Checks,
    Procs,
    emit,
    mean,
    median,
    new_workdir,
    percentile,
    pin,
    pin_pid,
    proc_peak_rss_mb,
    self_rss_mb,
    wait_listening,
)
from spans import Recorder, wrap

N_TAGS = 2000
FRAME_SIZE = 1200  # the paper's F = 0.6 n (DFSA's initial frame)
#: One cycle of the mix; the seed shuffles each cycle.
CYCLE = [(p, s) for p in ("fsa", "dfsa") for s in ("qcd-8", "qcd-8", "qcd-8", "crc")]
READERS = 2
SETUP_REPEATS = 4  # even, alternating CPUs: see common.CPUS
SAMPLE_FRAMES = 2000  # TagReports re-encoded/decoded for the codec timings
DIRECT_PER_DETECTOR = 4  # direct run_spec calls per detector (traced run)


class Gateway:
    def __init__(self, procs: Procs, workdir: Path, tag: int) -> None:
        self.procs = procs
        self.log = workdir / f"gateway-{tag}.log"
        self.metrics_out = workdir / f"gateway-metrics-{tag}.json"
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = procs.spawn(
                [sys.executable, "-m", "repro.gateway", "--port", "0",
                 "--readers", str(READERS), "--metrics-out", str(self.metrics_out)],
                workdir, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=functools.partial(pin, tag),
            )
        self.port = wait_listening(self.proc, self.log, 60.0)
        self.setup_s = time.perf_counter() - t0

    def place(self, k: int) -> None:
        """Every gateway thread on the ``k``-th CPU, the calling thread on
        the next one."""
        pin_pid(self.proc.pid, k)
        pin(k + 1)

    def drain(self, checks: Checks) -> dict:
        """SIGTERM; the gateway must exit 0 and leave a clean snapshot."""
        code = self.procs.terminate(self.proc, timeout_s=60.0)
        checks.check(code == 0, f"gateway-stream: gateway exited {code} on SIGTERM")
        snap = json.loads(self.metrics_out.read_text())

        def value(name, **labels):
            return sum(
                s["value"] for s in snap.get(name, {}).get("samples", [])
                if all(s["labels"].get(k) == v for k, v in labels.items())
            )

        checks.check(
            value("repro_gateway_crc_failures_total") == 0,
            "gateway-stream: drain snapshot shows CRC failures",
        )
        checks.check(
            value("repro_gateway_connections_active") == 0,
            "gateway-stream: connections still active at drain",
        )
        return {"tag_reports_out": value("repro_gateway_frames_out_total", cmd="TagReport")}


def build_specs(seed: int, count: int) -> list[tuple[str, str, int]]:
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        cycle = list(CYCLE)
        rng.shuffle(cycle)
        specs += [(p, s, rng.getrandbits(62)) for p, s in cycle]
    return specs


def run_client(gateway: Gateway, specs: list, seconds: float, rec: Recorder,
               trace_after: float | None, stash: list) -> tuple[list[dict], list[str]]:
    """One closed-loop client: back-to-back inventories until ``seconds``
    have passed and at least one cycle is done."""
    from repro.gateway.client import GatewayClient

    done: list[dict] = []
    start = time.perf_counter()
    try:
        with GatewayClient("127.0.0.1", gateway.port, timeout_s=60.0) as gw:
            for k, (protocol, scheme, seed) in enumerate(specs):
                if time.perf_counter() - start >= seconds and k >= len(CYCLE):
                    break  # at least one whole cycle, so every spec is timed
                gateway.place(k)
                traced = trace_after is not None and time.perf_counter() - start >= trace_after
                rec.enabled = traced
                row = {"protocol": protocol, "scheme": scheme, "seed": seed,
                       "traced": traced, "ids": set(), "reports": 0}
                with rec.span("gateway.client.inventory", trace_id=f"inv-{seed}"):
                    row["t0"] = time.perf_counter()
                    gw.start_inventory(k % READERS, protocol, scheme, FRAME_SIZE, N_TAGS, seed)
                    for report in gw.iter_reports():
                        if not row["reports"]:
                            row["t1"] = time.perf_counter()
                        row["reports"] += 1
                        row["ids"].add(report.tag_id)
                        if traced and len(stash) < SAMPLE_FRAMES:
                            stash.append(report)
                    row["t2"] = time.perf_counter()
                row["complete"] = gw.last_complete
                done.append(row)
    except Exception as exc:  # a failed connection is a failed operation
        return done, [f"{type(exc).__name__}: {exc}"]
    finally:
        rec.enabled = False
        os.sched_setaffinity(0, CPUS)
    for row in done:
        row["window_start"] = start
    return done, []


def mix_weighted(rows: list[dict], value) -> float:
    """Median of ``value`` per spec of the cycle, weighted by its share.

    A window ends part-way through a cycle, and CRC-CD inventories take
    about twice as long as QCD-8 ones, so a plain median or a plain
    reports/window would move with where the seed's shuffle cut the
    last cycle.  Weighting per-spec medians by the cycle's fixed mix
    keeps the figure to the mix the workload defines.
    """
    total = 0.0
    for spec in set(CYCLE):
        got = [value(r) for r in rows if (r["protocol"], r["scheme"]) == spec]
        if not got:
            raise RuntimeError(f"gateway-stream: no {spec} inventory in the window")
        total += CYCLE.count(spec) / len(CYCLE) * median(got)
    return total


def run(args) -> int:
    procs = Procs()
    workdir = new_workdir("gateway-stream")
    checks = Checks()
    rec = Recorder()
    try:
        return _run(args, procs, workdir, checks, rec)
    finally:
        procs.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, procs: Procs, workdir: Path, checks: Checks, rec: Recorder) -> int:
    from repro.bits.rng import make_rng
    from repro.gateway import codec, readers
    from repro.tags.population import TagPopulation

    feed_bytes = [0]
    if args.trace:
        original_feed = codec.FrameReassembler.feed

        def counted_feed(self, data):
            if rec.enabled:
                feed_bytes[0] += len(data)
            return original_feed(self, data)

        codec.FrameReassembler.feed = counted_feed
        wrap(rec, readers, "run_spec", "gateway.run_spec",
             trace_id=lambda spec: f"direct-{spec.seed}")
        wrap(rec, TagPopulation, "__init__", "tags.population",
             trace_id=lambda self, size, **k: f"population-{size}")

    specs = build_specs(args.seed, 1000)
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        gateway = Gateway(procs, workdir, i)
        setups.append(gateway.setup_s)
        if i < repeats - 1:
            gateway.drain(checks)

    stash: list = []
    trace_after = args.seconds / 2 if args.trace else None
    rows, errors = run_client(gateway, specs, args.seconds, rec, trace_after, stash)
    rss = proc_peak_rss_mb(gateway.proc.pid) + self_rss_mb()
    snap = gateway.drain(checks)
    for err in errors:
        print(f"  failed connection: {err}")

    # Correctness: every reported id set is the population's, nothing lost.
    # The population is built here from the spec's documented recipe, not
    # through the gateway's own helper, so a fault there cannot hide.
    rec.enabled = bool(args.trace)
    for row in rows:
        pop = TagPopulation(N_TAGS, id_bits=64, rng=make_rng(row["seed"]))
        c = row["complete"]
        checks.check(
            row["reports"] == N_TAGS and row["ids"] == set(pop.ids)
            and c is not None and c.identified == N_TAGS and c.lost == 0,
            f"gateway-stream {row['protocol']}/{row['scheme']}/seed={row['seed']}: "
            f"{len(row['ids'])} ids, {row['reports']} reports, complete={c}",
        )
    reports = sum(r["reports"] for r in rows)
    checks.check(
        snap["tag_reports_out"] == reports,
        f"gateway-stream: gateway sent {snap['tag_reports_out']} TagReports, "
        f"clients received {reports}",
    )

    window = max(r["t2"] for r in rows) - rows[0]["window_start"]
    first = [(r["t1"] - r["t0"]) * 1e3 for r in rows]
    inventory_s = mix_weighted(rows, lambda r: r["t2"] - r["t0"])
    first_ms = mix_weighted(rows, lambda r: (r["t1"] - r["t0"]) * 1e3)
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": N_TAGS / inventory_s,
        "latency_ms": first_ms,
    }
    named = {
        "gateway_tags_per_s": {"value": N_TAGS / inventory_s, "unit": "tags/s"},
        "gateway_first_report_p50_ms": {"value": first_ms, "unit": "ms"},
        "gateway_window_tags_per_s": {"value": reports / window, "unit": "tags/s"},
        "gateway_first_report_raw_p50_ms": {"value": median(first), "unit": "ms"},
        "gateway_first_report_raw_p90_ms": {
            "value": percentile(first, 90), "unit": f"ms (n={len(first)})"},
    }
    for scheme in ("qcd-8", "crc"):
        named[f"gateway_first_report_p50_ms.{scheme}"] = {
            "value": median((r["t1"] - r["t0"]) * 1e3 for r in rows if r["scheme"] == scheme),
            "unit": "ms",
        }
    if args.trace:
        values.update(layer_metrics(rows, stash, rec, feed_bytes[0], codec, readers))
        rec.write(workdir.parent / f"spans-gateway-stream-{args.seed}.jsonl")
    report = {"inventories": len(rows), "setups_s": setups, "named": named,
              "window_s": window, "connections": 1}
    return emit("gateway-stream", args.trace, len(rows), len(errors), checks, values, report)


def layer_metrics(rows, stash, rec, feed_bytes, codec, readers) -> dict:
    from repro import obs

    traced = [r for r in rows if r["traced"]]
    untraced = [r for r in rows if not r["traced"]]
    tags = sum(r["reports"] for r in traced)
    frames = sum(r["reports"] + 2 for r in traced)  # + InventoryStarted/Complete
    values = {}
    rec.enabled = True
    with rec.span("gateway.codec.encode", trace_id="codec"):
        raw = [codec.encode_frame(f) for f in stash]
    with rec.span("gateway.codec.decode", trace_id="codec"):
        for data in raw:
            codec.decode_frame(data)
    # The direct run_spec runs with repro.obs on, as inside repro-gateway,
    # so compute and stream time come from the same Reader path.
    obs.enable()
    try:
        for scheme in ("qcd-8", "crc"):
            used = [r for r in rows if r["scheme"] == scheme][:DIRECT_PER_DETECTOR]
            times = []
            for k, r in enumerate(used):
                pin(k)
                readers.run_spec(
                    codec.StartInventory(0, r["protocol"], scheme, FRAME_SIZE, N_TAGS, r["seed"]))
                span = rec.closed("gateway.run_spec")[-1]
                times.append((span[2] - span[1]) * 1e3)
            values[f"gateway.compute_ms.{scheme}"] = median(times)
            values[f"gateway.stream_ms.{scheme}"] = mean(
                (r["t2"] - r["t1"]) * 1e3 for r in rows if r["scheme"] == scheme)
    finally:
        obs.disable()
        obs.reset()
        os.sched_setaffinity(0, CPUS)
    rec.enabled = False
    # Both over the cycle's detector mix.
    values["gateway.compute_ms"] = sum(
        sum(s == scheme for _, s in CYCLE) / len(CYCLE) * values[f"gateway.compute_ms.{scheme}"]
        for scheme in ("qcd-8", "crc"))
    values["gateway.stream_ms"] = mix_weighted(rows, lambda r: (r["t2"] - r["t1"]) * 1e3)
    pops = rec.closed("tags.population")
    values.update({
        "gateway.codec.encode_us_per_frame": rec.total("gateway.codec.encode") / len(stash) * 1e6,
        "gateway.codec.decode_us_per_frame": rec.total("gateway.codec.decode") / len(stash) * 1e6,
        "gateway.frames_per_tag": frames / tags,
        "gateway.bytes_per_tag": feed_bytes / tags,
        "tags.population_ms_per_ktag": rec.total("tags.population")
        / (len(pops) * N_TAGS) * 1e6,
        # Same-detector inventories only, so the halves' mixes cancel.
        "trace.overhead_share": mean(r["t2"] - r["t0"] for r in traced if r["scheme"] == "qcd-8")
        / mean(r["t2"] - r["t0"] for r in untraced if r["scheme"] == "qcd-8") - 1.0,
    })
    return values
