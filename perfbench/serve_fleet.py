"""``serve-fleet``: open-loop HTTP load on ``repro-serve-router``.

The fleet is a router with two spawned ``repro-serve`` backends sharing
an empty L2 ``--cache-dir``.  One process sends an open-loop schedule
(fixed spacing per rate step, at most ``nproc`` requests in flight, so
a request can wait for a free connection); every latency is timed from
when the request was due, and a refused, failed or timed-out request
counts as missing the latency limit.  The router, both backends and the
sending process share one CPU, the two CPUs taking turns segment by
segment (see :meth:`Fleet.place`), and an idle-priority spinner keeps
that CPU from going idle between requests.

Each request asks for 1-4 grid points of cases I-III with small
``rounds``.  Half the requests are fresh (a seed never used before) and
half repeat an earlier request of the same run, so the memo and
coalescing paths carry about half the points.  Fresh requests cycle
through every shape x case x protocol in turn (the seed picks schemes,
repeats and Monte-Carlo seeds), so every run sends the same mix of
work; drawn at random, the share of costly case-III points moved the
figures from seed to seed.  The schedule:

* a short *warm-up* at the reference rate, checked but not timed;
* ``SEGMENTS`` pairs of segments spread over the run, each pair a
  *reference* segment at a rate below the knee (sync requests only)
  and a closed-loop *saturation* segment.  Per CPU, the p50 of the
  reference segments' repeated half and the median of the saturation
  segments' goodput; the mean over the two CPUs is the workload's
  ``latency_ms`` and ``throughput_per_s`` (the overall and fresh p50
  and the p90/p99, pooled over the segments, are printed).  Short
  interleaved segments and medians keep a slow moment of a shared
  host to a few segments, where one long step would take it whole;
* capacity steps at rising rates, about one request in eight an async
  job read to ``done`` over the NDJSON stream; the highest step that
  meets the latency limit is printed as ``serve_capacity_rps``;
* in the traced run only, a final *budget* step at the reference rate
  of single-point sync requests: the servers' ``/metrics`` scraped
  around it give the stage budget.  With one point a request is one
  router hop, so the client's mean is the hop plus the router's own
  share; a multi-point request fans out to concurrent hops and its
  time would not split into stages.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
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
    wait_gone,
    wait_listening,
)
from spans import Recorder

ROUNDS = 2
CASES = ("I", "II", "III")
PROTOCOLS = ("fsa", "bt")
SCHEMES = ("crc", "qcd-4", "qcd-8", "qcd-16")
#: (protocols, schemes) counts per request shape, one case each: 1, 2, 3,
#: 4 points.
SHAPES = ((1, 1), (1, 2), (1, 3), (2, 2))
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Shares are of the run.  The reference rate sits at about a third of
#: the one-CPU capacity: nearer the knee, queueing amplifies every slow
#: moment of a shared host.
WARMUP_SHARE = 0.04
SEGMENTS = 8  # (reference, saturation) pairs; the shares are split over them
REFERENCE_RPS, REFERENCE_SHARE = 20.0, 0.5
#: Closed-loop saturation: CONNECTIONS clients back to back; its goodput
#: is the fleet's capacity.  The max rate only sizes the item list.
SATURATION_MAX_RPS, SATURATION_SHARE = 400.0, 0.27
#: Open-loop rate steps that locate the knee (printed, not gated).
STEP_RPS, STEP_SHARE = (45.0, 60.0, 90.0), 0.05
#: Traced run only: single-point sync requests at the reference rate,
#: whose /metrics deltas give the stage budget (one request = one hop).
BUDGET_SHARE = 0.2
ASYNC_EVERY = 8  # in the capacity and saturation steps, one in 8 is async
LATENCY_LIMIT_MS = 250.0  # p90 from due, per open-loop step
MIN_SUCCESS = 0.99
SETUP_REPEATS = 4  # even, alternating CPUs: see common.CPUS
TIMEOUT_S = 30.0
SAMPLE_CHECKS = 12  # responses re-computed in-process after the run


# ----------------------------------------------------------------------
# fleet lifecycle


class Fleet:
    def __init__(self, procs: Procs, workdir: Path, tag: int) -> None:
        self.procs = procs
        self.log = workdir / f"router-{tag}.log"
        cache = workdir / f"l2-{tag}"
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = procs.spawn(
                [sys.executable, "-m", "repro.serve.router", "--port", "0",
                 "--backends", "2", "--backend-concurrency", str(CONNECTIONS),
                 "--cache-dir", str(cache)],
                workdir, stdout=log, stderr=subprocess.STDOUT,
            )
        self.port = wait_listening(self.proc, self.log, 60.0)
        self.url = f"http://127.0.0.1:{self.port}"
        self.backends = self._wait_healthy(60.0)
        self.setup_s = time.perf_counter() - t0
        for b in self.backends:
            procs.adopt(b["pid"])

    def _wait_healthy(self, timeout_s: float) -> list[dict]:
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(self.url, retries=0, timeout_s=5.0)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                doc = client.healthz()
            except (OSError, http.client.HTTPException, ValueError, ServeError):
                doc = {}  # not up yet: keep polling until the deadline
            backends = doc.get("backends", [])
            if doc.get("ring_nodes") == 2 and all(
                b.get("state") == "healthy" for b in backends
            ):
                return backends
            time.sleep(0.01)
        raise RuntimeError("fleet not healthy in time")

    def place(self, k: int) -> None:
        """The router, both backends and the calling thread on the
        ``k``-th CPU.

        Measured on a shared 2-vCPU VM: with the fleet spread over both
        vCPUs, 4-17% of CPU time was stolen by the host, and throughput
        and latency of the same code moved by up to 40% with it from
        run to run, while single-CPU workloads saw about 1% steal.  On
        one CPU the fleet's requests still interleave (two connections,
        two backends), and alternating ``k`` weighs both CPUs equally.
        """
        for pid in [self.proc.pid] + [b["pid"] for b in self.backends]:
            pin_pid(pid, k)
        pin(k)

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + [b["pid"] for b in self.backends]
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def scrape(self) -> dict:
        """Router + per-backend metric samples, keyed by (who, series)."""
        from repro.serve.client import ServeClient

        out = {}
        urls = [("router", self.url)] + [(b["id"], b["url"]) for b in self.backends]
        for who, url in urls:
            text = ServeClient(url, retries=2, timeout_s=10.0).metrics_text()
            for line in text.splitlines():
                if line and not line.startswith("#"):
                    series, value = line.rsplit(" ", 1)
                    out[(who, series)] = float(value)
        return out

    def drain(self, checks: Checks) -> None:
        """SIGTERM the router; it must drain its backends and exit 0."""
        code = self.procs.terminate(self.proc, timeout_s=60.0)
        orphans = wait_gone([b["pid"] for b in self.backends])
        checks.check(code == 0, f"serve-fleet: router exited {code} on SIGTERM")
        checks.check(not orphans, f"serve-fleet: orphan backends {orphans}")
        checks.check(
            "drained; exiting" in self.log.read_text(),
            "serve-fleet: router log lacks the drain line",
        )


def idle_policy() -> None:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))


def metric_sum(snap: dict, name: str, who=None, **labels) -> float:
    """Sum of samples of ``name`` (optionally one process, label subset)."""
    total = 0.0
    for (w, series), value in snap.items():
        base, _, rest = series.partition("{")
        if base != name or (who is not None and w != who):
            continue
        if all(f'{k}="{v}"' in rest for k, v in labels.items()):
            total += value
    return total


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


# ----------------------------------------------------------------------
# schedule


def build_schedule(seed: int, seconds: float, budget: bool = False) -> list[dict]:
    """Every request the run may send, in order, with its step and due time.

    Closed-loop (saturation) items have no due time: they are sent as
    soon as a connection is free, and the ones the window leaves unsent
    are dropped.  So that every repeat really repeats a request that
    was sent, repeats draw on open-loop requests, or, in the closed
    loop, on the request just before, which is sent first.  ``budget``
    appends the traced run's budget step of single-point sync requests,
    after everything else, so the other steps are the same as in the
    untraced run.
    """
    rng = random.Random(seed)
    fresh_seed = (seed % 100_000) * 10_000  # unique per request of a run
    sent_pools: list[list[dict]] = [[] for _ in SHAPES]  # open-loop bodies by shape
    counters = {"open": 0, "closed": 0, "repeat": 0}
    steps = [("warmup", REFERENCE_RPS, seconds * WARMUP_SHARE, 0)]
    for k in range(SEGMENTS):
        steps += [
            ("reference", REFERENCE_RPS, seconds * REFERENCE_SHARE / SEGMENTS, k),
            ("saturation", SATURATION_MAX_RPS, seconds * SATURATION_SHARE / SEGMENTS, k),
        ]
    steps += [(f"{rps:g}rps", rps, seconds * STEP_SHARE, 0) for rps in STEP_RPS]
    if budget:
        steps += [("budget", REFERENCE_RPS, seconds * BUDGET_SHARE, 0)]
    schedule, t = [], 0.0
    budget_pool: list[dict] = []
    for step, rps, duration, segment in steps:
        closed = step == "saturation"
        for i in range(max(1, int(rps * duration))):
            if step == "budget" and budget_pool and i % 2 == 1:
                body, kind = dict(rng.choice(budget_pool)), "repeat"
            elif closed and i % 4 == 1:
                # The request just before, most likely still in flight on
                # the other connection: the coalescing path.
                body, kind = dict(schedule[-1]["body"]), "repeat"
            elif step != "budget" and any(sent_pools) and i % 2 == 1:
                # Repeats take the shapes in turn, like fresh requests.
                shapes = [pool for pool in sent_pools if pool]
                body = dict(rng.choice(shapes[counters["repeat"] % len(shapes)]))
                counters["repeat"] += 1
                kind = "repeat"
            else:
                # The n-th fresh request of its kind: shape, then case,
                # then protocol cycle, so any 24 in a row hold each once.
                n = counters["closed" if closed else "open"]
                counters["closed" if closed else "open"] += 1
                shape = n % len(SHAPES)
                nproto, nscheme = (1, 1) if step == "budget" else SHAPES[shape]
                first = n // (len(SHAPES) * len(CASES))
                fresh_seed += 1
                body = {
                    "version": 1,
                    "cases": [CASES[(n // len(SHAPES)) % len(CASES)]],
                    "protocols": [PROTOCOLS[(first + j) % len(PROTOCOLS)]
                                  for j in range(nproto)],
                    "schemes": rng.sample(SCHEMES, nscheme),
                    "rounds": ROUNDS,
                    "seed": fresh_seed,
                    "client": f"bench-{n % 4}",
                }
                if step == "budget":
                    budget_pool.append(body)
                elif not closed:
                    sent_pools[shape].append(body)
                kind = "fresh"
            async_job = (step not in ("warmup", "reference", "budget")
                         and i % ASYNC_EVERY == ASYNC_EVERY - 1)
            schedule.append({
                "index": len(schedule),
                "due": None if closed else t + i / rps,
                "step": step,
                "segment": segment,
                "kind": kind,
                "mode": "async" if async_job else "sync",
                "body": dict(body, mode="async" if async_job else "sync"),
            })
        t += duration
    return schedule


def run_schedule(url: str, items: list[dict], rec: Recorder,
                 trace_after: float | None = None,
                 closed_s: float | None = None) -> None:
    """Send ``items`` from CONNECTIONS threads.

    Open loop: each item at its due time.  Closed loop (``closed_s``):
    back to back until ``closed_s`` seconds have passed.
    """
    from repro.serve.client import ServeClient

    lock = threading.Lock()
    cursor = iter(items)
    first_due = items[0]["due"] or 0.0
    start = time.perf_counter() + 0.02 - first_due

    def one(item: dict) -> None:
        client = ServeClient(url, retries=0, timeout_s=TIMEOUT_S)
        item["sent"] = time.perf_counter() - start
        if item["due"] is None:
            item["due"] = item["sent"]
        status, doc = -1, None
        try:
            if item["mode"] == "sync":
                status, _, payload = client.request("POST", "/v1/simulate", item["body"])
                if status == 200:
                    doc = json.loads(payload)
            else:
                submitted = client.simulate(item["body"])
                lines = list(client.stream_job(submitted["job_id"]))
                done = lines[-1] if lines else {}
                status = 200 if done.get("state") == "done" else 500
                doc = {"results": [x for x in lines if x.get("type") == "result"]}
        except Exception as exc:  # transport errors and timeouts are failures
            item["error"] = f"{type(exc).__name__}: {exc}"
        item["done"] = time.perf_counter() - start
        item["status"], item["doc"] = status, doc
        if trace_after is not None and item["due"] >= trace_after:
            rec.add("serve.client.request", start + item["sent"],
                    start + item["done"], trace_id=f"req-{item['index']}")

    def sender() -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            if closed_s is not None:
                if time.perf_counter() - start >= closed_s:
                    return
            else:
                delay = start + item["due"] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            one(item)

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()


# ----------------------------------------------------------------------
# analysis


def latency_ms(item: dict) -> float:
    ok = item["status"] == 200
    return (item["done"] - item["due"]) * 1e3 if ok else math.inf


def step_stats(items: list[dict]) -> dict:
    lat = [latency_ms(x) for x in items]
    ok = [x for x in items if x["status"] == 200]
    segments = {}
    for x in items:
        segments.setdefault(x["segment"], []).append(x)
    span = sum(max(x["done"] for x in seg) - min(x["due"] for x in seg)
               for seg in segments.values())
    late = [(x["sent"] - x["due"]) * 1e3 for x in items]
    stats = {
        "n": len(items),
        "ok": len(ok),
        "success": len(ok) / len(items),
        "p50_ms": percentile(lat, 50),
        "p90_ms": percentile(lat, 90),
        "p99_ms": percentile(lat, 99),
        "goodput_rps": len(ok) / span,
        "late_mean_ms": mean(late),
        "late_max_ms": max(late),
        "late_end_ms": mean(late[-max(1, len(late) // 10):]),
    }
    stats["meets_limit"] = (
        stats["success"] >= MIN_SUCCESS
        and stats["p90_ms"] <= LATENCY_LIMIT_MS
        and stats["late_end_ms"] <= LATENCY_LIMIT_MS
    )
    return stats


def same_stats(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    for k, v in want.items():
        g = got[k]
        if isinstance(v, float) and math.isnan(v):
            if not (isinstance(g, float) and math.isnan(g)):
                return False
        elif g != v:
            return False
    return True


def check_responses(schedule: list[dict], checks: Checks) -> None:
    """Shape of every response; field equality of a sample in-process."""
    from dataclasses import asdict

    from repro.experiments import ExperimentSuite

    ok = [x for x in schedule if x["status"] == 200]
    for item in ok:
        body = item["body"]
        want = len(body["cases"]) * len(body["protocols"]) * len(body["schemes"])
        results = item["doc"]["results"]
        if not checks.check(
            len(results) == want,
            f"serve-fleet request {item['index']}: {len(results)} results, want {want}",
        ):
            continue
        if item["mode"] == "sync":
            checks.check(
                sum(item["doc"].get("served_by", {}).values()) == want,
                f"serve-fleet request {item['index']}: served_by does not add up",
            )
    step = max(1, len(ok) // SAMPLE_CHECKS)
    for item in ok[::step][:SAMPLE_CHECKS]:
        body = item["body"]
        suite = ExperimentSuite(rounds=body["rounds"], seed=body["seed"])
        for line in item["doc"]["results"]:
            point = line["point"]
            want = asdict(suite.run(point["case"]["name"], point["protocol"], point["scheme"]))
            checks.check(
                same_stats(line["stats"], want),
                f"serve-fleet request {item['index']} {point}: stats differ "
                "from an in-process ExperimentSuite",
            )


def stage_budget(before: dict, after: dict, client_ms: float) -> dict:
    """Means that subtract: per backend hop, then the client's view.

    Taken on single-point requests, so the client mean is one forward
    hop plus ``serve.router.self_ms_mean`` (routing, the router's HTTP
    handling and the client's loopback connect).
    """
    d = delta(after, before)
    hops = metric_sum(d, "repro_serve_request_seconds_count", route="simulate")
    fwd_n = metric_sum(d, "repro_router_forward_seconds_count")
    fwd_ms = metric_sum(d, "repro_router_forward_seconds_sum") / fwd_n * 1e3

    def stage(name):
        return metric_sum(d, "repro_serve_stage_seconds_sum", stage=name) / hops * 1e3

    queue, coalesce, compute, stream = (
        stage("queue_wait"), stage("coalesce"), stage("compute"), stage("stream")
    )
    return {
        "serve.request_ms_mean": metric_sum(
            d, "repro_serve_request_seconds_sum", route="simulate") / hops * 1e3,
        "serve.queue_wait_ms_mean": queue,
        "serve.coalesce_ms_mean": coalesce - compute,  # compute nests inside
        "serve.compute_ms_mean": compute,
        "serve.stream_ms_mean": stream,
        "serve.unattributed_ms_mean": fwd_ms - queue - coalesce - stream,
        "serve.router.forward_ms_mean": fwd_ms,
        "serve.router.self_ms_mean": client_ms - fwd_ms,
        "serve.client_mean_ms": client_ms,
    }


# ----------------------------------------------------------------------


def run(args) -> int:
    procs = Procs()
    workdir = new_workdir("serve-fleet")
    checks = Checks()
    rec = Recorder()
    try:
        return _run(args, procs, workdir, checks, rec)
    finally:
        procs.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, procs: Procs, workdir: Path, checks: Checks, rec: Recorder) -> int:
    schedule = build_schedule(args.seed, args.seconds, budget=args.trace)
    # Keeps the fleet's CPU from going idle between requests: waking an
    # idle vCPU of a busy shared host took long enough that the reference
    # latency followed the host's load from run to run.  SCHED_IDLE, so
    # it runs only when nothing else on that CPU wants to.
    spinner = procs.spawn([sys.executable, "-c", "while True: pass"], workdir,
                          preexec_fn=idle_policy)
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        pin(i)  # the router, and the backends it spawns, inherit this CPU
        pin_pid(spinner.pid, i)
        fleet = Fleet(procs, workdir, i)
        setups.append(fleet.setup_s)
        if i < repeats - 1:
            fleet.drain(checks)

    def step(name: str, segment: int = 0) -> list[dict]:
        return [x for x in schedule if x["step"] == name and x["segment"] == segment]

    def place(k: int) -> None:
        fleet.place(k)
        pin_pid(spinner.pid, k)

    reference = [x for x in schedule if x["step"] == "reference"]
    trace_after = reference[-1]["due"] / 2 if args.trace else None
    rec.enabled = bool(args.trace)
    snaps = {"start": fleet.scrape()}
    place(0)
    run_schedule(fleet.url, step("warmup"), rec)
    for k in range(SEGMENTS):
        place(k)
        run_schedule(fleet.url, step("reference", k), rec, trace_after)
        run_schedule(fleet.url, step("saturation", k), rec,
                     closed_s=args.seconds * SATURATION_SHARE / SEGMENTS)
    place(0)
    run_schedule(fleet.url, [x for x in schedule if x["step"].endswith("rps")], rec)
    snaps["end"] = fleet.scrape()
    if args.trace:
        run_schedule(fleet.url, step("budget"), rec)
        snaps["budget"] = fleet.scrape()
    procs.terminate(spinner, timeout_s=5.0)
    rss = fleet.peak_rss_mb() + self_rss_mb()
    fleet.drain(checks)
    os.sched_setaffinity(0, CPUS)
    rec.enabled = False

    schedule = [x for x in schedule if "status" in x]  # drop unsent closed-loop items
    check_responses(schedule, checks)
    steps = {}
    for item in schedule:
        steps.setdefault(item["step"], []).append(item)
    stats = {name: step_stats(items) for name, items in steps.items()}
    ref = stats["reference"]
    passing = [stats[x] for x in stats if x.endswith("rps") and stats[x]["meets_limit"]]
    slo_capacity = passing[-1]["goodput_rps"] if passing else 0.0
    failed = sum(x["status"] != 200 for x in schedule)
    for x in schedule:
        if x["status"] != 200:
            print(f"  failed request {x['index']}: status={x['status']} {x.get('error', '')}")

    by_kind = {
        kind: percentile([latency_ms(x) for x in reference if x["kind"] == kind], 50)
        for kind in ("fresh", "repeat")
    }
    # Segment k ran on CPU k mod 2: each CPU's figure weighs equally.
    cpu_p50s = [
        percentile([latency_ms(x) for x in reference
                    if x["kind"] == "repeat" and x["segment"] % 2 == j], 50)
        for j in (0, 1)
    ]
    segment_rps = [step_stats(step("saturation", k))["goodput_rps"] for k in range(SEGMENTS)]
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": mean([median(segment_rps[0::2]), median(segment_rps[1::2])]),
        # The repeated half: the serving stack's own latency.  The fresh
        # half adds the Monte-Carlo compute that mc-grid gates, and the
        # overall p50 sits between the two modes, so both moved more
        # with the host.
        "latency_ms": mean(cpu_p50s),
    }
    named = {
        "serve_capacity_rps": {"value": slo_capacity, "unit": "req/s"},
        "serve_saturation_rps": {"value": values["throughput_per_s"], "unit": "req/s"},
        "serve_p50_ms": {"value": ref["p50_ms"], "unit": "ms"},
        "serve_p90_ms": {"value": ref["p90_ms"], "unit": f"ms (n={ref['n']})"},
        "serve_p99_ms": {"value": ref["p99_ms"], "unit": f"ms (n={ref['n']})"},
        "serve_p50_ms_fresh": {"value": by_kind["fresh"], "unit": "ms"},
        "serve_p50_ms_repeat": {"value": by_kind["repeat"], "unit": "ms"},
        "serve_generator_late_max_ms": {
            "value": max(s["late_max_ms"] for s in stats.values()), "unit": "ms"},
    }
    if args.trace:
        values.update(layer_metrics(schedule, reference, snaps, trace_after))
        rec.write(workdir.parent / f"spans-serve-fleet-{args.seed}.jsonl")
    report = {"steps": stats, "setups_s": setups, "named": named,
              "cpu_repeat_p50_ms": cpu_p50s, "segment_goodput_rps": segment_rps,
              "latency_limit_ms": LATENCY_LIMIT_MS}
    for name, s in stats.items():
        print(f"  step {name:<10} n={s['n']:<4} ok={s['success']:.3f} "
              f"p50={s['p50_ms']:.1f} p90={s['p90_ms']:.1f} p99={s['p99_ms']:.1f} "
              f"goodput={s['goodput_rps']:.1f} late_max={s['late_max_ms']:.1f} "
              f"{'meets' if s['meets_limit'] else 'misses'} limit")
    return emit("serve-fleet", args.trace, len(schedule), failed, checks, values, report)


def layer_metrics(schedule, reference, snaps, trace_after) -> dict:
    budget = [x for x in schedule if x["step"] == "budget" and x["status"] == 200]
    client_ms = mean((x["done"] - x["sent"]) * 1e3 for x in budget)
    values = stage_budget(snaps["end"], snaps["budget"], client_ms)
    sync_ok = [x for x in reference if x["status"] == 200]
    d = delta(snaps["end"], snaps["start"])
    points = metric_sum(d, "repro_serve_points_total")
    untraced = [x for x in sync_ok if x["due"] < trace_after]
    traced = [x for x in sync_ok if x["due"] >= trace_after]
    backends = {
        series.split('backend="')[1].split('"')[0]
        for (who, series), v in d.items()
        if series.startswith("repro_router_forwards_total") and v > 0
    }
    values.update({
        "serve.compute_ratio": metric_sum(d, "repro_serve_points_total", source="computed")
        / points,
        "serve.coalesce_hits": metric_sum(d, "repro_serve_coalesce_hits_total"),
        "serve.rejects": metric_sum(d, "repro_serve_rejects_total"),
        "serve.client_wait_ms": mean(
            (x["sent"] - x["due"]) * 1e3 for x in schedule if x["step"] != "saturation"),
        "serve.router.retries": metric_sum(d, "repro_router_retries_total"),
        "serve.router.ejections": metric_sum(d, "repro_router_ejections_total"),
        "serve.router.backends_served": len(backends),
        "trace.overhead_share": mean(x["done"] - x["sent"] for x in traced)
        / mean(x["done"] - x["sent"] for x in untraced) - 1.0,
    })
    return values
