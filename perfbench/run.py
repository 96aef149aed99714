"""The repository benchmark: one command, five workloads.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``mc-grid``        -- the paper's Tables VII/VIII grid on one in-process
  ``ExperimentSuite`` (the batched Monte-Carlo kernels);
* ``reader-framed``  -- exact ``Reader`` inventories, FSA/DFSA;
* ``reader-tree``    -- exact ``Reader`` inventories, BT/QT/ABS/AQS;
* ``serve-fleet``    -- open-loop HTTP load on ``repro-serve-router``
  with two spawned ``repro-serve`` backends;
* ``gateway-stream`` -- closed-loop inventories over ``repro-gateway``'s
  binary wire.

With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` every per-layer metric (spans recorded by the
benchmark's own shims, written to ``.perfbench/spans-*.jsonl``).
``layers.json`` says which end-to-end metric each per-layer metric
should move, and on which workload.  Exit code 0 only if every
correctness check passed and no operation failed; 2 if the program's
sources are missing.

Every workload reports the same end-to-end metrics, each in the terms
of its own operation:

==============  ========================  ================================
workload        ``throughput_per_s``      ``latency_ms``
==============  ========================  ================================
mc-grid         simulated slots/s         best wall time of one grid pass
reader-framed   tags identified/s         best wall time of one mix pass
reader-tree     tags identified/s         best wall time of one mix pass
serve-fleet     requests/s, closed loop   p50 from due, repeated half
gateway-stream  tag reports/s             START_INVENTORY -> 1st report
==============  ========================  ================================

plus ``setup_s`` (launch until the first timed operation, median of
several set-ups) and ``peak_rss_mb`` (the benchmark process plus every
process it spawned).

For the three in-process workloads the two gated figures are one
estimator: the best pass is the sum of each operation's fastest time
over the passes, and throughput is one pass's work over that time.  On
a shared host it is the steadiest figure, but it sees only a change to
the fastest runs: a regression that shows on some passes only (say,
collector pauses from a growing heap) moves neither.  The median and
p90 pass times are printed next to it for that.  gateway-stream weighs
per-spec medians by the spec mix (see ``gateway_stream.mix_weighted``).

Tail latencies (p90/p99 with their sample counts) are printed but not
gated: on a shared 2-vCPU host their run-to-run spread exceeded the
largest bound a metric may have.  The human-readable lines before the
JSON also print the workload-specific names (``mc_slots_per_s``,
``serve_capacity_rps``, ``serve_p99_ms`` ...), and
``.perfbench/report-*.json`` keeps them with the run's environment
(nproc, Python, numpy).
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT,
    Checks,
    Procs,
    SourceMissing,
    emit,
    median,
    new_workdir,
    pin,
    read_banner,
    self_rss_mb,
    use_source_tree,
)

IN_PROCESS = ("mc-grid", "reader-framed", "reader-tree")
WORKLOADS = IN_PROCESS + ("serve-fleet", "gateway-stream")

#: Set-ups per untraced run, alternating CPUs; ``setup_s`` is their
#: median, an even count so both CPUs weigh equally in it.
SETUP_REPEATS = 6


def run_in_process(args) -> int:
    """Set the workload up in fresh worker processes, time the last one."""
    procs = Procs()
    workdir = new_workdir(args.workload)
    argv = [sys.executable, str(HERE / "worker.py"), args.workload,
            str(args.seed), str(args.seconds), str(int(args.trace))]
    setups = []
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        for i in range(repeats):
            t0 = time.perf_counter()
            proc = procs.spawn(argv, workdir, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE,
                               preexec_fn=functools.partial(pin, i))
            read_banner(proc, "ready", timeout_s=120)
            setups.append(time.perf_counter() - t0)
            if i < repeats - 1:
                proc.communicate("quit\n", timeout=60)
                procs.live.remove(proc)
                if proc.returncode != 0:
                    raise RuntimeError("set-up probe exited non-zero")
        out_text, _ = proc.communicate("go\n", timeout=args.seconds + 150)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        procs.live.remove(proc)
    finally:
        procs.close()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out_text.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])
    checks = Checks()
    checks.made, checks.failures = out["checks"]
    values = dict(out["values"])
    values["setup_s"] = median(setups)
    values["peak_rss_mb"] = self_rss_mb() + out["rss_mb"]
    report = dict(out["report"], setups_s=setups, named=out["named"])
    return emit(args.workload, args.trace, out["attempted"], out["failed"],
                checks, values, report)


def run_all(args) -> int:
    """Every workload in turn, each in its own fresh benchmark process."""
    code = 0
    summary = []
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace))]
        proc = subprocess.run(argv, cwd=ROOT, text=True, stdout=subprocess.PIPE)
        print(proc.stdout, end="")
        code = code or proc.returncode
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        summary.append((workload, proc.returncode, json.loads(last)))
    print("# summary")
    merged = {"correct": code == 0, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, rc, doc in summary:
        merged["attempted"] += doc.get("attempted", 0)
        merged["failed"] += doc.get("failed", 0)
        for name, metric in doc.get("metrics", {}).items():
            merged["metrics"][f"{workload}/{name}"] = metric
        print(f"  {workload:<16} exit={rc} attempted={doc.get('attempted')} "
              f"failed={doc.get('failed')}")
    print(json.dumps(merged), flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    try:
        use_source_tree()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload in IN_PROCESS:
        return run_in_process(args)
    if args.workload == "serve-fleet":
        import serve_fleet

        return serve_fleet.run(args)
    import gateway_stream

    return gateway_stream.run(args)


if __name__ == "__main__":
    sys.exit(main())
