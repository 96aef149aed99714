"""Worker process for the in-process workloads (see ``inprocess.py``).

Protocol on stdio: the worker sets the workload up, prints ``ready``,
then reads one line.  ``go`` runs the timed window and prints the
result as one JSON line; anything else exits (a set-up-only probe).

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1>
"""

from __future__ import annotations

import json
import sys

from common import OUT, self_rss_mb, use_source_tree


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv
    trace = trace == "1"
    use_source_tree()
    from inprocess import WORKLOADS
    from spans import Recorder

    rec = Recorder()
    wl = WORKLOADS[workload]()
    rec.enabled = trace  # the traced run also times the population builds
    wl.setup(int(seed), rec)
    rec.enabled = False
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    out = wl.run(float(seconds), trace)
    out["rss_mb"] = self_rss_mb()
    if trace:
        rec.write(OUT / f"spans-{workload}-{seed}.jsonl")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
