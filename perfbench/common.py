"""Shared plumbing for the benchmark: source tree, processes, statistics.

Everything the benchmark writes goes under ``<checkout>/.perfbench/``;
each run gets its own fresh temporary directory there, removed at exit.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


class SourceMissing(RuntimeError):
    """The checkout does not contain the program's sources."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SourceMissing(f"repro imported from {repro.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for spawned programs: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


#: CPUs this process may run on.  On a shared host the vCPUs can run at
#: very different speeds at the same moment (measured on a 2-vCPU VM:
#: 66 vs 96 ms for one pure-Python loop pinned to each vCPU), so a
#: single-threaded workload's speed would depend on where the scheduler
#: put it.  Single-threaded work is therefore spread evenly over all
#: CPUs with :func:`pin`, and every run samples each of them.
CPUS = sorted(os.sched_getaffinity(0))


def pin(k: int) -> None:
    """Run the calling process on the ``k``-th CPU (modulo the count)."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def pin_pid(pid: int, k: int) -> None:
    """Run every thread of process ``pid`` on the ``k``-th CPU."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {CPUS[k % len(CPUS)]})
        except ProcessLookupError:
            pass  # a thread that just ended


def new_workdir(workload: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))


def environment() -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]).

    Interpolated rather than nearest-rank (``repro.serve.loadgen``'s
    form), so a percentile over a few samples moves smoothly between
    runs instead of jumping from one sample to the next.
    """
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def self_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process we spawned."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


# -- processes -----------------------------------------------------------


class Procs:
    """Every process a run spawns; :meth:`close` stops and reaps them."""

    def __init__(self) -> None:
        self.live: list[subprocess.Popen] = []
        self.extra_pids: set[int] = set()

    def spawn(self, argv: list[str], cwd: Path, **kw) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), text=True, **kw
        )
        self.live.append(proc)
        return proc

    def adopt(self, pid: int) -> None:
        """Track a grandchild (a router's backend) for emergency cleanup."""
        self.extra_pids.add(pid)

    def terminate(self, proc: subprocess.Popen, timeout_s: float) -> int:
        """SIGTERM and wait; SIGKILL if it does not exit in time."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self.live:
            self.live.remove(proc)
        return code

    def close(self) -> None:
        for proc in list(self.live):
            self.terminate(proc, timeout_s=5.0)
        for pid in self.extra_pids:
            if pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        wait_gone(self.extra_pids)
        self.extra_pids.clear()


def wait_gone(pids, timeout_s: float = 5.0) -> list[int]:
    """Pids still alive after ``timeout_s`` (orphans)."""
    deadline = time.monotonic() + timeout_s
    left = [p for p in pids if pid_alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if pid_alive(p)]
    return left


def wait_listening(proc: subprocess.Popen, log: Path, timeout_s: float) -> int:
    """Port from a server's ``... listening on HOST:PORT`` log banner."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for line in log.read_text().splitlines():
            if "listening on " in line:
                return int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        if proc.poll() is not None:
            raise RuntimeError(f"{log.name}: exited {proc.returncode} before listening")
        time.sleep(0.005)
    raise RuntimeError(f"{log.name}: not listening after {timeout_s}s")


def read_banner(proc: subprocess.Popen, marker: str, timeout_s: float) -> str:
    """Block until ``proc`` prints a stdout line containing ``marker``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"process exited (code {proc.wait()}) before {marker!r}"
            )
        if marker in line:
            return line
    raise RuntimeError(f"no {marker!r} within {timeout_s}s")


# -- output --------------------------------------------------------------


class Checks:
    """Correctness checks: each failure is one failed operation."""

    def __init__(self) -> None:
        self.made = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.made += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", flush=True)
        return ok


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def emit(
    workload: str,
    trace: bool,
    attempted: int,
    failed: int,
    checks: Checks,
    values: dict[str, float],
    report: dict,
) -> int:
    """Print the human summary and the final JSON line; returns exit code.

    ``attempted``/``failed`` count the workload's operations; every
    correctness check made is added as one more operation.  ``correct``
    is false when a check failed; the exit code is 0 only when nothing
    failed at all (the workloads are chosen so that no operation fails).
    """
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        # A layer this workload does not exercise reads 0; a metric the
        # workload should measure but did not is an error, never a 0.
        with open(Path(__file__).with_name("layers.json")) as fh:
            for name, layer in json.load(fh)["metrics"].items():
                if workload not in layer["measured_on"]:
                    values.setdefault(name, 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{workload}: no value for {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    attempted += checks.made
    failed += len(checks.failures)
    correct = not checks.failures
    report = dict(
        report,
        workload=workload,
        trace=trace,
        env=environment(),
        attempted=attempted,
        failed=failed,
        check_failures=checks.failures,
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    name = f"report-{workload}{'-trace' if trace else ''}.json"
    (OUT / name).write_text(json.dumps(report, indent=2, default=float))
    env = report["env"]
    print(
        f"# {workload} trace={int(trace)} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']}"
    )
    for key, val in report.get("named", {}).items():
        print(f"  {key:<40} {val['value']:>14.4f} {val['unit']}")
    for key, val in metrics.items():
        print(f"  {key:<40} {val['value']:>14.6g} {val['unit']}")
    print(f"  attempted={attempted} failed={failed} correct={correct}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct and failed == 0 else 1

