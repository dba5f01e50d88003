"""Shared pieces of the benchmark: paths, server processes, /proc
readings, statistics and the run environment record."""

from __future__ import annotations

import bisect
import compileall
import gc
import json
import os
import resource
import select
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root: ``perfbench/`` lives directly under it
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACEHOOK = os.path.join(ROOT, "perfbench", "tracehook")
#: per-run working files (databases, span files); removed when the run ends
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, server that
    never came up); the run prints no result."""


def require_program() -> None:
    """Fail before measuring anything when the checkout lacks the
    program: the benchmark builds and runs it from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # byte-compile up front so that no launch timed by setup_s pays for
    # compiling the program (the first run in a fresh checkout would)
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    if TRACEHOOK not in sys.path:
        sys.path.insert(0, TRACEHOOK)


def fresh_run_dir(workload: str) -> str:
    path = os.path.join(RUNS_DIR, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env(trace_dir: Optional[str] = None) -> Dict[str, str]:
    """Environment of server subprocesses: the program on the path and,
    in traced runs, the span recorder's ``sitecustomize`` with it."""
    env = dict(os.environ)
    paths = [SRC]
    if trace_dir is not None:
        paths.append(TRACEHOOK)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in ("WOLVES_FAULTS", "WOLVES_KERNEL", "WOLVES_NO_FTS",
                 "WOLVES_DB_TIMEOUT_MS"):
        env.pop(name, None)
    return env


# -- server processes ---------------------------------------------------------


class ServerProcess:
    """A ``wolves`` server subprocess that prints one ready line."""

    def __init__(self, args: Sequence[str], ready_prefix: str,
                 trace_dir: Optional[str] = None) -> None:
        self.ready_prefix = ready_prefix
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.system.cli", *args],
            env=child_env(trace_dir), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        self.output: List[str] = []
        self._drain: Optional[threading.Thread] = None

    def wait_ready(self, timeout_s: float = 60.0) -> str:
        """The ready line; stdout keeps draining in a thread after it."""
        fd = self.proc.stdout.fileno()
        buffer = b""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            readable, _, _ = select.select([fd], [], [], 0.05)
            if not readable:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                raw, buffer = buffer.split(b"\n", 1)
                line = raw.decode("utf-8", "replace").strip()
                self.output.append(line)
                if line.startswith(self.ready_prefix):
                    self._drain = threading.Thread(
                        target=self._drain_output, daemon=True)
                    self._drain.start()
                    return line
        self.stop()
        raise BenchError(f"server never became ready: {self.output[-5:]}")

    def _drain_output(self) -> None:
        for raw in self.proc.stdout:
            self.output.append(raw.decode("utf-8", "replace").rstrip())

    def pids(self) -> List[int]:
        """This process and every live descendant."""
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(child_pids(pid))
        return found

    def stop(self) -> None:
        """SIGTERM (the servers drain and exit cleanly, which is when a
        traced server writes its spans), then reap every descendant."""
        descendants = self.pids()[1:] if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in descendants:
            deadline = time.monotonic() + 30
            while pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self._drain is not None:
            self._drain.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def child_pids(pid: int) -> List[int]:
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return children


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


# -- /proc readings -----------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User plus system CPU of ``pid`` (all its threads), in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state): utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def total_cpu_seconds(pids: Iterable[int]) -> float:
    return sum(cpu_seconds(pid) for pid in pids)


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def dir_bytes(path: str) -> int:
    """Bytes of every SQLite file under ``path`` (``-wal``/``-shm``
    included)."""
    total = 0
    for name in os.listdir(path):
        if ".db" in name:
            try:
                total += os.path.getsize(os.path.join(path, name))
            except OSError:
                pass
    return total


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: the timed window is cut into this many equal slices, and consecutive
#: slices are merged until each holds ``MIN_SLICE_OPS`` ops; the
#: throughput, latency and CPU metrics are medians over the merged
#: slices, so that a few seconds in which other tenants of the host take
#: the CPUs move one slice rather than the whole run
SLICES = 20
#: so that at least 10 latencies of every slice lie beyond its p90
MIN_SLICE_OPS = 100


# -- host speed ---------------------------------------------------------------

#: CPU time of :func:`_probe_work` at the reference speed: about what
#: it takes on a 2.0 GHz Xeon vCPU that is not slowed by other tenants
REFERENCE_PROBE_NS = 280_000


def _probe_work() -> int:
    total, table = 0, {}
    for i in range(2000):
        total += i * i % 7
        table[i & 63] = total
    return total


class SpeedProbe:
    """How slow the host's CPUs run right now, from the CPU time of a
    fixed piece of Python work.

    On a shared virtual machine a CPU can do the same work at two
    thirds of the speed for a while, with no steal time shown
    (presumably other tenants loading the physical cores).  Each :meth:`sample` runs the work once on
    the next CPU this process may use, in turn, so that the mean of a
    slice's samples is the mean slowness of every CPU over that slice
    (the servers run on any of them)."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._turn = 0
        #: the slowness of every sample taken
        self.history: List[float] = []

    def sample(self) -> Tuple[float, int, int]:
        """``(slowness, wall_ns, cpu_ns)`` of one run of the work;
        slowness is its CPU time over :data:`REFERENCE_PROBE_NS`."""
        cpu = self.cpus[self._turn % len(self.cpus)]
        self._turn += 1
        started, cpu0 = time.perf_counter_ns(), time.thread_time_ns()
        try:
            os.sched_setaffinity(0, {cpu})
            pinned = True
        except OSError:
            pinned = False
        work0 = time.thread_time_ns()
        _probe_work()
        work_ns = time.thread_time_ns() - work0
        if pinned:
            os.sched_setaffinity(0, self.cpus)
        slowness = work_ns / REFERENCE_PROBE_NS
        self.history.append(slowness)
        return (slowness, time.perf_counter_ns() - started,
                time.thread_time_ns() - cpu0)

    def mean_slowness(self) -> float:
        """Mean slowness over every sample taken so far."""
        return sum(self.history) / len(self.history)


#: a Python launch that imports a fixed set of standard-library modules
#: and nothing of the program; the probe of how slowly processes start
REFERENCE_LAUNCH = [sys.executable, "-I", "-c",
                    "import argparse, asyncio, concurrent.futures, "
                    "dataclasses, decimal, email.parser, http.client, json, "
                    "sqlite3, typing, unittest, xml.dom.minidom"]
#: its CPU time (user + system) at the reference speed
REFERENCE_LAUNCH_CPU_S = 0.16


def launch_slowness() -> float:
    """CPU time of one :data:`REFERENCE_LAUNCH` over its reference.

    Starting a process (exec, unmarshalling and running module code)
    slows on a busy host by other factors than the tight loop of
    :class:`SpeedProbe` does; a launch of the same kind, which runs no
    code of the program, follows the set-ups far more closely."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(REFERENCE_LAUNCH, check=True, cwd=ROOT,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime + after.ru_stime
            - before.ru_stime) / REFERENCE_LAUNCH_CPU_S


def reference_scale(seconds: float, cpu_s: float, slowness: float) -> float:
    """The factor that takes a wall time measured at ``slowness`` to
    the reference speed.  The CPU share of the time, ``cpu_s /
    seconds`` (at most 1), shrinks by ``slowness``; the rest is waiting
    (timers, the network stack, disk) and stays as measured."""
    share = min(1.0, cpu_s / seconds) if seconds > 0 else 1.0
    return 1.0 - share + share / slowness


class Slice:
    """Ops completed in one slice of the timed window, and the speed
    probes taken between them."""

    __slots__ = ("seconds", "cpu_s", "attempted", "latencies_ms",
                 "slowness")

    def __init__(self, seconds: float, cpu_s: float) -> None:
        self.seconds = seconds
        self.cpu_s = cpu_s
        self.attempted = 0
        self.latencies_ms: List[float] = []
        self.slowness: List[float] = []


class CpuSampler:
    """Reads ``read()`` (CPU seconds) at the start, at every slice
    boundary of a window of ``seconds``, and at :meth:`finish`, from a
    thread of its own."""

    def __init__(self, read, seconds: float) -> None:
        self.read = read
        self.samples = [(time.perf_counter_ns(), read())]
        self.start_ns = self.samples[0][0]
        self._slice_ns = int(seconds * 1e9 / SLICES)
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        for i in range(1, SLICES):
            delay = (self.start_ns + i * self._slice_ns
                     - time.perf_counter_ns()) * 1e-9
            if self._done.wait(max(0.0, delay)):
                return
            self.samples.append((time.perf_counter_ns(), self.read()))

    def finish(self) -> None:
        self._done.set()
        self._thread.join()
        self.samples.append((time.perf_counter_ns(), self.read()))

    def slices(self, ends_ns: Sequence[int],
               latencies_ms: Sequence[Optional[float]],
               probes: Sequence[Tuple[int, float, int, int]]
               ) -> List[Slice]:
        """The ops (end time; latency or ``None`` when it failed) in
        the slices between the samples; the last slice takes the ops
        that end after it too.  ``probes`` are ``(end_ns, slowness,
        wall_ns, cpu_ns)`` of the speed probes run between the ops:
        their wall and CPU time leave the slice they ran in."""
        bounds = [t for t, _cpu in self.samples]
        slices = [Slice((t1 - t0) * 1e-9, c1 - c0) for (t0, c0), (t1, c1)
                  in zip(self.samples, self.samples[1:])]

        def slice_of(t: int) -> Slice:
            return slices[min(max(bisect.bisect_right(bounds, t) - 1, 0),
                              len(slices) - 1)]
        for end, latency in zip(ends_ns, latencies_ms):
            part = slice_of(end)
            part.attempted += 1
            if latency is not None:
                part.latencies_ms.append(latency)
        for end, slowness, wall_ns, cpu_ns in probes:
            part = slice_of(end)
            part.slowness.append(slowness)
            part.seconds -= wall_ns * 1e-9
            part.cpu_s -= cpu_ns * 1e-9
        return slices


def slice_metrics(slices: Sequence[Slice]) -> Dict[str, float]:
    """``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``cpu_ms_per_op``
    of each merged slice at the reference speed (see
    :func:`reference_scale`), medians over the merged slices.
    ``ops_per_s`` counts the completed ops; ``cpu_ms_per_op`` divides
    by every attempted op."""
    merged: List[Slice] = []
    for part in slices:
        if not merged or merged[-1].attempted >= MIN_SLICE_OPS:
            merged.append(Slice(0.0, 0.0))
        _absorb(merged[-1], part)
    if len(merged) > 1 and merged[-1].attempted < MIN_SLICE_OPS:
        _absorb(merged[-2], merged.pop())
    rows = []
    for s in merged:
        slowness = (sum(s.slowness) / len(s.slowness)) if s.slowness \
            else 1.0
        scale = reference_scale(s.seconds, s.cpu_s, slowness)
        rows.append({
            "ops_per_s": len(s.latencies_ms) / (s.seconds * scale),
            "op_p50_ms": percentile(s.latencies_ms or [0.0], 50) * scale,
            "op_p90_ms": percentile(s.latencies_ms or [0.0], 90) * scale,
            "cpu_ms_per_op":
            s.cpu_s * 1e3 / max(1, s.attempted) / slowness})
    return {name: median([row[name] for row in rows]) for name in rows[0]}


def _absorb(group: Slice, part: Slice) -> None:
    group.seconds += part.seconds
    group.cpu_s += part.cpu_s
    group.attempted += part.attempted
    group.latencies_ms.extend(part.latencies_ms)
    group.slowness.extend(part.slowness)


def quiesce() -> None:
    """Start a timed window from a collected heap."""
    gc.collect()


# -- environment record -------------------------------------------------------


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (``/proc/mounts``,
    longest matching mount point)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")
                        or mount == "/") and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def environment(db_dir: str) -> Dict[str, object]:
    """Everything outside the benchmark that changes its numbers."""
    from repro.graphs import kernels

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE VIRTUAL TABLE probe USING fts5(body)")
        fts5 = True
    except sqlite3.OperationalError:
        fts5 = False
    finally:
        conn.close()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "kernel": kernels.active_kernel().name,
        "kernel_source": kernels.selection_source(),
        "sqlite": sqlite3.sqlite_version,
        "fts5": fts5,
        "db_fs": filesystem_of(db_dir),
        "flush_policy": "journal_mode=WAL, synchronous=NORMAL "
                        "(the program's own pragmas)",
    }


def emit(result: Dict[str, object], env: Dict[str, object]) -> None:
    """The environment line, a human-readable metric table, then the
    result object as the last line of standard output."""
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result), flush=True)
