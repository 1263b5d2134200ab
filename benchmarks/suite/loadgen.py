"""Load generation and process control.

Every server the suite measures is a subprocess with CLI defaults on an
ephemeral port, so the load generator never shares an interpreter lock with
the program under test.  Windows are duration based: a warm-up that is
discarded, then a measured interval; only requests that start and finish
inside the interval count.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.coordinator.launcher import ManagedProcess
from repro.errors import ServerError
from repro.obs.prometheus import parse_exposition
from repro.workloads import ServerClient

from . import stats
from .corpora import Request

__all__ = ["ProcessGroup", "Window", "run_http_window", "run_inprocess_window",
           "peak_rss_mb", "reset_own_peak_rss", "scrape", "delta", "bucket_deltas", "cpu_split",
           "WORK_DIRECTORY"]

#: Snapshots, WALs and server logs live here while a run is in flight; the
#: directory is inside the checkout because the benchmark may write nowhere else.
WORK_DIRECTORY = pathlib.Path(__file__).resolve().parent / ".work"

_READY_PREFIX = "listening on "
_BOOT_TIMEOUT = 60.0


def cpu_split() -> Tuple[List[int], List[int]]:
    """``(server CPUs, load-generator CPUs)`` out of the CPUs this process may use.

    Servers are confined to the first CPU and the load generator to the rest.
    A GIL-bound server whose threads migrate between two virtual CPUs ran a
    quarter slower and twice as noisy on the reference box; keeping the
    generator off the server's CPU also keeps it out of the measurement.
    With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[:1], cpus[1:]


def _server_environment() -> Dict[str, str]:
    source = str(pathlib.Path(repro.__file__).resolve().parents[1])
    environment = dict(os.environ)
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = source + (os.pathsep + inherited if inherited else "")
    return environment


class ProcessGroup:
    """A scratch directory plus the subprocesses started in it.

    Leaving the ``with`` block — normally, on an exception or on Ctrl-C —
    stops every process (SIGTERM, then SIGKILL after a grace period), waits
    for each to end and removes the directory.
    """

    def __init__(self, server_cpus: Optional[Sequence[int]] = None) -> None:
        WORK_DIRECTORY.mkdir(exist_ok=True)
        self.server_cpus = list(server_cpus) if server_cpus else None
        self.directory = pathlib.Path(tempfile.mkdtemp(dir=WORK_DIRECTORY))
        self.processes: List[ManagedProcess] = []
        #: The exact command line of every process started, for the result file.
        self.commands: List[List[str]] = []

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def start(self, module: str, arguments: Sequence[str]) -> subprocess.Popen:
        """Start ``python -m module arguments`` without waiting for it to bind."""
        command = [sys.executable, "-m", module, *arguments]
        self.commands.append(command)
        log = open(self.directory / f"stderr-{len(self.commands)}.log", "wb")
        try:
            process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                                       text=True, bufsize=1, env=_server_environment())
        finally:
            log.close()  # the child holds its own descriptor
        if self.server_cpus:
            # set before the interpreter has started a thread: all inherit it
            os.sched_setaffinity(process.pid, self.server_cpus)
        return process

    def wait_ready(self, process: subprocess.Popen, role: str,
                   partition_id: Optional[str] = None) -> ManagedProcess:
        """Block until the process prints its ``listening on <url>`` line."""
        managed = ManagedProcess(process=process, url="", role=role,
                                 partition_id=partition_id)
        self.processes.append(managed)  # owned from here on, ready or not
        deadline = time.monotonic() + _BOOT_TIMEOUT
        assert process.stdout is not None
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                process.wait()
                raise RuntimeError(f"{role} exited with code {process.returncode} "
                                   f"before binding: {managed.boot_lines}")
            managed.boot_lines.append(line.strip())
            if line.startswith(_READY_PREFIX):
                managed.url = line[len(_READY_PREFIX):].strip()
                return managed
        raise RuntimeError(f"{role} did not bind within {_BOOT_TIMEOUT}s: "
                           f"{managed.boot_lines}")

    def spawn(self, module: str, arguments: Sequence[str], role: str) -> ManagedProcess:
        return self.wait_ready(self.start(module, arguments), role)

    def stop(self, managed: ManagedProcess, *, kill: bool = False) -> None:
        """Stop one process now (``kill`` = SIGKILL, simulating a crash)."""
        if kill:
            managed.kill()
        else:
            managed.terminate()
        if managed.process.stdout is not None:
            managed.process.stdout.close()
        self.processes.remove(managed)

    def stop_all(self) -> None:
        for managed in self.processes:
            if managed.alive:
                managed.process.terminate()  # all drain at once; stop() then waits
        for managed in reversed(list(self.processes)):
            self.stop(managed)

    def pids(self) -> List[int]:
        return [managed.process.pid for managed in self.processes]

    def close(self) -> None:
        try:
            self.stop_all()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)
            try:
                WORK_DIRECTORY.rmdir()
            except OSError:
                pass  # another run still has its directory in there


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def reset_own_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current size.

    In-process workloads report the benchmark process's own peak; without
    this a later run in the same invocation would inherit an earlier one's.
    """
    try:
        pathlib.Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # not permitted here: the peak then covers the whole invocation


# -- measured windows ----------------------------------------------------------------------

#: A window is cut into slices of this length; rates and percentiles are
#: computed per slice and the median slice is reported, so an interference
#: burst shorter than half the window does not move a metric.
SLICE_SECONDS = 1.0


@dataclass
class Window:
    """What one measured window observed, per operation type.

    Warm-up is a fixed number of requests, not a duration: every run then
    opens its window from the same cache state however fast the box was.
    """

    seconds: float
    opens: float = 0.0
    #: Per operation type: (completion time, latency) of every successful request.
    samples: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    #: (request, response body) pairs kept for the oracle; never decoded in the loop.
    kept: List[Tuple[Request, bytes]] = field(default_factory=list)
    #: Every insert the server acknowledged, warm-up included: (request, WAL seq).
    acknowledged: List[Tuple[Request, int]] = field(default_factory=list)
    #: True when a client ran out of pre-generated requests before the window closed.
    exhausted: bool = False
    #: Response body bytes of the successful in-window requests.
    body_bytes: int = 0

    def note(self, op: str, ended: float, latency: Optional[float]) -> None:
        self.attempted[op] = self.attempted.get(op, 0) + 1
        if latency is None:
            self.failed[op] = self.failed.get(op, 0) + 1
        else:
            self.samples.setdefault(op, []).append((ended, latency))

    def merge(self, other: "Window") -> None:
        for op, values in other.samples.items():
            self.samples.setdefault(op, []).extend(values)
        for op, count in other.attempted.items():
            self.attempted[op] = self.attempted.get(op, 0) + count
        for op, count in other.failed.items():
            self.failed[op] = self.failed.get(op, 0) + count
        self.kept.extend(other.kept)
        self.acknowledged.extend(other.acknowledged)
        self.exhausted = self.exhausted or other.exhausted
        self.body_bytes += other.body_bytes

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def latencies(self, op: str) -> List[float]:
        return [latency for _, latency in self.samples.get(op, [])]

    def slices(self, *ops: str) -> List[List[float]]:
        """Latencies of the given operation types (all when none given), per slice."""
        count = max(1, round(self.seconds / SLICE_SECONDS))
        length = self.seconds / count
        cut: List[List[float]] = [[] for _ in range(count)]
        for op in ops or tuple(self.samples):
            for ended, latency in self.samples.get(op, []):
                cut[min(int((ended - self.opens) / length), count - 1)].append(latency)
        return cut

    def rate(self, *ops: str) -> float:
        """Completions per second of the median slice."""
        cut = self.slices(*ops)
        return statistics.median(len(part) for part in cut) / (self.seconds / len(cut))

    def quantile(self, op: str, q: float) -> float:
        """The ``q`` quantile of the median slice (slices without samples skipped)."""
        values = [stats.percentile(sorted(part), q) for part in self.slices(op) if part]
        return statistics.median(values) if values else 0.0


def _response_ok(request: Request, raw: bytes) -> bool:
    # A query that failed inside the engine still answers 200 with the error
    # in the body; a substring test sees it without decoding the JSON.
    if request.op == "insert":
        return b'"seq"' in raw
    return b'"error": null' in raw and b'"timed_out": false' in raw


def run_http_window(url: str, streams: Sequence[Sequence[Request]], *, warmup_requests: int,
                    seconds: float, keep_every: int = 8,
                    at_open: Optional[Callable[[], None]] = None) -> Window:
    """Closed loop: one thread and one keep-alive connection per stream.

    Each client sends its next request only after the previous reply arrived.
    Every client first sends ``warmup_requests`` requests that are not
    measured; when all are done ``at_open`` runs on the calling thread (the
    traced run scrapes the server's counters there) and the window opens.
    """
    merged = Window(seconds)
    results = [Window(seconds) for _ in streams]
    errors: List[Exception] = []
    warmed = threading.Barrier(len(streams) + 1)
    go = threading.Event()

    def send(client: ServerClient, request: Request, result: Window) -> Tuple[bytes, bool]:
        try:
            raw, _ = client.request_bytes("POST", request.path, request.data)
            ok = _response_ok(request, raw)
        except ServerError:
            raw, ok = b"", False
        if ok and request.op == "insert":
            result.acknowledged.append((request, int(json.loads(raw)["seq"])))
        return raw, ok

    def client_loop(stream: Sequence[Request], result: Window) -> None:
        client = ServerClient(url, timeout=30.0)
        try:
            for request in stream[:warmup_requests]:
                send(client, request, result)
            warmed.wait()
            go.wait()
            closes = merged.opens + seconds
            for position, request in enumerate(stream[warmup_requests:]):
                started = time.perf_counter()
                if started >= closes:
                    return
                raw, ok = send(client, request, result)
                ended = time.perf_counter()
                if ended <= closes:
                    result.note(request.op, ended, ended - started if ok else None)
                    if ok:
                        result.body_bytes += len(raw)
                        if position % keep_every == 0:
                            result.kept.append((request, raw))
            result.exhausted = True
        except Exception as error:  # noqa: BLE001 - re-raised on the main thread
            errors.append(error)
            warmed.abort()
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(stream, result),
                                name=f"suite-client-{index}")
               for index, (stream, result) in enumerate(zip(streams, results))]
    for thread in threads:
        thread.start()
    try:
        warmed.wait()
        if at_open is not None:
            at_open()
    except threading.BrokenBarrierError:
        pass  # a client failed during warm-up; its error is raised below
    finally:
        merged.opens = time.perf_counter()
        go.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    for result in results:
        merged.merge(result)
    return merged


def run_inprocess_window(calls: Sequence[Tuple[str, Callable[[Any], Any]]],
                         items: Sequence[Any], *, warmup_calls: int, seconds: float) -> Window:
    """Single-threaded closed loop, alternating the ``(op, call)`` pairs over ``items``.

    Interleaving the operation types gives each the whole window, so an
    interference burst cannot fall on one type only.
    """
    def step(position: int) -> Tuple[str, Callable[[Any], Any], Any]:
        op, call = calls[position % len(calls)]
        return op, call, items[(position // len(calls)) % len(items)]

    for position in range(warmup_calls):
        _, call, item = step(position)
        call(item)
    window = Window(seconds, opens=time.perf_counter())
    closes = window.opens + seconds
    position = warmup_calls
    while True:
        op, call, item = step(position)
        started = time.perf_counter()
        if started >= closes:
            return window
        call(item)
        ended = time.perf_counter()
        if ended <= closes:
            window.note(op, ended, ended - started)
        position += 1


# -- scraping the public metrics endpoints -------------------------------------------------

Series = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def scrape(url: str) -> Tuple[Series, Dict[str, Any]]:
    """``/v1/metrics`` in both formats: flattened Prometheus series + the JSON payload."""
    with ServerClient(url) as client:
        text = client.metrics_prometheus()
        payload = client.metrics()
    series: Series = {}
    for family in parse_exposition(text).values():
        for sample in family.samples:
            series[(sample.name, tuple(sorted(sample.labels.items())))] = sample.value
    return series, payload


def delta(before: Series, after: Series, name: str, **labels: str) -> float:
    """Growth of every series of ``name`` whose labels include ``labels``."""
    wanted = set(labels.items())
    total = 0.0
    for (series_name, series_labels), value in after.items():
        if series_name == name and wanted <= set(series_labels):
            total += value - before.get((series_name, series_labels), 0.0)
    return total


def bucket_deltas(before: Series, after: Series, family: str) -> List[Tuple[float, float]]:
    """``(upper bound, cumulative count)`` growth of one histogram, summed over labels."""
    buckets: Dict[float, float] = {}
    for (series_name, series_labels), value in after.items():
        if series_name == f"{family}_bucket":
            bound = float(dict(series_labels)["le"].replace("+Inf", "inf"))
            grown = value - before.get((series_name, series_labels), 0.0)
            buckets[bound] = buckets.get(bound, 0.0) + grown
    return sorted(buckets.items())
