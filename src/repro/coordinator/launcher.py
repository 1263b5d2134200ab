"""Launching shard (and coordinator) subprocesses from a checkpoint snapshot.

The deployment unit of the sharded story is a plain ``python -m
repro.server --shard Pk`` process per partition plus one ``python -m
repro.coordinator`` front end.  This module wraps the subprocess plumbing —
spawn, wait for the ``listening on <url>`` boot line, terminate — so the
example (``examples/run_sharded_cluster.py``), the throughput benchmark and
the oracle tests all drive *real* processes through one code path.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.coordinator.topology import REPLICA_SEPARATOR
from repro.errors import ShardError

__all__ = ["ManagedProcess", "launch_shard", "launch_shards", "launch_coordinator",
           "launch_replica_fleet", "shutdown_processes"]

#: Marker line both server CLIs print once their socket is accepting.
_READY_PREFIX = "listening on "


@dataclass
class ManagedProcess:
    """One launched server process and the URL it bound.

    ``boot_lines`` keeps everything the process printed before the ready
    marker (partition info, recovery summary) for diagnostics.
    """

    process: subprocess.Popen
    url: str
    role: str
    partition_id: Optional[str] = None
    boot_lines: List[str] = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self, *, timeout: float = 15.0) -> int:
        """SIGTERM (graceful: the servers drain and close), then wait.

        A process that ignores SIGTERM — wedged in a handler, blocked on a
        dead socket — is SIGKILLed after ``timeout`` seconds, so teardown
        always reclaims the process instead of hanging a chaos run forever.
        """
        if self.alive:
            self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        return self.process.returncode

    def kill(self) -> None:
        """SIGKILL — the shard-failure tests use this to simulate a crash."""
        if self.alive:
            self.process.kill()
            self.process.wait()


def _spawn(arguments: Sequence[str], *, role: str,
           partition_id: Optional[str] = None,
           startup_timeout: float = 60.0,
           python: Optional[str] = None,
           env: Optional[Dict[str, str]] = None) -> ManagedProcess:
    command = [python or sys.executable, *arguments]
    # env=None inherits the parent environment (how $REPRO_FAULTS set by a
    # chaos run reaches every child); an explicit mapping replaces it.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, bufsize=1, env=env,
    )
    boot_lines: List[str] = []
    deadline = time.monotonic() + startup_timeout
    assert process.stdout is not None
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise ShardError(
                f"{role} process did not print {_READY_PREFIX!r} within "
                f"{startup_timeout}s; output so far: {boot_lines}"
            )
        line = process.stdout.readline()
        if not line:
            process.wait()
            raise ShardError(
                f"{role} process exited with code {process.returncode} before "
                f"binding; output: {boot_lines}"
            )
        line = line.strip()
        boot_lines.append(line)
        if line.startswith(_READY_PREFIX):
            url = line[len(_READY_PREFIX):].strip()
            return ManagedProcess(process=process, url=url, role=role,
                                  partition_id=partition_id, boot_lines=boot_lines)


def launch_shard(snapshot: str | pathlib.Path, partition_id: str, *,
                 host: str = "127.0.0.1", port: int = 0,
                 startup_timeout: float = 60.0,
                 python: Optional[str] = None,
                 env: Optional[Dict[str, str]] = None) -> ManagedProcess:
    """Launch ``python -m repro.server --shard <partition_id>`` and wait for it."""
    return _spawn(
        ["-m", "repro.server", "--snapshot", str(snapshot), "--shard", partition_id,
         "--host", host, "--port", str(port), "--quiet"],
        role=f"shard {partition_id}", partition_id=partition_id,
        startup_timeout=startup_timeout, python=python, env=env,
    )


def launch_shards(snapshot: str | pathlib.Path, partition_ids: Sequence[str], *,
                  host: str = "127.0.0.1",
                  startup_timeout: float = 60.0,
                  python: Optional[str] = None,
                  env: Optional[Dict[str, str]] = None) -> List[ManagedProcess]:
    """Launch one shard process per partition (ephemeral ports), in order.

    On any boot failure the already-launched shards are terminated before
    the error propagates, so a failed launch never leaks processes.
    """
    launched: List[ManagedProcess] = []
    try:
        for partition_id in partition_ids:
            launched.append(launch_shard(
                snapshot, partition_id, host=host,
                startup_timeout=startup_timeout, python=python, env=env,
            ))
    except Exception:
        shutdown_processes(launched)
        raise
    return launched


def launch_replica_fleet(snapshot: str | pathlib.Path,
                         partition_ids: Sequence[str], *,
                         replicas: int = 2,
                         host: str = "127.0.0.1",
                         startup_timeout: float = 60.0,
                         python: Optional[str] = None,
                         env: Optional[Dict[str, str]] = None,
                         ) -> Dict[str, List[ManagedProcess]]:
    """Launch ``replicas`` shard processes per partition, for failover runs.

    Every replica of a partition serves the identical subtree from the
    same snapshot — which is exactly why failover keeps answers exact.
    Returns ``{partition_id: [replica processes]}``; any boot failure
    tears down everything already launched.
    """
    if replicas < 1:
        raise ShardError(f"replicas must be >= 1, got {replicas}")
    fleet: Dict[str, List[ManagedProcess]] = {pid: [] for pid in partition_ids}
    try:
        for partition_id in partition_ids:
            for _ in range(replicas):
                fleet[partition_id].append(launch_shard(
                    snapshot, partition_id, host=host,
                    startup_timeout=startup_timeout, python=python, env=env,
                ))
    except Exception:
        shutdown_processes([m for group in fleet.values() for m in group])
        raise
    return fleet


def _shard_argument(shards: Dict[str, Union[str, Sequence[str]]]) -> str:
    """The ``--shards`` inline form, replica groups joined with ``|``."""
    entries = []
    for partition_id, urls in sorted(shards.items()):
        if isinstance(urls, str):
            urls = [urls]
        entries.append(f"{partition_id}={REPLICA_SEPARATOR.join(urls)}")
    return ",".join(entries)


def launch_coordinator(snapshot: str | pathlib.Path,
                       shards: Dict[str, Union[str, Sequence[str]]], *,
                       host: str = "127.0.0.1", port: int = 0,
                       workers: int = 4,
                       startup_timeout: float = 120.0,
                       python: Optional[str] = None,
                       env: Optional[Dict[str, str]] = None,
                       extra_args: Sequence[str] = ()) -> ManagedProcess:
    """Launch ``python -m repro.coordinator`` over already-running shards.

    ``shards`` maps each partition to its URL — or to a *sequence* of
    replica URLs, rendered in the ``P0=http://a|http://b`` inline form.
    ``extra_args`` appends raw CLI flags (failover tuning, admission
    control, ``--faults``) without this wrapper growing a mirror of the
    whole coordinator argument surface.
    """
    return _spawn(
        ["-m", "repro.coordinator", "--snapshot", str(snapshot),
         "--shards", _shard_argument(shards), "--host", host, "--port", str(port),
         "--workers", str(workers), "--quiet", *extra_args],
        role="coordinator", startup_timeout=startup_timeout, python=python, env=env,
    )


def shutdown_processes(processes: Sequence[ManagedProcess]) -> None:
    """Terminate a fleet, coordinator-first-agnostic, ignoring the dead."""
    for managed in processes:
        try:
            managed.terminate()
        except Exception:  # pragma: no cover - best-effort teardown
            managed.kill()
