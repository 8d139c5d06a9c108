"""Command lines for a fleet scan's coordinator and worker processes.

``repro fleet-scan``, the chaos drill and the fleet benchmark all start
``fleet-coordinator`` (primary or warm standby) and ``fleet-worker``
subprocesses.  :class:`RoleLauncher` holds one scan's flags and builds
every one of those argument lists, so a standby gets each scan flag of
its primary — cache URLs included — wherever it is started.
"""

from __future__ import annotations

import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence


@dataclass
class RoleLauncher:
    """The flags one fleet scan hands its coordinators and workers."""

    model: Path
    layout: Path
    layer: int = 1
    lease_ttl_s: float = 5.0
    shard_side: Optional[int] = None
    cache_urls: Sequence[str] = ()
    host: str = "127.0.0.1"

    def coordinator(
        self,
        port: int,
        journal_dir: Optional[Path] = None,
        standby_of: Optional[str] = None,
        probe_interval_s: float = 0.5,
        trace: Optional[Path] = None,
    ) -> list[str]:
        """``fleet-coordinator`` arguments: the primary, or with
        ``standby_of`` a warm standby tailing that primary."""
        args = [
            "fleet-coordinator",
            "--model", str(self.model),
            "--layout", str(self.layout),
            "--layer", str(self.layer),
            "--host", self.host,
            "--port", str(port),
            "--lease-ttl", str(self.lease_ttl_s),
        ]
        if self.shard_side is not None:
            args += ["--shard-side", str(self.shard_side)]
        for url in self.cache_urls:
            args += ["--cache-url", url]
        if journal_dir is not None:
            args += ["--journal-dir", str(journal_dir)]
        if standby_of is not None:
            args += [
                "--standby-of", standby_of,
                "--probe-interval", str(probe_interval_s),
            ]
        if trace is not None:
            args += ["--trace", str(trace)]
        return args

    def worker(self, endpoints: Sequence[str], worker_id: str) -> list[str]:
        """``fleet-worker`` arguments; ``endpoints`` lists the primary
        first, then any standby."""
        return [
            "fleet-worker",
            "--url", ",".join(endpoints),
            "--model", str(self.model),
            "--layout", str(self.layout),
            "--worker-id", worker_id,
        ]


def spawn(args: Sequence[str], **popen) -> subprocess.Popen:
    """Start ``python -m repro <args>``; ``popen`` goes to ``Popen``."""
    return subprocess.Popen([sys.executable, "-m", "repro", *args], **popen)


def _probe_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def free_port(handed_out: set[int]) -> int:
    """A port the OS calls free now and not in ``handed_out``; adds it.

    The probe closes its socket before a role binds the port, so the OS
    may offer a port it offered before; a caller starting several roles
    passes one set so each port is handed out once.
    """
    port = _probe_port()
    while port in handed_out:
        port = _probe_port()
    handed_out.add(port)
    return port
