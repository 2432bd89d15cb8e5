"""Life cycle of the ``popqc serve`` child the served workloads talk to."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from typing import Iterator

BANNER = "popqc serve listening on "
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0


class Daemon:
    """Handle on one running daemon: its address and start-up time."""

    def __init__(self, proc: subprocess.Popen, address: str, start_s: float):
        self.proc = proc
        self.address = address
        self.start_s = start_s


def _read_banner(proc: subprocess.Popen) -> str:
    """The bound ``host:port`` from the daemon's first stdout line.

    ``readline`` runs on a helper thread so a daemon that never prints
    costs :data:`START_TIMEOUT_S`, not a hang.
    """
    box: list[str] = []
    reader = threading.Thread(
        target=lambda: box.append(proc.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(START_TIMEOUT_S)
    line = box[0] if box else ""
    if not line.startswith(BANNER):
        raise RuntimeError(f"popqc serve did not announce its port (got {line!r})")
    return line[len(BANNER):].strip()


def stop(proc: subprocess.Popen) -> None:
    """Terminate, then kill, and wait until the process has ended."""
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.communicate(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


@contextlib.contextmanager
def serve(workers: int) -> Iterator[Daemon]:
    """Run ``python -m repro.cli serve`` on an ephemeral port for the body."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--bind", "127.0.0.1:0", "--workers", str(workers),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=dict(os.environ),
    )
    try:
        address = _read_banner(proc)
        yield Daemon(proc, address, time.perf_counter() - started)
    finally:
        stop(proc)
