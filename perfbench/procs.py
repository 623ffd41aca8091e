"""Process plumbing shared by the runner and the service workload.

Standard library only: ``run.py`` imports this before it knows whether
the checkout holds the program at all.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
#: Everything a run writes lives here (ignored by git).
STATE_DIR = Path(".bench_build") / "perfbench"


def pinned_env() -> dict:
    """The environment every benchmark process runs with.

    The disk memo is switched off (``REPRO_MEMO_DIR`` removed) so exact
    solves are cold, and the compiled-kernel cache points at a directory
    the runner warms before any timed run, so no set-up includes a
    compile.  Bytecode caching is always on, so set-up never includes
    compiling the library's Python either, whatever the caller's
    environment says.
    """
    env = dict(os.environ)
    env.pop("REPRO_MEMO_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["REPRO_KERNEL_CACHE"] = str(STATE_DIR / "kernels")
    env["TMPDIR"] = str(STATE_DIR / "tmp")
    env["PYTHONPATH"] = "src"
    # Fixed string hashing: set and dict layouts, and so timings, repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def serve_command(root: Path, socket_path: Path,
                  spans_out: Optional[Path] = None) -> List[str]:
    """``repro serve`` with one worker on a unix socket; with ``spans_out``
    the daemon runs under the benchmark's tracer."""
    args = ["serve", "--root", str(root), "--workers", "1",
            "--socket", str(socket_path)]
    if spans_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(Path("perfbench") / "serve_traced.py"),
            str(spans_out), *args]


def start_daemon(command: List[str]) -> subprocess.Popen:
    return subprocess.Popen(
        command,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def wait_for_endpoint(daemon: subprocess.Popen, root: Path,
                      timeout: float = 60.0) -> None:
    """Block until ``endpoint.json`` under ``root`` names ``daemon``'s pid."""
    endpoint = root / "endpoint.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if json.loads(endpoint.read_text()).get("pid") == daemon.pid:
                return
        except (FileNotFoundError, ValueError):
            pass
        if daemon.poll() is not None:
            raise RuntimeError(
                f"daemon exited with {daemon.returncode} before serving: "
                f"{daemon.stderr.read().decode(errors='replace')[-2000:]}"
            )
        time.sleep(0.001)
    raise RuntimeError(f"daemon did not publish {endpoint} in {timeout}s")


def wait_until_serving(daemon: subprocess.Popen, socket_path: Path,
                       timeout: float = 60.0) -> None:
    """Block until the daemon answers ``GET /healthz`` on its socket.

    ``repro serve`` publishes ``endpoint.json`` before it installs its
    draining SIGTERM handler and starts answering; a SIGTERM sent in
    between exits with 143 and leaves the endpoint file and socket
    behind.  An answer means the handler is in place.
    """
    request = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(timeout)
                conn.connect(str(socket_path))
                conn.sendall(request)
                if conn.recv(64).split(b" ", 2)[1:2] == [b"200"]:
                    return
        except OSError:
            pass
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited with {daemon.returncode}")
        time.sleep(0.001)
    raise RuntimeError(f"daemon did not answer on {socket_path} in {timeout}s")


def stop_daemon(daemon: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM (the daemon drains and cleans up), then wait; SIGKILL it
    if it does not exit in time."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
    try:
        daemon.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()
    if daemon.stderr is not None:
        daemon.stderr.close()
    return daemon.returncode


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
