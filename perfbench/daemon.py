"""Start, probe and stop a real ``cast-plan serve`` / ``cast-plan fleet``.

Each daemon runs as ``python -m repro <serve|fleet> --port 0`` with a
fresh HOME, TMPDIR and working directory under the run directory, so no
state carries over between runs.  Set-up time is measured from the
launch to the first answered ``ping`` after the daemon printed its
ready banner (for a fleet the banner comes after every shard is up).
"""

from __future__ import annotations

import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.service.protocol import encode_message, make_request, parse_response
from spans import ENV_DIR

_BANNER = re.compile(r"(?:listening on|router on) ([0-9.]+):(\d+)")
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (every thread's list)."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return out


def tree(pid: int) -> List[int]:
    """``pid`` and all its descendants."""
    out, stack = [], [pid]
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(children(p))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) summed over the process tree, in MB."""
    total_kb = 0
    for p in tree(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def ping(host: str, port: int, timeout: float = 10.0) -> None:
    """One blocking ``ping`` round trip; raises on failure."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_message(make_request("ping", req_id="setup")))
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
    if not parse_response(buf).get("ok"):
        raise RuntimeError("ping answered with an error")


class Daemon:
    """One daemon process tree.

    ``kind`` is ``"serve"`` or ``"fleet"``; ``args`` are extra CLI
    arguments.  ``hook_dir``/``span_dir`` arm the span wrappers.
    """

    def __init__(self, kind: str, src: str, workdir: str,
                 args: Optional[List[str]] = None,
                 hook_dir: Optional[str] = None,
                 span_dir: Optional[str] = None) -> None:
        self.kind = kind
        self.src = src
        self.workdir = workdir
        self.args = list(args or [])
        self.hook_dir = hook_dir
        self.span_dir = span_dir
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self._log = None

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        home = os.path.join(self.workdir, "home")
        tmp = os.path.join(self.workdir, "tmp")
        os.makedirs(home, exist_ok=True)
        os.makedirs(tmp, exist_ok=True)
        path = [self.src]
        env.pop(ENV_DIR, None)
        if self.hook_dir is not None:
            path.insert(0, self.hook_dir)
            env[ENV_DIR] = str(self.span_dir)
        env.update(HOME=home, TMPDIR=tmp, PYTHONPATH=os.pathsep.join(path))
        return env

    def start(self) -> float:
        """Launch and wait until ready; returns the set-up seconds."""
        os.makedirs(self.workdir, exist_ok=True)
        self._log = open(os.path.join(self.workdir, "stderr.log"), "w")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", self.kind, "--port", "0", *self.args],
            cwd=self.workdir, env=self._env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = started + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(f"{self.kind} daemon did not become ready "
                                   f"(see {self.workdir}/stderr.log)")
            match = _BANNER.search(line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                break
        ping(*self.address)
        return time.monotonic() - started

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid) if self.proc is not None else 0.0

    def stop(self) -> None:
        """SIGTERM (the daemons drain and exit 0), then kill stragglers.

        Waits until every process of the tree has ended.
        """
        if self.proc is None:
            return
        pids = tree(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        pids = sorted(set(pids) | set(tree(self.proc.pid)))
        for pid in pids:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        if self._log is not None:
            self._log.close()
        self.proc = None

